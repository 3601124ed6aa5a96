package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// inputs is everything one seed generates. The system under test receives
// only these values: script text and the accounts its simulated programs
// accept, echo payloads, blob sizes and rogue seeds.
type inputs struct {
	seed       int64
	scripts    []scriptVariant
	payloads   []string
	blobs      []int
	rogueSeeds []int64
}

// scriptVariant is one generated expect script and the send_user line it
// must print.
type scriptVariant struct {
	text     string
	user     string
	password string
	want     string
}

const (
	nScripts   = 64
	nPayloads  = 1024
	nBlobs     = 1024
	nRogue     = 4096
	matchMax   = 2000 // the engine's default match_max; blobs overflow it
	alphabet   = "abcdefghijklmnopqrstuvwxyz"
	alnum      = "abcdefghijklmnopqrstuvwxyz0123456789"
	scriptHead = `log_user 0
set timeout 5
proc abort {why} {send_user "abort: $why\n"; exit 1}
proc shift {word n} {
	set abc abcdefghijklmnopqrstuvwxyz
	set out ""
	set len [string length $word]
	for {set k 0} {$k < $len} {incr k} {
		set at [string first [string index $word $k] $abc]
		append out [string index $abc [expr {($at + $n) % 26}]]
	}
	return $out
}
proc weave {a b} {
	set out ""
	set n [string length $a]
	for {set k 0} {$k < $n} {incr k} {
		append out [string index $a $k] [string index $b $k]
	}
	return $out
}
proc tail {a b n} {
	set out ""
	for {set k 0} {$k < $n} {incr k} {append out [expr {($a * $k + $b) % 10}]}
	return $out
}
proc mix {n} {
	set sum 0
	for {set k 1} {$k <= $n} {incr k} {set sum [expr {($sum * 31 + $k * $k) % 1000003}]}
	return $sum
}
`
)

func randString(r *rand.Rand, set string, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = set[r.Intn(len(set))]
	}
	return string(b)
}

func shift(word string, n int) string {
	b := []byte(word)
	for i, c := range b {
		b[i] = alphabet[(int(c-'a')+n)%26]
	}
	return string(b)
}

func genInputs(seed int64) *inputs {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed}
	for v := 0; v < nScripts; v++ {
		in.scripts = append(in.scripts, genScript(r))
	}
	for i := 0; i < nPayloads; i++ {
		in.payloads = append(in.payloads, randString(r, alnum, 8+r.Intn(33)))
	}
	for i := 0; i < nBlobs; i++ {
		in.blobs = append(in.blobs, 3*matchMax+r.Intn(2*matchMax+1))
	}
	for i := 0; i < nRogue; i++ {
		in.rogueSeeds = append(in.rogueSeeds, 1+r.Int63n(1<<40))
	}
	return in
}

// genScript builds a login-sim then passwd-sim dialogue in which every
// sent line is computed in Tcl: the user name by a caesar shift, the login
// password by interleaving two halves, the new password by a digit loop,
// and the final send_user line by a loop of expr steps.
func genScript(r *rand.Rand) scriptVariant {
	user := randString(r, alphabet, 5+r.Intn(4))
	key := 1 + r.Intn(25)
	pw := randString(r, alnum, 8)
	var even, odd strings.Builder
	for i := 0; i < len(pw); i += 2 {
		even.WriteByte(pw[i])
		odd.WriteByte(pw[i+1])
	}
	stem := randString(r, alphabet, 6)
	a, b, nTail := 1+r.Intn(9), r.Intn(10), 4+r.Intn(3)
	nMix := 140 + r.Intn(21)
	sum := 0
	for k := 1; k <= nMix; k++ {
		sum = (sum*31 + k*k) % 1000003
	}
	text := scriptHead + fmt.Sprintf(`set user [shift %s %d]
set pw [weave %s %s]
spawn login-sim
expect {*login:*} {} timeout {abort login-prompt}
send "$user\r"
expect {*Password:*} {} timeout {abort password-prompt}
send "$pw\r"
expect {*Welcome*} {} timeout {abort welcome}
send "logout\r"
expect eof {} timeout {abort logout}
set new "%s[tail %d %d %d]"
spawn passwd-sim
expect {*New\ password:*} {} timeout {abort new-prompt}
send "$new\r"
expect {*Retype\ new\ password:*} {} timeout {abort retype-prompt}
send "$new\r"
expect {*Password\ changed*} {} timeout {abort changed}
close
send_user "ok $user [mix %d]\n"
exit 0
`, shift(user, key), 26-key, even.String(), odd.String(), stem, a, b, nTail, nMix)
	return scriptVariant{
		text:     text,
		user:     user,
		password: pw,
		want:     fmt.Sprintf("ok %s %d\n", user, sum),
	}
}

// scriptGlobs are the glob patterns the generated scripts expect on.
var scriptGlobs = []string{`*login:*`, `*Password:*`, `*Welcome*`,
	`*New\ password:*`, `*Retype\ new\ password:*`, `*Password\ changed*`}
