// End-to-end tests: the compiled goexpect interpreter driving the
// compiled interactive programs over real pseudo-terminals. These are the
// paper's scripts run for real (experiment E14), plus the behavioural
// reproductions of Figures 1–4 that need actual processes (E10).
package repro

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var (
	binDirOnce sync.Once
	binDir     string
	binErr     error
)

// buildBinaries compiles the commands once per test run.
func buildBinaries(t *testing.T) string {
	t.Helper()
	binDirOnce.Do(func() {
		dir, err := os.MkdirTemp("", "expect-bins")
		if err != nil {
			binErr = err
			return
		}
		cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
			"./cmd/goexpect", "./cmd/rogue", "./cmd/chess", "./cmd/eliza",
			"./cmd/fscksim", "./cmd/modemsim", "./cmd/passwdsim", "./cmd/loginsim", "./cmd/chat")
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			binErr = err
			t.Logf("go build output:\n%s", out)
			return
		}
		binDir = dir
	})
	if binErr != nil {
		t.Fatalf("building binaries: %v", binErr)
	}
	return binDir
}

// runScript executes goexpect on a script file with args.
func runScript(t *testing.T, script string, args ...string) (string, int) {
	t.Helper()
	dir := buildBinaries(t)
	path := filepath.Join(t.TempDir(), "script.exp")
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(dir, "goexpect"), append([]string{path}, args...)...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	cmd.Stdin = strings.NewReader("")
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("goexpect: %v\n%s", err, out.String())
	}
	return out.String(), code
}

// TestPaperRogueScriptRealPty runs rogue.exp from §4 against the real
// rogue binary over real ptys — the headline demonstration.
func TestPaperRogueScriptRealPty(t *testing.T) {
	dir := buildBinaries(t)
	script := `
		# rogue.exp - find a good game of rogue
		set timeout 5
		set games 0
		for {} 1 {} {
			incr games
			spawn ` + filepath.Join(dir, "rogue") + ` -seed $games -luck-num 1 -luck-den 3
			expect {*Str:\ 18*} break \
				timeout close
		}
		send_user "GAMES=$games\n"
		close
		exit 0
	`
	out, code := runScript(t, script)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "GAMES=") {
		t.Fatalf("no games report:\n%s", out)
	}
	if !strings.Contains(out, "Str: 18") {
		t.Errorf("winning screen never shown:\n%s", out)
	}
}

// TestLoginScriptRealPty logs into the real loginsim binary and runs a
// shell command, echo and all.
func TestLoginScriptRealPty(t *testing.T) {
	dir := buildBinaries(t)
	script := `
		set timeout 5
		spawn ` + filepath.Join(dir, "loginsim") + ` -host testhost
		expect {*login:*} {}
		send don\n
		expect {*Password:*} {}
		send secret\n
		expect {*Welcome\ to\ testhost*} {send_user "LOGIN-OK\n"} \
			timeout {send_user "LOGIN-FAIL\n"; exit 1}
		expect {*$\ *} {}
		send "echo proof-of-shell\n"
		expect {*proof-of-shell*} {}
		send logout\n
		exit 0
	`
	out, code := runScript(t, script)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "LOGIN-OK") {
		t.Fatalf("login failed:\n%s", out)
	}
}

// TestPasswdOverRealPty is the §1/§5.3 demonstration: passwdsim talks to
// /dev/tty, so only a pty-based controller can drive it.
func TestPasswdOverRealPty(t *testing.T) {
	dir := buildBinaries(t)
	script := `
		set timeout 5
		spawn ` + filepath.Join(dir, "passwdsim") + ` -user don
		expect {*New password:*} {}
		send brand-new-pw-42\r
		expect {*Retype new password:*} {}
		send brand-new-pw-42\r
		expect {*Password\ changed*} {send_user "CHANGED\n"; exit 0} \
			timeout {send_user "STUCK\n"; exit 1}
	`
	out, code := runScript(t, script)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "CHANGED") {
		t.Fatalf("password never changed:\n%s", out)
	}
}

// TestPasswdRefusesPipes pins the other half of §5.3: detached from any
// terminal, with only pipes attached, passwdsim refuses to converse —
// which is exactly why the shell cannot script it.
func TestPasswdRefusesPipes(t *testing.T) {
	dir := buildBinaries(t)
	cmd := exec.Command(filepath.Join(dir, "passwdsim"), "-user", "don")
	cmd.Stdin = strings.NewReader("pw\npw\n")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	// Detach from the test's controlling terminal (if any) so /dev/tty
	// does not resolve.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setsid: true}
	err := cmd.Run()
	if err == nil {
		t.Fatalf("passwd accepted a pipe conversation:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "no controlling terminal") {
		t.Errorf("unexpected failure mode:\n%s", out.String())
	}
}

// TestFsckInteractiveScript drives the real fscksim over a pty, answering
// every question with yes — and verifies it exits 0 (filesystem clean).
func TestFsckInteractiveScript(t *testing.T) {
	dir := buildBinaries(t)
	script := `
		set timeout 10
		spawn ` + filepath.Join(dir, "fscksim") + ` -seed 42 -errors 5
		for {} 1 {} {
			expect {*RECONNECT?*} {send yes\r} \
				{*CLEAR?*} {send yes\r} \
				{*ADJUST?*} {send yes\r} \
				{*SALVAGE?*} {send yes\r} \
				{*MODIFIED*} break \
				eof break \
				timeout {exit 3}
		}
		set status [wait]
		exit $status
	`
	out, code := runScript(t, script)
	if code != 0 {
		t.Fatalf("fsck dialogue exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "Phase 1") {
		t.Errorf("no phase banner:\n%s", out)
	}
}

// TestCallbackScriptRealPty runs callback.exp against the real modemsim
// (with its tip front end) over a pty.
func TestCallbackScriptRealPty(t *testing.T) {
	dir := buildBinaries(t)
	script := `
		spawn ` + filepath.Join(dir, "modemsim") + ` -tip -dial-delay 100ms
		expect {*connected*} {}
		send ATZ\r
		expect {*OK*} {}
		send ATDT[index $argv 1]\r
		set timeout 60
		expect {*CONNECT*} {send_user "DIALED\n"; exit 0} \
			{*BUSY*} {send_user "BUSY\n"; exit 1} \
			timeout {exit 2}
	`
	out, code := runScript(t, script, "12016442332")
	if code != 0 {
		t.Fatalf("callback exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "DIALED") {
		t.Fatalf("never connected:\n%s", out)
	}
	// And the busy line reports busy.
	out, code = runScript(t, script, "5550000")
	if code != 1 || !strings.Contains(out, "BUSY") {
		t.Fatalf("busy line: exit %d\n%s", code, out)
	}
}

// TestElizaScriptRealPty holds a short conversation with the real eliza
// binary.
func TestElizaScriptRealPty(t *testing.T) {
	dir := buildBinaries(t)
	script := `
		set timeout 5
		spawn ` + filepath.Join(dir, "eliza") + ` -seed 3
		expect {*PROBLEM*} {}
		send "i am testing a reproduction\n"
		expect {*TESTING\ A\ REPRODUCTION*} {send_user "HEARD\n"} \
			timeout {exit 1}
		send goodbye\n
		expect {*GOODBYE*} {}
		exit 0
	`
	out, code := runScript(t, script)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "HEARD") {
		t.Fatalf("reflection lost:\n%s", out)
	}
}

// TestChessScriptKickoff reproduces the §3.2 kickoff: send p/k2-k3 by
// hand to the real chess binary and read its reply.
func TestChessScriptKickoff(t *testing.T) {
	dir := buildBinaries(t)
	script := `
		set timeout 5
		spawn ` + filepath.Join(dir, "chess") + ` -seed 9
		expect {*Chess*} {}
		send p/k2-k3\n
		expect {*...*} {send_user "REPLIED\n"; exit 0} \
			timeout {exit 1}
	`
	out, code := runScript(t, script)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "REPLIED") {
		t.Fatalf("no counter-move:\n%s", out)
	}
}

// TestGoexpectDashC runs commands via -c, the paper's §4 tracing hook.
func TestGoexpectDashC(t *testing.T) {
	dir := buildBinaries(t)
	cmd := exec.Command(filepath.Join(dir, "goexpect"), "-c", `send_user "from-dash-c\n"`)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	cmd.Stdin = strings.NewReader("")
	if err := cmd.Run(); err != nil {
		t.Fatalf("goexpect -c: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "from-dash-c") {
		t.Errorf("output: %q", out.String())
	}
}

// TestGoexpectSims exercises the -sims registry: a hermetic script with
// no external binaries at all.
func TestGoexpectSims(t *testing.T) {
	dir := buildBinaries(t)
	script := `
		set timeout 5
		spawn login-sim
		expect {*login:*} {}
		send guest\n
		expect {*Password:*} {}
		send guest\n
		expect {*Welcome*} {send_user "SIM-OK\n"; exit 0} timeout {exit 1}
	`
	path := filepath.Join(t.TempDir(), "sim.exp")
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(dir, "goexpect"), "-sims", path)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	cmd.Stdin = strings.NewReader("")
	if err := cmd.Run(); err != nil {
		t.Fatalf("goexpect -sims: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "SIM-OK") {
		t.Errorf("output:\n%s", out.String())
	}
}

// TestFigure1PipesAreOneWay demonstrates the paper's Figure 1: the shell
// cannot cross-connect two processes; a pipe is strictly one-way. Here a
// pipe-spawned child that needs a terminal behaves degenerately, while
// the same child under a pty works (Figure 2's fix).
func TestFigure1PipesAreOneWay(t *testing.T) {
	dir := buildBinaries(t)
	// Under pipes, passwdsim cannot find its terminal.
	cmd := exec.Command(filepath.Join(dir, "passwdsim"))
	cmd.SysProcAttr = &syscall.SysProcAttr{Setsid: true}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err == nil {
		t.Fatal("pipe-connected passwd should have failed")
	}
	// Under goexpect's pty, the very same binary converses (covered by
	// TestPasswdOverRealPty); here we just confirm the asymmetry exists.
	if !strings.Contains(out.String(), "no controlling terminal") {
		t.Errorf("unexpected pipe failure: %s", out.String())
	}
}

// TestScriptTimeoutHonored: a never-matching expect with timeout arm exits
// promptly rather than hanging (E13 at the binary level).
func TestScriptTimeoutHonored(t *testing.T) {
	dir := buildBinaries(t)
	script := `
		set timeout 1
		spawn ` + filepath.Join(dir, "loginsim") + `
		expect {*never-going-to-appear*} {exit 9} timeout {send_user "TIMED-OUT\n"; exit 0}
	`
	start := time.Now()
	out, code := runScript(t, script)
	if code != 0 || !strings.Contains(out, "TIMED-OUT") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if e := time.Since(start); e > 10*time.Second {
		t.Errorf("timeout took %v", e)
	}
}

// runSimScript runs a script file from scripts/ through goexpect -sims.
func runSimScript(t *testing.T, path string, args ...string) (string, int) {
	t.Helper()
	dir := buildBinaries(t)
	cmd := exec.Command(filepath.Join(dir, "goexpect"),
		append([]string{"-sims", path}, args...)...)
	// Every roll wins, so the faithful timeout-per-bad-game loop in
	// rogue.exp doesn't burn a minute of test time.
	cmd.Env = append(os.Environ(), "EXPECT_SIM_LUCK_DEN=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	cmd.Stdin = strings.NewReader("")
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("goexpect -sims %s: %v\n%s", path, err, out.String())
	}
	return out.String(), code
}

// TestShippedScripts runs every script in scripts/ — the paper's examples
// as distributed artifacts.
func TestShippedScripts(t *testing.T) {
	t.Run("rogue.exp", func(t *testing.T) {
		// interact immediately sees user EOF (empty stdin) and returns.
		out, code := runSimScript(t, "scripts/rogue.exp")
		if code != 0 {
			t.Fatalf("exit %d:\n%s", code, out)
		}
		if !strings.Contains(out, "Str: 18") {
			t.Errorf("no winning game:\n%s", out)
		}
	})
	t.Run("callback.exp", func(t *testing.T) {
		out, code := runSimScript(t, "scripts/callback.exp", "12016442332")
		if code != 0 || !strings.Contains(out, "call established") {
			t.Fatalf("exit %d:\n%s", code, out)
		}
		out, code = runSimScript(t, "scripts/callback.exp", "5550000")
		if code != 1 || !strings.Contains(out, "busy") {
			t.Fatalf("busy line exit %d:\n%s", code, out)
		}
	})
	t.Run("passwd.exp", func(t *testing.T) {
		out, code := runSimScript(t, "scripts/passwd.exp")
		if code != 0 || !strings.Contains(out, "changed") {
			t.Fatalf("exit %d:\n%s", code, out)
		}
	})
	t.Run("fsck.exp", func(t *testing.T) {
		out, code := runSimScript(t, "scripts/fsck.exp")
		if code != 0 || !strings.Contains(out, "fsck dialogue complete") {
			t.Fatalf("exit %d:\n%s", code, out)
		}
	})
	t.Run("login.exp", func(t *testing.T) {
		out, code := runSimScript(t, "scripts/login.exp")
		if code != 0 || !strings.Contains(out, "logged in") {
			t.Fatalf("exit %d:\n%s", code, out)
		}
	})
}

// TestChatTool runs the uucp chat binary against loginsim: the baseline
// as a usable tool (and its documented failure on the busy variant).
func TestChatTool(t *testing.T) {
	dir := buildBinaries(t)
	run := func(extra ...string) (string, int) {
		args := append([]string{"-timeout", "3s",
			`ogin:--ogin: guest ssword: guest elcome`,
			filepath.Join(dir, "loginsim")}, extra...)
		cmd := exec.Command(filepath.Join(dir, "chat"), args...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &out
		err := cmd.Run()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("chat: %v\n%s", err, out.String())
		}
		return out.String(), code
	}
	out, code := run()
	if code != 0 || !strings.Contains(out, "completed") {
		t.Fatalf("happy path exit %d:\n%s", code, out)
	}
	out, code = run("-busy")
	if code == 0 {
		t.Fatalf("chat succeeded against a busy line:\n%s", out)
	}
}

// TestGoexpectTimeoutFlag overrides the initial timeout variable.
func TestGoexpectTimeoutFlag(t *testing.T) {
	dir := buildBinaries(t)
	cmd := exec.Command(filepath.Join(dir, "goexpect"),
		"-timeout", "33", "-c", `send_user "timeout=$timeout\n"`)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	cmd.Stdin = strings.NewReader("")
	if err := cmd.Run(); err != nil {
		t.Fatalf("goexpect: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "timeout=33") {
		t.Errorf("output: %q", out.String())
	}
}

// TestGoexpectDiagDispatch pins which diagnostics level arms per-command
// timing: -diag=2 narrates every Tcl dispatch, -diag=1 narrates none.
func TestGoexpectDiagDispatch(t *testing.T) {
	dir := buildBinaries(t)
	for _, tc := range []struct {
		level string
		want  bool
	}{{"2", true}, {"1", false}} {
		cmd := exec.Command(filepath.Join(dir, "goexpect"),
			"-diag="+tc.level, "-c", `set x 1; send_user "x=$x\n"`)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &out
		cmd.Stdin = strings.NewReader("")
		if err := cmd.Run(); err != nil {
			t.Fatalf("goexpect -diag=%s: %v\n%s", tc.level, err, out.String())
		}
		if got := strings.Contains(out.String(), "tcl: dispatch set"); got != tc.want {
			t.Errorf("-diag=%s: dispatch line present = %v, want %v:\n%s", tc.level, got, tc.want, out.String())
		}
	}
}

// TestElizaDuetScript runs the §5.8 duet through the script engine's
// combined machinery (spawn_id switching + regexp patterns).
func TestElizaDuetScript(t *testing.T) {
	out, code := runSimScript(t, "scripts/elizaduet.exp")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "duet complete") {
		t.Fatalf("duet did not finish:\n%s", out)
	}
	if !strings.Contains(out, "turn 5:") {
		t.Errorf("missing turns:\n%s", out)
	}
}
