package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/programs/authsim"
)

// expectCommands are the engine's commands; time inside their dispatches
// is core time, everything else Run spends is Tcl.
var expectCommands = map[string]bool{
	"spawn": true, "send": true, "expect": true, "interact": true, "close": true,
	"select": true, "wait": true, "send_user": true, "expect_user": true,
	"log_user": true, "log_file": true, "system": true, "sleep": true, "trace": true,
	"match_max": true, "expect_any": true, "exp_internal": true,
}

// chainHook adds span recording into t in front of the engine's own
// dispatch hook and returns the hook it replaced.
func chainHook(e *core.Engine, t *opTrace) func(string, int, time.Duration) {
	prev := e.Interp.DispatchHook
	e.Interp.DispatchHook = func(name string, depth int, d time.Duration) {
		t.commands++
		if expectCommands[name] {
			t.closed("core."+name, d)
		}
		if prev != nil {
			prev(name, depth, d)
		}
	}
	return prev
}

// capture keeps the first child transcripts of traced ops for the glob
// probe. Its writers run on session pump goroutines.
type capture struct {
	mu   sync.Mutex
	bufs []*bytes.Buffer
}

const maxCaptured = 32

func (c *capture) tap(int, string) io.Writer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.bufs) >= maxCaptured {
		return nil
	}
	b := &bytes.Buffer{}
	c.bufs = append(c.bufs, b)
	return lockedWriter{&c.mu, b}
}

// transcripts returns what was captured, each cut to the match buffer's
// size.
func (c *capture) transcripts() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, b := range c.bufs {
		s := b.String()
		if len(s) > matchMax {
			s = s[len(s)-matchMax:]
		}
		out = append(out, s)
	}
	return out
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// scriptWL is the Tcl-heavy workload: each op builds a fresh engine and
// runs one generated login-sim/passwd-sim script.
type scriptWL struct {
	in       *inputs
	captured capture
}

func (s *scriptWL) workers() int                 { return 1 }
func (s *scriptWL) setupReps() int               { return 201 }
func (s *scriptWL) sutPID() int                  { return 0 }
func (s *scriptWL) counters() map[string]float64 { return nil }
func (s *scriptWL) trace(bool)                   {}
func (s *scriptWL) tearDown() error              { return nil }
func (s *scriptWL) kill()                        {}
func (s *scriptWL) newEngine(v scriptVariant, out io.Writer, tap func(int, string) io.Writer) *core.Engine {
	off := false
	e := core.NewEngine(core.EngineOptions{Transport: "pipe", LogUser: &off,
		UserIn: strings.NewReader(""), UserOut: out, ChildTap: tap})
	e.RegisterVirtual("login-sim", authsim.NewLogin(authsim.LoginConfig{
		Accounts: map[string]string{v.user: v.password}}))
	e.RegisterVirtual("passwd-sim", authsim.NewPasswd(authsim.PasswdConfig{
		User: v.user, Dictionary: []string{"password", "dragon", "letmein", "qwerty"}}))
	return e
}

// setUp brings one engine to the point where a script's dialogue starts:
// built, programs registered, procs defined.
func (s *scriptWL) setUp() error {
	e := s.newEngine(s.in.scripts[0], io.Discard, nil)
	defer e.Shutdown()
	_, err := e.Run(scriptHead)
	return err
}

func (s *scriptWL) op(_ int, seq int64, t *opTrace) error {
	v := s.in.scripts[seq%int64(len(s.in.scripts))]
	var out bytes.Buffer
	var tap func(int, string) io.Writer
	if t != nil {
		tap = s.captured.tap
	}
	sp := t.begin("core.engine_new")
	e := s.newEngine(v, &out, tap)
	t.end(sp)
	if t != nil {
		chainHook(e, t)
	}
	sp = t.begin("tcl.run")
	_, err := e.Run(v.text)
	t.end(sp)
	code, exited := e.ExitCode()
	sp = t.begin("core.engine_shutdown")
	e.Shutdown()
	t.end(sp)
	switch {
	case err != nil:
		return err
	case !exited || code != 0:
		return fmt.Errorf("script exit %d (exit called: %v), output %q", code, exited, out.String())
	case out.String() != v.want:
		return fmt.Errorf("send_user printed %q, want %q", out.String(), v.want)
	}
	return nil
}

func (s *scriptWL) layers(m map[string]float64, _, _ *windowResult, _ time.Duration) error {
	m["pattern.glob_ns_per_kb"] = globNsPerKB(scriptGlobs, s.captured.transcripts())
	return nil
}
