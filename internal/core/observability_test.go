package core

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// The observability layer's session-level contract: incidents (timeouts,
// surprise EOFs) surface as rich errors carrying elapsed time, the
// unmatched buffer tail, and the bounded JSONL flight dump — and the
// instrumentation costs nothing when the recorder is disabled.

func spawnTraced(t *testing.T, rec *trace.Recorder, program func(io.Reader, io.Writer) error) *Session {
	t.Helper()
	s, err := SpawnProgram(&Config{Rec: rec, SID: 7}, "traced", program)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestForcedTimeoutDumpHasUnmatchedAttempts(t *testing.T) {
	rec := trace.New(0)
	rec.SetRecording(true)
	s := spawnTraced(t, rec, func(stdin io.Reader, stdout io.Writer) error {
		io.WriteString(stdout, "a wall of unrelated chatter, no prompt here")
		io.Copy(io.Discard, stdin)
		return nil
	})

	start := time.Now()
	_, err := s.ExpectTimeout(300*time.Millisecond, Exact("NEVER-APPEARS"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	var ee *ExpectError
	if !errors.As(err, &ee) {
		t.Fatalf("err %T does not unwrap to *ExpectError", err)
	}
	if ee.Elapsed < 300*time.Millisecond || ee.Elapsed > time.Since(start)+time.Second {
		t.Errorf("Elapsed = %s, want >= the 300ms deadline", ee.Elapsed)
	}
	if !strings.Contains(ee.BufferTail, "no prompt here") {
		t.Errorf("BufferTail = %q, want the unmatched tail", ee.BufferTail)
	}
	msg := err.Error()
	for _, want := range []string{"after", "unmatched buffer", "spawn_id 7"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error message missing %q: %s", want, msg)
		}
	}

	events, perr := trace.ParseJSONL(ee.Dump)
	if perr != nil {
		t.Fatalf("dump is not parseable JSONL: %v", perr)
	}
	attempts, timeouts := 0, 0
	for _, e := range events {
		switch e.Kind {
		case "attempt":
			if e.OK {
				t.Errorf("attempt marked matched in a timed-out expect: %+v", e)
			}
			if e.Text != "NEVER-APPEARS" {
				t.Errorf("attempt pattern = %q, want NEVER-APPEARS", e.Text)
			}
			attempts++
		case "timeout":
			timeouts++
		}
	}
	if attempts == 0 {
		t.Error("dump has no unmatched pattern attempts")
	}
	if timeouts == 0 {
		t.Error("dump has no timeout event")
	}
}

func TestSurpriseEOFErrorCarriesDiagnostics(t *testing.T) {
	rec := trace.New(0)
	rec.SetRecording(true)
	s := spawnTraced(t, rec, func(stdin io.Reader, stdout io.Writer) error {
		io.WriteString(stdout, "user na") // hangs up mid-pattern
		return nil
	})

	_, err := s.ExpectTimeout(5*time.Second, Glob("*username:*"))
	if !errors.Is(err, ErrEOF) {
		t.Fatalf("err = %v, want ErrEOF", err)
	}
	var ee *ExpectError
	if !errors.As(err, &ee) {
		t.Fatalf("err %T does not unwrap to *ExpectError", err)
	}
	if !strings.Contains(ee.BufferTail, "user na") {
		t.Errorf("BufferTail = %q, want the partial pattern", ee.BufferTail)
	}
	events, perr := trace.ParseJSONL(ee.Dump)
	if perr != nil {
		t.Fatalf("dump: %v", perr)
	}
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	for _, want := range []string{"spawn", "read", "attempt", "eof"} {
		if kinds[want] == 0 {
			t.Errorf("dump missing %q events; got %v", want, kinds)
		}
	}
}

func TestExpInternalMidScript(t *testing.T) {
	e, _ := newTestEngine(t)
	e.RegisterVirtual("phased", lineServer("phase-one\n", func(line string) (string, bool) {
		return "phase-two\n", true
	}))
	var diag lockedBuffer
	e.Interp.Stderr = &diag
	_, err := e.Run(`
		set timeout 5
		spawn phased
		exp_internal 1
		expect {*phase-one*} {}
		exp_internal 0
		send go\n
		expect {*phase-two*} {}
	`)
	if err != nil {
		t.Fatal(err)
	}
	out := diag.String()
	if !strings.Contains(out, `match pattern "*phase-one*"`) {
		t.Errorf("diag missed the attempt while exp_internal was on:\n%s", out)
	}
	if strings.Contains(out, "phase-two") {
		t.Errorf("diag leaked events after exp_internal 0:\n%s", out)
	}

	// Bad arguments are script errors, same as real expect.
	for _, bad := range []string{`exp_internal`, `exp_internal 3`, `exp_internal x`} {
		if _, err := e.Run(bad); err == nil {
			t.Errorf("%q succeeded, want error", bad)
		}
	}
}

func TestLogFileAndDiagFanOut(t *testing.T) {
	// log_file and exp_internal observe the same dialogue through two
	// independent taps; turning both on must duplicate nothing and lose
	// nothing on either stream.
	e, _ := newTestEngine(t)
	e.RegisterVirtual("p", greeter("FAN-OUT-BANNER"))
	var diag lockedBuffer
	e.Interp.Stderr = &diag
	path := t.TempDir() + "/fan.log"
	_, err := e.Run(`
		exp_internal 1
		log_file ` + path + `
		set timeout 5
		spawn p
		expect {*login:*} {}
		log_file
		exp_internal 0
	`)
	if err != nil {
		t.Fatal(err)
	}
	logged, _ := readFileString(path)
	if !strings.Contains(logged, "FAN-OUT-BANNER") {
		t.Errorf("log_file missed the dialogue: %q", logged)
	}
	out := diag.String()
	if !strings.Contains(out, `match pattern "*login:*"`) {
		t.Errorf("diag stream missed the attempt:\n%s", out)
	}
	if strings.Contains(logged, "match pattern") {
		t.Errorf("diagnostics leaked into the dialogue log: %q", logged)
	}
}

func TestDisabledRecorderWakeupAllocationFree(t *testing.T) {
	// The wakeup hot path with a present-but-disabled recorder: the mode
	// check plus the untraced scan, exactly as ExpectTimeout runs them.
	s := &Session{rec: trace.New(0), sid: 3}
	cases := []Case{Glob("*NEEDLE[0-9]*"), Exact("also absent")}
	prepareCases(cases, nil)
	buf := bytes.Repeat([]byte("abcdefgh"), 8*1024)
	if allocs := testing.AllocsPerRun(100, func() {
		var idx int
		if s.rec.On() {
			idx, _ = s.scanCasesTraced(buf, cases, false)
		} else {
			idx, _ = scanCases(buf, cases, false)
		}
		if idx >= 0 {
			t.Fatal("unexpected match")
		}
	}); allocs > 0 {
		t.Errorf("disabled-recorder wakeup allocates %.1f objects, want 0", allocs)
	}
}

func TestEngineDefaultRecorderAlwaysArmed(t *testing.T) {
	// Engines arm ring recording by default so incident dumps always
	// exist. The default ring holds the dialogue; eval events join it only
	// while something reads per-command timing (exp_internal 2 here), and
	// exp_internal 0 stops both without stopping the ring.
	e, _ := newTestEngine(t)
	e.Interp.Stderr = io.Discard
	rec := e.Recorder()
	if rec == nil || !rec.Recording() {
		t.Fatal("engine recorder not armed by default")
	}
	e.RegisterVirtual("p", greeter("ARMED"))
	kinds := func(script string) map[string]bool {
		t.Helper()
		if _, err := e.Run(script); err != nil {
			t.Fatal(err)
		}
		events, err := trace.ParseJSONL(rec.Dump(64))
		if err != nil || len(events) == 0 {
			t.Fatalf("default recorder captured nothing (err=%v)", err)
		}
		seen := map[string]bool{}
		for _, ev := range events {
			seen[ev.Kind] = true
		}
		return seen
	}
	got := kinds(`
		set timeout 5
		spawn p
		expect {*login:*} {}
	`)
	for _, want := range []string{"spawn", "read", "match"} {
		if !got[want] {
			t.Errorf("default recording missing %q events; got %v", want, got)
		}
	}
	if got["eval"] {
		t.Errorf("default recording holds eval events with no reader armed; got %v", got)
	}
	if got := kinds("exp_internal 2\nset x 1\nexp_internal 0"); !got["eval"] {
		t.Errorf("exp_internal 2 recorded no eval events; got %v", got)
	}
	if !rec.Recording() {
		t.Error("exp_internal 0 stopped the ring")
	}
}

// The dispatch hook contract: an engine arms Interp.DispatchHook only while
// something reads it — a profiler's eval-dispatch histogram or level-2
// diagnostics — so an unwatched engine runs the vm's specialized sites.

func TestEngineDefaultLeavesDispatchHookNil(t *testing.T) {
	e := NewEngine(EngineOptions{})
	defer e.Shutdown()
	if e.Interp.DispatchHook != nil {
		t.Fatal("default engine armed the dispatch hook")
	}
}

func TestEngineProfilerSamplesEvalDispatch(t *testing.T) {
	prof := metrics.NewProfiler()
	e := NewEngine(EngineOptions{Prof: prof, UserOut: io.Discard})
	defer e.Shutdown()
	if e.Interp.DispatchHook == nil {
		t.Fatal("profiled engine left the dispatch hook unarmed")
	}
	if _, err := e.Run(`set n 0; while {$n < 10} { incr n }`); err != nil {
		t.Fatal(err)
	}
	if n := prof.Hist(metrics.HistEvalDispatch).Count(); n < 10 {
		t.Errorf("eval-dispatch histogram sampled %d dispatches, want >= 10", n)
	}
	// Diagnostics going quiet must not disarm what the profiler reads.
	e.SetDiag(0, io.Discard)
	if e.Interp.DispatchHook == nil {
		t.Error("exp_internal 0 disarmed a profiled engine's dispatch hook")
	}
}

func TestExpInternalArmsDispatchHook(t *testing.T) {
	e, _ := newTestEngine(t)
	var diag lockedBuffer
	e.Interp.Stderr = &diag
	for _, step := range []struct {
		level string
		armed bool
	}{{"2", true}, {"1", false}, {"2", true}, {"0", false}} {
		if _, err := e.Run("exp_internal " + step.level); err != nil {
			t.Fatal(err)
		}
		if armed := e.Interp.DispatchHook != nil; armed != step.armed {
			t.Errorf("after exp_internal %s: hook armed = %v, want %v", step.level, armed, step.armed)
		}
	}
	if _, err := e.Run("exp_internal 2\nset probe 1\nexp_internal 0\nset silent 1"); err != nil {
		t.Fatal(err)
	}
	out := diag.String()
	if !strings.Contains(out, "tcl: dispatch set") {
		t.Errorf("exp_internal 2 rendered no dispatch lines:\n%s", out)
	}
	if strings.Count(out, "tcl: dispatch set") != 1 {
		t.Errorf("dispatch lines rendered outside exp_internal 2:\n%s", out)
	}
}
