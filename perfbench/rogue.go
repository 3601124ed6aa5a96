package main

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/pty"
)

// rogueBody is the loop body of the paper's rogue.exp, one game per op,
// spawning the built game under a real pty.
const rogueBody = `set pid [spawn $rogue -luck-den 1 -seed %d]
expect {*Str:\ 18*} {set ok 1} timeout {set ok timeout} eof {set ok eof}
close
list $ok $pid
`

// rogueWL is the pty workload: one engine on the pty transport plays one
// game of the built cmd/rogue per op.
type rogueWL struct {
	in        *inputs
	bin       string
	e         *core.Engine
	cur       *opTrace
	prevHook  func(string, int, time.Duration)
	capturing bool
	captured  capture
	// Closed games are reaped off the driver's path, as a script's
	// trailing wait would; the reaper ends when pids is closed.
	pids     chan int
	reaper   sync.WaitGroup
	games    atomic.Int64
	misses   atomic.Int64
	reapErrs atomic.Int64
	newUs    []float64
	shutUs   []float64
}

// hangupWait is how long a closed game may run on before the reaper
// counts a missed hangup and kills it.
const hangupWait = 5 * time.Millisecond

func (r *rogueWL) workers() int                 { return 1 }
func (r *rogueWL) setupReps() int               { return 201 }
func (r *rogueWL) sutPID() int                  { return 0 }
func (r *rogueWL) counters() map[string]float64 { return nil }

func (r *rogueWL) tap(seq int, name string) io.Writer {
	if !r.capturing {
		return nil
	}
	return r.captured.tap(seq, name)
}

func (r *rogueWL) setUp() error {
	off := false
	t0 := time.Now()
	r.e = core.NewEngine(core.EngineOptions{Transport: "pty", LogUser: &off,
		UserIn: strings.NewReader(""), UserOut: io.Discard, ChildTap: r.tap})
	r.newUs = append(r.newUs, float64(time.Since(t0))/1e3)
	r.e.Interp.GlobalSet("rogue", filepath.Join(r.bin, "rogue"))
	if _, err := r.e.Run("log_user 0\nset timeout 3\n"); err != nil {
		return err
	}
	// Sized so the driver never waits on the reaper while a game exits.
	pids := make(chan int, 256)
	r.pids = pids
	r.reaper.Add(1)
	go func() {
		defer r.reaper.Done()
		r.reap(pids)
	}()
	return nil
}

// reap waits for every closed game. Closing a game's pty should hang it
// up; a game still running hangupWait after its close is counted as a
// missed hangup and killed, so games never pile up.
func (r *rogueWL) reap(pids <-chan int) {
	type game struct {
		pid    int
		closed time.Time
		killed bool
	}
	var pending []game
	open := true
	for open || len(pending) > 0 {
		if len(pending) == 0 {
			pid, ok := <-pids
			if !ok {
				return
			}
			pending = append(pending, game{pid: pid, closed: time.Now()})
		}
	take:
		for open {
			select {
			case pid, ok := <-pids:
				if !ok {
					open = false
					break take
				}
				pending = append(pending, game{pid: pid, closed: time.Now()})
			default:
				break take
			}
		}
		kept := pending[:0]
		for _, g := range pending {
			var ws syscall.WaitStatus
			pid, err := syscall.Wait4(g.pid, &ws, syscall.WNOHANG, nil)
			switch {
			case err != nil:
				r.reapErrs.Add(1)
				continue
			case pid == g.pid:
				r.games.Add(1)
				continue
			case !g.killed && time.Since(g.closed) > hangupWait:
				r.misses.Add(1)
				syscall.Kill(g.pid, syscall.SIGKILL)
				g.killed = true
			}
			kept = append(kept, g)
		}
		pending = kept
		if len(pending) > 0 {
			time.Sleep(time.Millisecond)
		}
	}
}

func (r *rogueWL) tearDown() error {
	t0 := time.Now()
	r.e.Shutdown()
	r.shutUs = append(r.shutUs, float64(time.Since(t0))/1e3)
	close(r.pids)
	r.pids = nil
	r.reaper.Wait()
	if n := r.reapErrs.Load(); n > 0 {
		return fmt.Errorf("%d games could not be reaped", n)
	}
	return nil
}

// kill ends and reaps every game still open, on an error path.
func (r *rogueWL) kill() {
	if r.pids != nil {
		r.tearDown()
	}
}

// trace chains the span hook onto the engine's dispatch hook only for
// the traced window, so untraced windows run the engine as shipped.
func (r *rogueWL) trace(on bool) {
	r.capturing = on
	if on {
		r.prevHook = r.e.Interp.DispatchHook
		r.e.Interp.DispatchHook = func(name string, depth int, d time.Duration) {
			if t := r.cur; t != nil {
				t.commands++
				if expectCommands[name] {
					t.closed("core."+name, d)
				}
			}
			if r.prevHook != nil {
				r.prevHook(name, depth, d)
			}
		}
		return
	}
	if r.prevHook != nil {
		r.e.Interp.DispatchHook = r.prevHook
		r.prevHook = nil
	}
}

func (r *rogueWL) op(_ int, seq int64, t *opTrace) error {
	seed := r.in.rogueSeeds[seq%int64(len(r.in.rogueSeeds))]
	r.cur = t
	sp := t.begin("tcl.run")
	out, err := r.e.Run(fmt.Sprintf(rogueBody, seed))
	t.end(sp)
	r.cur = nil
	if err != nil {
		return err
	}
	var ok string
	var pid int
	if _, err := fmt.Sscanf(out, "%s %d", &ok, &pid); err != nil {
		return fmt.Errorf("game result %q: %v", out, err)
	}
	r.pids <- pid
	if ok != "1" {
		return fmt.Errorf("game seed %d: no Str: 18 (%s)", seed, ok)
	}
	return nil
}

func (r *rogueWL) layers(m map[string]float64, _, _ *windowResult, _ time.Duration) error {
	m["core.engine_new_us"] = median(r.newUs)
	if len(r.shutUs) > 0 {
		m["core.engine_shutdown_us"] = median(r.shutUs)
	}
	m["pattern.glob_ns_per_kb"] = globNsPerKB([]string{`*Str:\ 18*`}, r.captured.transcripts())
	if g := r.games.Load(); g > 0 {
		m["pty.hangup_miss_frac"] = float64(r.misses.Load()) / float64(g)
	}
	us, err := ptyOpenUs(500)
	if err != nil {
		return err
	}
	m["pty.open_us"] = us
	return nil
}

// ptyOpenUs is the median time of pty.Open plus Close alone, in µs.
func ptyOpenUs(n int) (float64, error) {
	d := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		p, err := pty.Open()
		if err != nil {
			return 0, err
		}
		p.Close()
		d = append(d, int64(time.Since(t0)))
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return quantile(d, 0.5) / 1e3, nil
}
