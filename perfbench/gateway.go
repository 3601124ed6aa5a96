package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netx"
)

// gateway is one expectd -mux process started by the benchmark.
type gateway struct {
	cmd   *exec.Cmd
	addr  string // session gateway listener
	admin string // telemetry listener, "" unless armed
	ready time.Time
	done  chan struct{}
	mu    sync.Mutex
	last  string // last line expectd printed
}

// signalGrace is how long after its ready line expectd is left before a
// SIGTERM: it prints ready before it installs its signal handler, so a
// signal sent at once kills it instead of starting the drain.
const signalGrace = 100 * time.Millisecond

// startGateway starts expectd serving echo behind a mux listener and
// waits for its ready line.
func startGateway(bin string, admin bool) (*gateway, error) {
	args := []string{"-serve", "echo", "-mux", "127.0.0.1:0", "-grace", "10s"}
	if admin {
		args = append(args, "-admin", "127.0.0.1:0")
	}
	cmd := exec.Command(filepath.Join(bin, "expectd"), args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start expectd: %w", err)
	}
	g := &gateway{cmd: cmd, done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(g.done)
		sc := bufio.NewScanner(stdout)
		isReady := false
		for sc.Scan() {
			line := sc.Text()
			g.mu.Lock()
			g.last = line
			if !isReady {
				fmt.Sscanf(line, "expectd: mux on %s", &g.addr)
				fmt.Sscanf(line, "expectd: admin %s", &g.admin)
				if line == "expectd: ready" {
					isReady = true
					close(ready)
				}
			}
			g.mu.Unlock()
		}
	}()
	select {
	case <-ready:
		g.ready = time.Now()
	case <-g.done:
		g.kill()
		return nil, fmt.Errorf("expectd exited before its ready line")
	case <-time.After(10 * time.Second):
		g.kill()
		return nil, fmt.Errorf("expectd printed no ready line within 10s")
	}
	g.mu.Lock()
	missing := g.addr == "" || (admin && g.admin == "")
	g.mu.Unlock()
	if missing {
		g.kill()
		return nil, fmt.Errorf("expectd advertised no mux or admin address")
	}
	return g, nil
}

// stop sends SIGTERM and requires a clean drain: exit status 0 after the
// "drained clean" line.
func (g *gateway) stop() error {
	time.Sleep(signalGrace - time.Since(g.ready))
	if err := g.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-g.done:
	case <-time.After(30 * time.Second):
		g.kill()
		return fmt.Errorf("expectd did not exit within 30s of SIGTERM")
	}
	if err := g.cmd.Wait(); err != nil {
		return fmt.Errorf("expectd exit: %v", err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !strings.HasPrefix(g.last, "expectd: drained clean") {
		return fmt.Errorf("expectd drain: %q", g.last)
	}
	return nil
}

// kill ends the process without a drain, for error paths.
func (g *gateway) kill() {
	g.cmd.Process.Kill()
	<-g.done
	g.cmd.Wait()
}

// scrape reads the gateway snapshot from /debug/mux.
func (g *gateway) scrape() (netx.MuxServerStats, error) {
	var st netx.MuxServerStats
	tr := &http.Transport{DisableKeepAlives: true}
	defer tr.CloseIdleConnections()
	c := &http.Client{Timeout: 5 * time.Second, Transport: tr}
	resp, err := c.Get("http://" + g.admin + "/debug/mux")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/debug/mux: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// gatewayDrivers is the closed-loop concurrency of both gateway workloads.
const gatewayDrivers = 64

// gatewayWL drives expectd -mux through core.SpawnMux on a MuxPool, either
// with long-lived sessions exchanging short lines (echo) or with a fresh
// stream per op that carries a blob and then ends (churn).
type gatewayWL struct {
	in           *inputs
	bin          string
	admin, churn bool

	gw        *gateway
	ingest    *metrics.IngestStats
	pool      *netx.MuxPool
	sched     *core.Scheduler
	sessions  []*core.Session
	sent      []int64
	forgotten atomic.Int64
	spawnNs   []int64 // SpawnMux and Close of the echo sessions
	closeNs   []int64
	peakConns int
	refused   float64
}

func (g *gatewayWL) workers() int   { return gatewayDrivers }
func (g *gatewayWL) setupReps() int { return 15 }
func (g *gatewayWL) trace(bool)     {}

func (g *gatewayWL) sutPID() int { return g.gw.cmd.Process.Pid }

func (g *gatewayWL) cfg() *core.Config {
	return &core.Config{Timeout: 5 * time.Second, Sched: g.sched, Mux: g.pool, Ingest: g.ingest}
}

// setUp starts the gateway, builds the pool and scheduler, and opens the
// echo sessions (or, for churn, one stream to dial the pool).
func (g *gatewayWL) setUp() error {
	gw, err := startGateway(g.bin, g.admin)
	if err != nil {
		return err
	}
	g.gw = gw
	nproc := runtime.NumCPU()
	g.ingest = &metrics.IngestStats{}
	g.pool = netx.NewMuxPool(netx.MuxOptions{MaxConns: nproc, Stats: g.ingest,
		Pool: netx.NewSegmentPool(netx.Options{}.ReadChunk(), g.ingest)})
	g.sched = core.NewScheduler(core.SchedulerOptions{Shards: nproc})
	g.sent = make([]int64, gatewayDrivers)
	g.sessions = nil
	opens := gatewayDrivers
	if g.churn {
		opens = 1
	}
	for i := 0; i < opens; i++ {
		t0 := time.Now()
		s, err := core.SpawnMux(g.cfg(), fmt.Sprintf("echo-%d", i), gw.addr, "echo")
		if err != nil {
			return fmt.Errorf("open session %d: %w", i, err)
		}
		g.spawnNs = append(g.spawnNs, int64(time.Since(t0)))
		g.sessions = append(g.sessions, s)
	}
	if g.churn {
		g.sessions[0].Close()
		g.sessions = nil
	}
	return nil
}

// tearDown closes every session, checks that no stream or goroutine is
// left and that the gateway drains clean.
func (g *gatewayWL) tearDown() error {
	var errs []error
	for _, s := range g.sessions {
		t0 := time.Now()
		s.Close()
		g.closeNs = append(g.closeNs, int64(time.Since(t0)))
	}
	g.sessions = nil
	g.noteConns()
	if n := g.openStreams(); n != 0 {
		errs = append(errs, fmt.Errorf("%d pool streams still open", n))
	}
	if g.peakConns > runtime.NumCPU() {
		errs = append(errs, fmt.Errorf("pool used %d connections, more than nproc %d", g.peakConns, runtime.NumCPU()))
	}
	if g.refused > 0 {
		errs = append(errs, fmt.Errorf("gateway refused %v opens", g.refused))
	}
	g.sched.Stop()
	g.pool.Close()
	if err := g.gw.stop(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func (g *gatewayWL) kill() {
	if g.gw != nil && g.gw.cmd.ProcessState == nil {
		g.gw.kill()
	}
}

// openStreams waits briefly for closed streams to leave the pool and
// returns how many are still live.
func (g *gatewayWL) openStreams() int {
	for i := 0; i < 200; i++ {
		if g.pool.Stats().Streams == 0 {
			return 0
		}
		time.Sleep(10 * time.Millisecond)
	}
	return g.pool.Stats().Streams
}

func (g *gatewayWL) noteConns() {
	if n := g.pool.Stats().Conns; n > g.peakConns {
		g.peakConns = n
	}
}

func (g *gatewayWL) counters() map[string]float64 {
	g.noteConns()
	return map[string]float64{
		"copied":    float64(g.ingest.BytesCopied()),
		"allocs":    float64(g.ingest.IngestAllocs()),
		"leases":    float64(g.ingest.SegmentLeases()),
		"reuses":    float64(g.ingest.SegmentReuses()),
		"forgotten": float64(g.forgotten.Load()),
	}
}

func (g *gatewayWL) op(w int, seq int64, t *opTrace) error {
	if g.churn {
		return g.churnOp(seq, t)
	}
	s := g.sessions[w]
	g.sent[w]++
	marker := fmt.Sprintf("%s-%d-%d", g.in.payloads[seq%int64(len(g.in.payloads))], w, g.sent[w])
	sp := t.begin("core.send")
	err := s.Send(marker + "\n")
	t.end(sp)
	if err != nil {
		return err
	}
	want := "echo:" + marker + "\n"
	sp = t.begin("core.expect")
	r, err := s.Expect(core.Exact(want))
	t.end(sp)
	if err != nil {
		return err
	}
	if r.Index != 0 || r.TimedOut || r.Eof || !strings.HasSuffix(r.Text, want) {
		return fmt.Errorf("echo of %q: got %+v", marker, r)
	}
	return nil
}

// churnOp opens a stream, has the echo program send a blob larger than
// the match buffer, expects its marker, quits and expects EOF.
func (g *gatewayWL) churnOp(seq int64, t *opTrace) error {
	n := g.in.blobs[seq%int64(len(g.in.blobs))]
	sp := t.begin("core.spawn")
	s, err := core.SpawnMux(g.cfg(), "churn", g.gw.addr, "echo")
	t.end(sp)
	if err != nil {
		return err
	}
	err = g.blobDialogue(s, n, t)
	sp = t.begin("core.close")
	s.Close()
	t.end(sp)
	return err
}

func (g *gatewayWL) blobDialogue(s *core.Session, n int, t *opTrace) error {
	sp := t.begin("core.send")
	err := s.Send(fmt.Sprintf("blob %d\n", n))
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("core.expect")
	r, err := s.Expect(core.Exact("echo:blob\n"))
	t.end(sp)
	if err != nil {
		return err
	}
	if r.Index != 0 || r.TimedOut || r.Eof {
		return fmt.Errorf("blob %d: got %+v", n, r)
	}
	f := s.Forgotten()
	if f <= 0 {
		return fmt.Errorf("blob %d of %d bytes forgot nothing", n, matchMax)
	}
	g.forgotten.Add(f)
	sp = t.begin("core.send")
	err = s.Send("quit\n")
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("core.expect")
	r, err = s.Expect(core.EOFCase())
	t.end(sp)
	if err != nil {
		return err
	}
	if !r.Eof {
		return fmt.Errorf("after quit: got %+v, want EOF", r)
	}
	return nil
}

func (g *gatewayWL) layers(m map[string]float64, untraced, _ *windowResult, d time.Duration) error {
	c := untraced.counters
	m["netx.bytes_copied_per_op"] = untraced.perOp(c["copied"])
	m["netx.ingest_allocs_per_op"] = untraced.perOp(c["allocs"])
	if c["leases"] > 0 {
		m["netx.segment_reuse_frac"] = c["reuses"] / c["leases"]
	}
	m["core.forgotten_bytes_per_op"] = untraced.perOp(c["forgotten"])
	peak := 0
	for _, q := range g.sched.PeakQueueDepths() {
		if q > peak {
			peak = q
		}
	}
	m["core.shard_queue_peak"] = float64(peak)
	m["core.dropped"] = float64(g.sched.Dropped())
	if !g.churn {
		m["core.spawn_us"] = p50us(g.spawnNs)
		m["core.close_us"] = p50us(g.closeNs)
	}

	leg := d / 5
	if leg < time.Second {
		leg = time.Second
	}
	if leg > 3*time.Second {
		leg = 3 * time.Second
	}
	rtt, err := g.rttLeg(leg)
	if err != nil {
		return fmt.Errorf("netx rtt leg: %w", err)
	}
	m["netx.rtt_us_p50"] = quantile(rtt, 0.5) / 1e3
	m["netx.rtt_us_p99"] = quantile(rtt, 0.99) / 1e3
	if !g.churn {
		m["core.overhead_us"] = m["core.expect_us_p50"] - m["netx.rtt_us_p50"]
	}
	opens, err := g.openLeg(leg)
	if err != nil {
		return fmt.Errorf("netx open leg: %w", err)
	}
	m["netx.open_us_p50"] = quantile(opens, 0.5) / 1e3
	m["netx.open_us_p99"] = quantile(opens, 0.99) / 1e3
	g.noteConns()
	m["netx.conns"] = float64(g.peakConns)

	m["mux.encode_ns_per_frame"], m["mux.decode_ns_per_frame"] = muxNsPerFrame(g.frameSizes())

	if g.admin {
		st, err := g.gw.scrape()
		if err != nil {
			return err
		}
		m["expectd.served"] = float64(st.Served)
		for _, n := range st.Refused {
			g.refused += float64(n)
		}
		m["expectd.refused"] = g.refused
	}
	return nil
}

// frameSizes lists the DATA payload sizes the workload's writes produce:
// the line sent and its echo, or the blob request, the filler in the echo
// program's 512-byte writes, the marker and quit.
func (g *gatewayWL) frameSizes() []int {
	var sizes []int
	if !g.churn {
		for _, p := range g.in.payloads {
			marker := len(p) + len("-63-99999")
			sizes = append(sizes, marker+1, len("echo:")+marker+1)
		}
		return sizes
	}
	for _, n := range g.in.blobs[:64] {
		sizes = append(sizes, len(fmt.Sprintf("blob %d\n", n)))
		for ; n > 512; n -= 512 {
			sizes = append(sizes, 512)
		}
		sizes = append(sizes, n, 1, len("echo:blob\n"), len("quit\n"))
	}
	return sizes
}

// rttLeg is the raw transport round trip: one MuxStream per driver at the
// workload's concurrency, Write of a line then Read until its echo, with
// no core session on top.
func (g *gatewayWL) rttLeg(d time.Duration) ([]int64, error) {
	streams := make([]*netx.MuxStream, 0, gatewayDrivers)
	defer func() {
		for _, st := range streams {
			st.Close()
		}
	}()
	for i := 0; i < gatewayDrivers; i++ {
		st, err := g.pool.Open(g.gw.addr, "echo")
		if err != nil {
			return nil, err
		}
		streams = append(streams, st)
	}
	lats := make([][]int64, len(streams))
	errs := make([]error, len(streams))
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w, st := range streams {
		wg.Add(1)
		go func(w int, st *netx.MuxStream) {
			defer wg.Done()
			buf := make([]byte, 4096)
			var acc []byte
			for n := 0; time.Now().Before(deadline); n++ {
				msg := fmt.Sprintf("r%d-%d\n", w, n)
				want := []byte("echo:" + msg)
				t0 := time.Now()
				if _, err := st.Write([]byte(msg)); err != nil {
					errs[w] = err
					return
				}
				acc = acc[:0]
				for !bytes.HasSuffix(acc, want) {
					k, err := st.Read(buf)
					if err != nil {
						errs[w] = err
						return
					}
					acc = append(acc, buf[:k]...)
				}
				lats[w] = append(lats[w], int64(time.Since(t0)))
			}
			errs[w] = quit(st)
		}(w, st)
	}
	wg.Wait()
	return collect(lats, errs)
}

// openLeg times MuxPool.Open alone, each driver opening a stream, quitting
// it and draining it to EOF in a loop.
func (g *gatewayWL) openLeg(d time.Duration) ([]int64, error) {
	lats := make([][]int64, gatewayDrivers)
	errs := make([]error, gatewayDrivers)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < gatewayDrivers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				st, err := g.pool.Open(g.gw.addr, "echo")
				if err != nil {
					errs[w] = err
					return
				}
				lats[w] = append(lats[w], int64(time.Since(t0)))
				err = quit(st)
				st.Close()
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return collect(lats, errs)
}

// quit ends the echo program on st and reads the stream to EOF.
func quit(st *netx.MuxStream) error {
	if _, err := st.Write([]byte("quit\n")); err != nil {
		return err
	}
	_, err := io.Copy(io.Discard, st)
	return err
}

func collect(lats [][]int64, errs []error) ([]int64, error) {
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all, nil
}

func p50us(ns []int64) float64 {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantile(s, 0.5) / 1e3
}
