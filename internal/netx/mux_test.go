package netx

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netx/mux"
	"repro/internal/proc"
	"repro/internal/testutil"
)

// muxRegistry is the test gateway's program zoo.
func muxRegistry() map[string]proc.Program {
	return map[string]proc.Program{
		"echo": echoProg,
		// firehose writes bulk data without waiting for anyone to read it,
		// then parks until stdin EOF — the head-of-line antagonist.
		"firehose": func(stdin io.Reader, stdout io.Writer) error {
			chunk := make([]byte, 4096)
			for i := range chunk {
				chunk[i] = 'f'
			}
			for i := 0; i < 16; i++ { // 64 KiB total
				if _, err := stdout.Write(chunk); err != nil {
					return err
				}
			}
			io.Copy(io.Discard, stdin)
			return nil
		},
	}
}

func startGateway(t *testing.T, opt MuxServerOptions) *MuxServer {
	t.Helper()
	srv, err := NewMuxServer("127.0.0.1:0", muxRegistry(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestMuxRoundTripManySessionsOneConn is the tentpole's core claim: many
// concurrent sessions exchange dialogues over ONE TCP connection, each
// isolated, each ending in a clean per-stream EOF.
func TestMuxRoundTripManySessionsOneConn(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	srv := startGateway(t, MuxServerOptions{})
	defer srv.Shutdown(time.Second)

	pool := NewMuxPool(MuxOptions{MaxConns: 1, MaxStreamsPerConn: 64})
	defer pool.Close()

	const sessions = 32
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := pool.Open(srv.Addr(), "echo")
			if err != nil {
				errs <- err
				return
			}
			for n := 0; n < 3; n++ {
				msg := fmt.Sprintf("s%d-m%d", i, n)
				if _, err := st.Write([]byte(msg + "\n")); err != nil {
					errs <- fmt.Errorf("session %d write: %w", i, err)
					return
				}
				if got := readLine(t, st); got != "ack:"+msg+"\n" {
					errs <- fmt.Errorf("session %d got %q", i, got)
					return
				}
			}
			if err := st.CloseWrite(); err != nil {
				errs <- err
				return
			}
			if _, err := st.Read(make([]byte, 8)); err != io.EOF {
				errs <- fmt.Errorf("session %d: want clean EOF, got %v", i, err)
				return
			}
			if status, _ := st.WaitStatus(); status != 0 {
				errs <- fmt.Errorf("session %d: status %d, want 0", i, status)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := pool.Conns(srv.Addr()); got != 1 {
		t.Errorf("pool used %d connections, want exactly 1", got)
	}
	if got := srv.Served(); got != sessions {
		t.Errorf("gateway served %d, want %d", got, sessions)
	}
	if got := srv.ActiveSessions(); got != 0 {
		t.Errorf("%d sessions still active after close", got)
	}
}

// TestMuxTenantQuotaGoaway pins the backpressure contract: a tenant at
// quota gets a prompt GOAWAY refusal, never a hang, and the slot frees
// once a session ends.
func TestMuxTenantQuotaGoaway(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	srv := startGateway(t, MuxServerOptions{TenantQuota: 2})
	defer srv.Shutdown(time.Second)

	pool := NewMuxPool(MuxOptions{Tenant: "acme"})
	defer pool.Close()

	open := func() *MuxStream {
		st, err := pool.Open(srv.Addr(), "echo")
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// Prove admission with a real exchange so the quota slots are held.
	s1, s2 := open(), open()
	for i, st := range []*MuxStream{s1, s2} {
		if _, err := st.Write([]byte("hi\n")); err != nil {
			t.Fatal(err)
		}
		if got := readLine(t, st); got != "ack:hi\n" {
			t.Fatalf("session %d got %q", i, got)
		}
	}

	// The third OPEN must be refused with GOAWAY("quota") — surfaced as a
	// prompt read error, not a hang.
	s3 := open()
	var gerr *GoAwayError
	if _, err := s3.Read(make([]byte, 8)); !errors.As(err, &gerr) || gerr.Reason != RefuseQuota {
		t.Fatalf("over-quota stream read = %v, want GoAwayError(quota)", err)
	}
	if status, _ := s3.WaitStatus(); status != 1 {
		t.Fatalf("refused stream status = %d, want 1", status)
	}
	if got := srv.Stats().Refused[RefuseQuota]; got != 1 {
		t.Fatalf("refusal counter = %d, want 1", got)
	}

	// Ending one session frees the tenant slot: the next OPEN is admitted.
	if err := s1.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Read(make([]byte, 8)); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
	s4 := open()
	if _, err := s4.Write([]byte("again\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLine(t, s4); got != "ack:again\n" {
		t.Fatalf("post-release session got %q", got)
	}
	s2.Close()
	s4.Close()
	s3.Close()
}

// TestMuxHeadOfLineIsolation pins the in-window isolation guarantee: a
// slow consumer whose backlog fits its StreamBuf window costs a sibling
// on the same connection nothing — the sibling's dialogue round-trips
// while the slow stream's 64 KiB sits undrained.
func TestMuxHeadOfLineIsolation(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	srv := startGateway(t, MuxServerOptions{})
	defer srv.Shutdown(time.Second)

	// One connection, and a window comfortably above firehose's 64 KiB.
	pool := NewMuxPool(MuxOptions{MaxConns: 1, StreamBuf: 256 << 10})
	defer pool.Close()

	slow, err := pool.Open(srv.Addr(), "firehose")
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := pool.Open(srv.Addr(), "echo")
	if err != nil {
		t.Fatal(err)
	}
	if pool.Conns(srv.Addr()) != 1 {
		t.Fatal("test needs both streams on one connection")
	}

	// Never read from slow; drive 50 exchanges on the sibling.
	for n := 0; n < 50; n++ {
		msg := fmt.Sprintf("hol-%d", n)
		if _, err := sibling.Write([]byte(msg + "\n")); err != nil {
			t.Fatalf("sibling write %d stalled behind slow consumer: %v", n, err)
		}
		if got := readLine(t, sibling); got != "ack:"+msg+"\n" {
			t.Fatalf("sibling exchange %d got %q", n, got)
		}
	}

	// The slow stream's data is all still there, un-lost.
	if err := slow.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	drained, err := io.Copy(io.Discard, struct{ io.Reader }{slow})
	if err != nil {
		t.Fatalf("draining slow stream: %v", err)
	}
	if drained != 64<<10 {
		t.Fatalf("slow stream delivered %d bytes, want %d", drained, 64<<10)
	}
	sibling.Close()
	slow.Close()
}

// TestMuxShutdownDrainsMidDialogue pins the extended Shutdown contract:
// GOAWAY-then-drain. Mid-dialogue Shutdown sends GOAWAY(0); the
// in-flight stream completes its exchange and ends cleanly; new OPENs
// are refused; and the drain reports clean.
func TestMuxShutdownDrainsMidDialogue(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	srv := startGateway(t, MuxServerOptions{})

	pool := NewMuxPool(MuxOptions{MaxConns: 1})
	defer pool.Close()

	st, err := pool.Open(srv.Addr(), "echo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write([]byte("first\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLine(t, st); got != "ack:first\n" {
		t.Fatalf("got %q", got)
	}

	drained := make(chan bool, 1)
	go func() { drained <- srv.Shutdown(10 * time.Second) }()

	// Gate, not poll: once Draining closes, the listener is down and the
	// GOAWAY(0) notices are on the wire.
	select {
	case <-srv.Draining():
	case <-time.After(5 * time.Second):
		t.Fatal("drain gate never closed")
	}
	// A new session cannot be placed: the pooled connection is (or is
	// about to be) marked draining and fresh dials are refused. Either
	// refusal is a prompt error or a GOAWAY("draining") on the stream.
	if nst, err := pool.Open(srv.Addr(), "echo"); err == nil {
		var gerr *GoAwayError
		if _, rerr := nst.Read(make([]byte, 8)); !errors.As(rerr, &gerr) {
			t.Fatalf("mid-drain open: read = %v, want refusal", rerr)
		} else if gerr.Reason != RefuseDraining {
			t.Fatalf("mid-drain refusal reason %q, want %q", gerr.Reason, RefuseDraining)
		}
		nst.Close()
	}

	// The stream admitted before the notice keeps its dialogue: the
	// second exchange completes mid-drain.
	if _, err := st.Write([]byte("second\n")); err != nil {
		t.Fatalf("mid-drain write failed: %v", err)
	}
	if got := readLine(t, st); got != "ack:second\n" {
		t.Fatalf("mid-drain exchange got %q", got)
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Read(make([]byte, 8)); err != io.EOF {
		t.Fatalf("want clean per-stream EOF, got %v", err)
	}

	select {
	case clean := <-drained:
		if !clean {
			t.Fatal("drain reported streams cut; the dialogue completed, want clean")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown never returned after the stream finished")
	}
	if got := srv.Served(); got != 1 {
		t.Fatalf("Served = %d, want 1", got)
	}
}

// TestMuxShutdownCutsAtDeadline: a stream that outlives the grace window
// is cut and the drain reports unclean — same contract shape as the
// one-conn server's.
func TestMuxShutdownCutsAtDeadline(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	srv := startGateway(t, MuxServerOptions{})
	pool := NewMuxPool(MuxOptions{})
	defer pool.Close()

	st, err := pool.Open(srv.Addr(), "echo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write([]byte("hi\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLine(t, st); got != "ack:hi\n" {
		t.Fatalf("got %q", got)
	}
	// Never half-close: the program stays parked reading stdin.
	if clean := srv.Shutdown(30 * time.Millisecond); clean {
		t.Fatal("drain should report unclean when the deadline cuts a stream")
	}
	// The cut surfaces on the client as end-of-stream.
	if _, err := io.Copy(io.Discard, struct{ io.Reader }{st}); err != nil && !errors.Is(err, io.EOF) {
		t.Logf("cut stream disposition: %v", err)
	}
	st.Close()
}

// TestMuxPoolPlacement pins the pooling policy: streams pack onto
// existing connections up to MaxStreamsPerConn, new connections dial up
// to MaxConns, and past both bounds Open fails fast with
// ErrPoolSaturated instead of queueing.
func TestMuxPoolPlacement(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	srv := startGateway(t, MuxServerOptions{})
	defer srv.Shutdown(time.Second)

	pool := NewMuxPool(MuxOptions{MaxConns: 2, MaxStreamsPerConn: 2})
	defer pool.Close()

	var streams []*MuxStream
	for i := 0; i < 4; i++ {
		st, err := pool.Open(srv.Addr(), "echo")
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		streams = append(streams, st)
	}
	if got := pool.Conns(srv.Addr()); got != 2 {
		t.Fatalf("4 streams over cap-2 conns used %d connections, want 2", got)
	}
	if _, err := pool.Open(srv.Addr(), "echo"); !errors.Is(err, ErrPoolSaturated) {
		t.Fatalf("saturated open = %v, want ErrPoolSaturated", err)
	}
	// Ending one stream frees a slot.
	streams[0].Close()
	st, err := pool.Open(srv.Addr(), "echo")
	if err != nil {
		t.Fatalf("open after release: %v", err)
	}
	streams = append(streams, st)
	for _, st := range streams[1:] {
		st.Close()
	}
}

// TestMuxUnknownProgramRefused: a bad program name is a per-stream
// refusal, not a connection error — sibling streams are untouched.
func TestMuxUnknownProgramRefused(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	srv := startGateway(t, MuxServerOptions{})
	defer srv.Shutdown(time.Second)
	pool := NewMuxPool(MuxOptions{MaxConns: 1})
	defer pool.Close()

	good, err := pool.Open(srv.Addr(), "echo")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := pool.Open(srv.Addr(), "no-such-program")
	if err != nil {
		t.Fatal(err)
	}
	var gerr *GoAwayError
	if _, err := bad.Read(make([]byte, 8)); !errors.As(err, &gerr) || !strings.Contains(gerr.Reason, RefuseUnknownProg) {
		t.Fatalf("unknown program read = %v, want GoAwayError(unknown program)", err)
	}
	if _, err := good.Write([]byte("still-here\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLine(t, good); got != "ack:still-here\n" {
		t.Fatalf("sibling after refusal got %q", got)
	}
	good.Close()
	bad.Close()
}

// TestMuxConnDeathFailsStreams: a gateway connection dying hard takes
// its streams with it — each finishes with an error disposition on its
// first Read/WaitStatus, no hangs, and the pool stops placing onto the
// dead connection. The peer resets the connection only once the OPEN
// frame has arrived and Open has returned, so the order is fixed.
func TestMuxConnDeathFailsStreams(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	gotOpen := make(chan error, 1)
	reset := make(chan struct{})
	go func() {
		c, err := ln.Accept()
		if err != nil {
			gotOpen <- err
			return
		}
		f, err := mux.NewDecoder(c).Next()
		if err == nil && f.Type != mux.TypeOpen {
			err = fmt.Errorf("first frame %s, want OPEN", f.Type)
		}
		gotOpen <- err
		<-reset
		c.(*net.TCPConn).SetLinger(0)
		c.Close()
	}()

	pool := NewMuxPool(MuxOptions{})
	defer pool.Close()
	st, err := pool.Open(ln.Addr().String(), "echo")
	if err != nil {
		t.Fatal(err)
	}
	if err := <-gotOpen; err != nil {
		t.Fatal(err)
	}
	close(reset)
	if _, err := st.Read(make([]byte, 8)); err == nil || err == io.EOF {
		t.Fatalf("read on a reset connection = %v, want the wire error", err)
	}
	if status, _ := st.WaitStatus(); status != 1 {
		t.Fatalf("dead-conn stream status = %d, want 1", status)
	}
	if got := pool.Conns(ln.Addr().String()); got != 0 {
		t.Fatalf("dead connection still pooled: %d", got)
	}
}

// TestMuxOpenOnDyingConn: a connection that dies between placement and
// the OPEN write still yields a stream from Open; the death surfaces on
// the stream, like any other. Poisoning the writer directly pins the
// window in which the demux loop has failed the writer but not yet
// swept the stream table.
func TestMuxOpenOnDyingConn(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	srv := startGateway(t, MuxServerOptions{})
	defer srv.Shutdown(time.Second)
	pool := NewMuxPool(MuxOptions{MaxConns: 1})
	defer pool.Close()

	first, err := pool.Open(srv.Addr(), "echo")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("connection died")
	first.mc.w.fail(boom)
	st, err := pool.Open(srv.Addr(), "echo")
	if err != nil {
		t.Fatalf("Open on a dying connection = %v, want the stream (death surfaces on Read)", err)
	}
	for _, s := range []*MuxStream{first, st} {
		if _, err := s.Read(make([]byte, 8)); !errors.Is(err, boom) {
			t.Fatalf("stream %d read = %v, want %v", s.ID(), err, boom)
		}
		if status, _ := s.WaitStatus(); status != 1 {
			t.Fatalf("stream %d status = %d, want 1", s.ID(), status)
		}
	}
	if got := pool.Conns(srv.Addr()); got != 0 {
		t.Fatalf("dead connection still pooled: %d", got)
	}
}
