// Package netx is the socket transport: a session that arrives over a
// wire instead of a fork. It implements the same contract as the
// in-process transports of internal/proc — blocking Read/Write, CloseWrite
// half-close, and the event-capable TryRead + SetReadNotify doorbell pair
// the sharded scheduler (internal/core/shard.go) drains sessions with —
// on top of a net.Conn.
//
// Ingest is zero-copy by default: socket reads land in pooled Segments
// (segment.go) whose ownership travels with them — reader → inbox →
// TryReadOwned → gap-buffer backing — so the steady-state path moves no
// payload bytes between buffers. The per-connection reader goroutine is
// itself optional: a deferred connection (DialDeferred/WrapDeferred) can
// be registered with a shard's readiness Poller (poller_linux.go), which
// reads many sockets from one loop via raw epoll.
//
// The division of timeout labor is deliberate and narrow: transport-level
// read deadlines here are plumbing (a rolling poll so a quiet socket never
// wedges the reader against teardown), and they are always absorbed as
// transient retries. They never surface as EOF or as a timeout. The
// engine's `timeout` variable, armed per Expect call, remains the only
// timeout the dialogue can observe — a socket session times out exactly
// like a pty session does, from the engine's own timer.
//
// Backpressure is bounded at both ends. Inbound, the producer (reader
// goroutine or poller) parks once ReadBuf bytes are queued undrained,
// which stops reading the socket, which clogs the peer through TCP flow
// control — the same "pty output queue fills" behaviour virtual
// transports get from their bounded duplex. Outbound, Write blocks on the
// kernel socket buffer; an optional WriteStall deadline converts a peer
// that never drains into a hard ErrWriteStall instead of a goroutine
// parked forever.
package netx

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/proc"
)

// Options tunes a socket transport endpoint. The zero value is sensible.
type Options struct {
	// ReadBuf bounds the inbox between the socket reader and the engine
	// (bytes, default 64 KiB). A full inbox blocks the producer — the
	// inbound backpressure bound.
	ReadBuf int
	// PollInterval is the rolling read deadline the fallback reader arms
	// on the socket (default 1s). Deadline expiries are transport
	// plumbing, absorbed as transient retries; they are never mapped to
	// EOF or to the engine's timeout semantics. Negative disables the
	// deadline. The epoll readiness loop needs no poll deadline at all.
	PollInterval time.Duration
	// WriteStall, when > 0, bounds how long one Write may block on a peer
	// that never drains; past it the write fails with ErrWriteStall
	// (non-transient, so the engine gives up instead of retrying).
	WriteStall time.Duration
	// DialTimeout bounds Dial (default 10s).
	DialTimeout time.Duration
	// Stats, when non-nil, receives ingest accounting: bytes copied vs
	// handed off by ownership transfer, and payload-buffer allocations.
	Stats *metrics.IngestStats
	// Pool supplies the segment pool reads lease from; nil uses a shared
	// process-wide pool sized to the read chunk.
	Pool *SegmentPool
	// NoPoller keeps a zero-copy connection off any readiness Poller
	// (Register refuses it), forcing the fallback reader goroutine. The
	// conformance suite uses it to differentially test the two loops.
	NoPoller bool
}

const (
	defaultReadBuf      = 64 << 10
	defaultPollInterval = time.Second
	defaultDialTimeout  = 10 * time.Second
	minReadChunk        = 4096
	maxReadChunk        = 64 << 10
)

// ErrWriteStall reports a Write that exceeded Options.WriteStall against a
// peer that stopped draining. It is deliberately not Temporary(): a
// stalled peer past the bound is a dead dialogue, not a retry.
var ErrWriteStall = errors.New("netx: write stalled past deadline")

func (o Options) readBuf() int {
	if o.ReadBuf <= 0 {
		return defaultReadBuf
	}
	return o.ReadBuf
}

// readChunk sizes one socket read from the configured inbox bound instead
// of a fixed 4 KiB, so large-inbox configs don't degrade to 4 KiB
// syscalls: an eighth of the inbox, clamped to [4 KiB, 64 KiB].
// ReadChunk reports the per-read segment size these options produce —
// the capacity callers should give a custom SegmentPool.
func (o Options) ReadChunk() int { return o.readChunk() }

func (o Options) readChunk() int {
	c := o.readBuf() / 8
	if c < minReadChunk {
		c = minReadChunk
	}
	if c > maxReadChunk {
		c = maxReadChunk
	}
	return c
}

func (o Options) pollInterval() time.Duration {
	if o.PollInterval == 0 {
		return defaultPollInterval
	}
	if o.PollInterval < 0 {
		return 0
	}
	return o.PollInterval
}

func (o Options) dialTimeout() time.Duration {
	if o.DialTimeout <= 0 {
		return defaultDialTimeout
	}
	return o.DialTimeout
}

// Ingest modes a Conn can be in. A connection starts deferred and moves
// exactly once to one of the running modes; the transition is a CAS so a
// poller registration and a blocking Read racing each other settle on a
// single owner of the socket's read side.
const (
	modeDeferred int32 = iota // no ingest yet (DialDeferred/WrapDeferred)
	modeReader                // fallback reader goroutine, pooled segments
	modePolled                // a shard readiness Poller owns the fd
)

// Conn is one endpoint of a socket-backed session. Its read side is owned
// by exactly one producer — a readiness Poller or a fallback reader
// goroutine — that moves bytes from the socket into a bounded inbox of
// owned segments; the inbox supplies blocking Read, the non-blocking
// TryRead, the ownership-transfer TryReadOwned, and the level-triggered
// SetReadNotify doorbell.
type Conn struct {
	c    net.Conn
	opt  Options
	pool *SegmentPool

	in   inbox
	done chan struct{}

	mode    atomic.Int32
	finOnce sync.Once

	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error

	writeMu sync.Mutex

	// Readiness-loop attachment (nil/zero unless Register succeeded).
	poll    *Poller
	pollTok int32
	raw     syscall.RawConn
	parked  atomic.Bool
}

// Dial connects to a TCP addr and returns the transport endpoint with its
// ingest already running (fallback reader goroutine).
func Dial(addr string, opt Options) (*Conn, error) {
	n, err := DialDeferred(addr, opt)
	if err != nil {
		return nil, err
	}
	n.StartIngest()
	return n, nil
}

// DialDeferred connects without starting ingest: no reader goroutine
// exists until the connection is registered with a Poller or StartIngest
// runs (a blocking Read starts it implicitly). The sharded scheduler uses
// this window to claim the socket for its per-shard readiness loop.
func DialDeferred(addr string, opt Options) (*Conn, error) {
	d := net.Dialer{Timeout: opt.dialTimeout()}
	c, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return WrapDeferred(c, opt), nil
}

// Wrap adopts an established net.Conn as a transport endpoint, starting
// its ingest. The Conn owns c from here on.
func Wrap(c net.Conn, opt Options) *Conn {
	n := WrapDeferred(c, opt)
	n.StartIngest()
	return n
}

// WrapDeferred adopts an established net.Conn without starting ingest;
// see DialDeferred.
func WrapDeferred(c net.Conn, opt Options) *Conn {
	n := &Conn{c: c, opt: opt, pool: opt.Pool, done: make(chan struct{})}
	if n.pool == nil {
		n.pool = poolFor(opt.readChunk())
	}
	n.in.init(opt.readBuf(), n.pool.Size(), opt.Stats)
	return n
}

// StartIngest starts the fallback reader goroutine if no producer owns
// the read side yet. It is idempotent and safe to race with a Poller
// registration: exactly one producer wins.
func (n *Conn) StartIngest() {
	if n.mode.CompareAndSwap(modeDeferred, modeReader) {
		go n.reader()
	}
}

// finish marks the dialogue over exactly once: terminal disposition into
// the inbox (ringing the doorbell) and Done closed.
func (n *Conn) finish(err error) {
	n.finOnce.Do(func() {
		n.in.finish(err)
		close(n.done)
	})
}

// reader is the fallback transport-owned goroutine: socket → inbox, with
// the rolling poll deadline and the EOF/RST → disposition mapping. A
// clean FIN or a local Close finishes the inbox with io.EOF; a reset (or
// any other hard error) preserves the error so the session's exit
// disposition reports what actually happened on the wire. Each read
// lands in a leased segment queued whole — no copy.
func (n *Conn) reader() {
	poll := n.opt.pollInterval()
	for {
		if poll > 0 {
			n.c.SetReadDeadline(time.Now().Add(poll))
		}
		seg := n.pool.Get()
		k, err := n.c.Read(seg.buf)
		if k > 0 {
			seg.n = k
			if !n.in.putSeg(seg) {
				n.finish(io.EOF) // read side torn down locally
				return
			}
		} else {
			seg.Release()
		}
		if err == nil {
			continue
		}
		switch {
		case errors.Is(err, os.ErrDeadlineExceeded):
			// Poll tick: transport plumbing, not a dialogue event. The
			// engine's own Expect timer is the only timeout semantics.
			continue
		case isTransient(err):
			continue
		case n.closed.Load() || errors.Is(err, net.ErrClosed):
			// Local close: a deliberate hangup, clean by definition.
			n.finish(io.EOF)
			return
		case errors.Is(err, io.EOF):
			n.finish(io.EOF)
			return
		default:
			n.finish(err) // RST and friends: preserved disposition
			return
		}
	}
}

// isTransient mirrors the engine's retry test: anything advertising
// Temporary() that is not a deadline expiry (deadlines are handled above).
func isTransient(err error) bool {
	var temp interface{ Temporary() bool }
	return errors.As(err, &temp) && temp.Temporary() &&
		!errors.Is(err, os.ErrDeadlineExceeded)
}

// Read blocks for inbound bytes, returning the terminal disposition
// (io.EOF for a clean hangup) once the stream is finished and drained.
// On a deferred connection nobody claimed, the first Read starts the
// fallback reader.
func (n *Conn) Read(b []byte) (int, error) {
	if n.mode.Load() == modeDeferred {
		n.StartIngest()
	}
	return n.in.read(b)
}

// TryRead is the scheduler's non-blocking drain: ok=false means a
// blocking Read would have parked; at the end of the stream it reports
// (0, true, err) with the terminal disposition.
func (n *Conn) TryRead(b []byte) (int, bool, error) {
	if n.mode.Load() == modeDeferred {
		n.StartIngest()
	}
	return n.in.tryRead(b)
}

// TryReadOwned pops the next queued segment whole, transferring its
// ownership to the caller — the zero-copy drain. Contract matches
// TryRead: ok=false would have parked, (nil, true, err) is stream end.
// The returned chunk must be Released once its bytes are forgotten.
func (n *Conn) TryReadOwned() (proc.Owned, bool, error) {
	if n.mode.Load() == modeDeferred {
		n.StartIngest()
	}
	g, ok, err := n.in.tryTake()
	if g == nil {
		return nil, ok, err // explicit nil interface, not (*Segment)(nil)
	}
	return g, ok, err
}

// SetReadNotify installs the level-triggered doorbell: fn runs whenever
// bytes become readable or the stream finishes. Bytes queued before
// installation do not ring it; callers sweep once after installing.
func (n *Conn) SetReadNotify(fn func()) { n.in.setNotify(fn) }

// Write sends bytes to the peer, blocking on the kernel socket buffer —
// the outbound backpressure bound. With Options.WriteStall set, a write
// still blocked past the deadline fails with ErrWriteStall.
func (n *Conn) Write(b []byte) (int, error) {
	n.writeMu.Lock()
	defer n.writeMu.Unlock()
	if n.closed.Load() {
		return 0, net.ErrClosed
	}
	if n.opt.WriteStall > 0 {
		n.c.SetWriteDeadline(time.Now().Add(n.opt.WriteStall))
		defer n.c.SetWriteDeadline(time.Time{})
	}
	k, err := n.c.Write(b)
	if err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
		// A deadline expiry advertises Temporary(); rewrap so the engine's
		// short-write retry loop does not spin on a dead peer forever.
		return k, ErrWriteStall
	}
	return k, err
}

// CloseWrite half-closes the outbound direction (TCP FIN): the remote
// program reads EOF on its stdin while its remaining output stays
// readable here — the socket analogue of closing a child's stdin pipe.
func (n *Conn) CloseWrite() error {
	type closeWriter interface{ CloseWrite() error }
	if cw, ok := n.c.(closeWriter); ok {
		return cw.CloseWrite()
	}
	return nil
}

// Close tears the connection down. Matching the virtual transport's
// close semantics, undelivered inbound bytes are dropped (their segments
// returned to the pool) and subsequent reads see a clean EOF immediately.
// A reader goroutine unblocks on the socket close and exits; a polled or
// never-started connection has no goroutine to observe the close, so the
// dialogue is finished right here.
func (n *Conn) Close() error {
	n.closeOnce.Do(func() {
		n.closed.Store(true)
		n.in.closeRead()
		n.closeErr = n.c.Close()
		n.pollDetach()
		if n.mode.Load() != modeReader {
			n.finish(io.EOF)
		}
	})
	return n.closeErr
}

// Done is closed when the stream dialogue is over: the producer observed
// EOF, a reset, or a local close, and the terminal disposition is set.
func (n *Conn) Done() <-chan struct{} { return n.done }

// Err returns the terminal disposition after Done: nil for a clean
// hangup, the preserved wire error otherwise.
func (n *Conn) Err() error {
	select {
	case <-n.done:
	default:
		return nil
	}
	if err := n.in.terminal(); err != nil && err != io.EOF {
		return err
	}
	return nil
}

// WaitStatus blocks until the dialogue is over and reports it
// process-style: status 0 for a clean hangup, 1 when the connection died
// with an error — the same convention virtual programs use.
func (n *Conn) WaitStatus() (int, error) {
	<-n.done
	if n.Err() != nil {
		return 1, nil
	}
	return 0, nil
}

// RemoteAddr reports the peer address.
func (n *Conn) RemoteAddr() net.Addr { return n.c.RemoteAddr() }

// inbox is the bounded queue of owned segments between a stream's
// producer and its reader, with the same level-triggered doorbell
// semantics as the virtual transport's memPipe: TryRead that never
// blocks, a notify callback rung (under mu) per queued segment and at
// finish, and producer backpressure once max bytes are queued. putSeg
// enqueues a leased segment whole, tryTake dequeues one whole, and the
// copying read/tryRead paths advance through segment fronts, releasing
// each segment to its pool as it drains.
type inbox struct {
	mu    sync.Mutex
	data  *sync.Cond
	space *sync.Cond
	max   int
	stats *metrics.IngestStats

	segs   []*Segment // segment queue; segs[head:] are live
	head   int
	total  int // queued payload bytes across segs
	segCap int // max queued segments (bounds memory for tiny reads)

	fin     bool  // no more bytes will ever arrive
	err     error // terminal disposition, valid once fin
	closed  bool  // read side torn down locally
	notify  func()
	spaceFn func() // poller re-arm hook, invoked outside mu
}

func (q *inbox) init(max, segSize int, stats *metrics.IngestStats) {
	if max < 1 {
		max = 1
	}
	q.max = max
	q.stats = stats
	q.segCap = max/segSize + 1
	if q.segCap < 2 {
		q.segCap = 2
	}
	q.data = sync.NewCond(&q.mu)
	q.space = sync.NewCond(&q.mu)
}

// putSeg queues a leased segment whole — ownership moves to the inbox, no
// copy — blocking while the inbox is full. On false the read side is gone;
// the segment has been returned to its pool and the producer should stop.
func (q *inbox) putSeg(g *Segment) bool {
	q.mu.Lock()
	for {
		if q.closed || q.fin {
			q.mu.Unlock()
			g.Release()
			return false
		}
		if q.total < q.max && len(q.segs)-q.head < q.segCap {
			break
		}
		q.space.Wait()
	}
	q.segs = append(q.segs, g)
	q.total += g.Len()
	q.stats.AddHandedOff(g.Len())
	q.data.Broadcast()
	if q.notify != nil {
		q.notify()
	}
	q.mu.Unlock()
	return true
}

// putCopy copies p into segments leased from pool and queues them,
// blocking while the inbox is full — the one copy a mux demux loop makes
// out of its frame buffer. On false the read side is gone and the rest of
// p is discarded.
func (q *inbox) putCopy(pool *SegmentPool, p []byte) bool {
	for len(p) > 0 {
		seg := pool.Get()
		k := copy(seg.buf, p)
		seg.n = k
		q.stats.AddCopied(k)
		if !q.putSeg(seg) {
			return false
		}
		p = p[k:]
	}
	return true
}

// hasRoom reports whether the producer may queue another segment — the
// poller's pre-read check, so a readiness loop serving many connections
// never blocks inside putSeg (a single producer per connection means room
// observed here cannot vanish before the put).
func (q *inbox) hasRoom() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return !q.closed && !q.fin && q.total < q.max && len(q.segs)-q.head < q.segCap
}

// copyOutLocked copies queued bytes into b, releasing segments as they
// drain, and returns the count. Caller holds mu.
func (q *inbox) copyOutLocked(b []byte) int {
	n := 0
	for n < len(b) && q.head < len(q.segs) {
		g := q.segs[q.head]
		k := copy(b[n:], g.Bytes())
		g.advance(k)
		n += k
		q.total -= k
		if g.Len() == 0 {
			q.segs[q.head] = nil
			q.head++
			g.Release()
		}
	}
	q.compactLocked()
	q.stats.AddCopied(n)
	return n
}

// compactLocked rewinds the segment queue once drained (and shifts a
// long-consumed prefix down) so the slice never grows without bound.
func (q *inbox) compactLocked() {
	if q.head == len(q.segs) {
		q.segs = q.segs[:0]
		q.head = 0
	} else if q.head > 32 {
		n := copy(q.segs, q.segs[q.head:])
		for i := n; i < len(q.segs); i++ {
			q.segs[i] = nil
		}
		q.segs = q.segs[:n]
		q.head = 0
	}
}

// spaceFreedLocked reports whether the poller's re-arm hook should run:
// a parked producer has room again. Caller holds mu; the hook itself must
// be invoked after unlocking.
func (q *inbox) spaceFreedLocked() bool {
	return q.spaceFn != nil && !q.closed && !q.fin &&
		q.total < q.max && len(q.segs)-q.head < q.segCap
}

// finish marks the stream over with its terminal disposition.
func (q *inbox) finish(err error) {
	q.mu.Lock()
	if !q.fin {
		q.fin = true
		q.err = err
	}
	q.data.Broadcast()
	q.space.Broadcast()
	if q.notify != nil {
		q.notify()
	}
	q.mu.Unlock()
}

// closeRead tears down the read side locally: pending bytes are dropped
// (segments back to their pool) and readers see a clean EOF, matching the
// virtual duplex's CloseRead.
func (q *inbox) closeRead() {
	q.mu.Lock()
	q.closed = true
	for i := q.head; i < len(q.segs); i++ {
		q.segs[i].Release()
		q.segs[i] = nil
	}
	q.segs, q.head, q.total = nil, 0, 0
	if !q.fin {
		q.fin = true
		q.err = io.EOF
	}
	q.data.Broadcast()
	q.space.Broadcast()
	if q.notify != nil {
		q.notify()
	}
	q.mu.Unlock()
}

func (q *inbox) read(b []byte) (int, error) {
	q.mu.Lock()
	for q.total == 0 {
		if q.fin {
			err := q.err
			q.mu.Unlock()
			if err == nil {
				err = io.EOF
			}
			return 0, err
		}
		q.data.Wait()
	}
	n := q.copyOutLocked(b)
	q.space.Broadcast()
	rearm := q.spaceFreedLocked()
	fn := q.spaceFn
	q.mu.Unlock()
	if rearm {
		fn()
	}
	return n, nil
}

func (q *inbox) tryRead(b []byte) (int, bool, error) {
	q.mu.Lock()
	if q.total == 0 {
		fin, err := q.fin, q.err
		q.mu.Unlock()
		if fin {
			if err == nil {
				err = io.EOF
			}
			return 0, true, err
		}
		return 0, false, nil
	}
	n := q.copyOutLocked(b)
	q.space.Broadcast()
	rearm := q.spaceFreedLocked()
	fn := q.spaceFn
	q.mu.Unlock()
	if rearm {
		fn()
	}
	return n, true, nil
}

// tryTake dequeues the front segment whole, moving its ownership to the
// caller. Same contract shape as tryRead.
func (q *inbox) tryTake() (*Segment, bool, error) {
	q.mu.Lock()
	if q.total == 0 {
		fin, err := q.fin, q.err
		q.mu.Unlock()
		if fin {
			if err == nil {
				err = io.EOF
			}
			return nil, true, err
		}
		return nil, false, nil
	}
	g := q.segs[q.head]
	q.segs[q.head] = nil
	q.head++
	q.total -= g.Len()
	q.compactLocked()
	q.space.Broadcast()
	rearm := q.spaceFreedLocked()
	fn := q.spaceFn
	q.mu.Unlock()
	if rearm {
		fn()
	}
	return g, true, nil
}

func (q *inbox) setNotify(fn func()) {
	q.mu.Lock()
	q.notify = fn
	q.mu.Unlock()
}

func (q *inbox) setSpaceFn(fn func()) {
	q.mu.Lock()
	q.spaceFn = fn
	q.mu.Unlock()
}

func (q *inbox) terminal() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}
