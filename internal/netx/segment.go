package netx

import (
	"sync"

	"repro/internal/metrics"
)

// A Segment is one pooled read buffer whose ownership travels with it:
// leased from a SegmentPool by whoever reads the socket (the per-shard
// readiness loop or the fallback reader goroutine), filled by exactly one
// read(2), queued whole in the connection's inbox, handed to the engine
// whole by TryReadOwned, adopted as gap-buffer backing by
// matchBuffer.AppendOwned, and finally Released back to the pool when the
// match window forgets it. At no point between the kernel and the pattern
// matcher are its bytes copied.
//
// The ownership rule is strict single-holder: whoever holds the *Segment
// may read and write it; Release hands it back and ends the lease. Using
// a segment after Release is a bug the pool makes loud — Release panics
// on a double release, and because released segments are immediately
// re-leased to other connections, any lingering reader shows up as a data
// race under -race.
type Segment struct {
	buf  []byte
	off  int // consumed prefix (advanced by copying TryRead)
	n    int // filled length
	pool *SegmentPool

	// leased guards against double release / use after return. Guarded by
	// the pool's mutex.
	leased bool
}

// Bytes returns the unconsumed payload. The slice aliases pooled memory:
// it is valid only while the lease is held, and never after Release.
func (g *Segment) Bytes() []byte { return g.buf[g.off:g.n] }

// Len returns the unconsumed payload length.
func (g *Segment) Len() int { return g.n - g.off }

// advance consumes k bytes from the front (the copying TryRead path).
func (g *Segment) advance(k int) { g.off += k }

// Release returns the segment to its pool, ending the lease. The caller
// must drop every reference to Bytes() first. Releasing twice panics:
// a double release would let two holders share one buffer, which is the
// exact corruption the ownership-transfer design exists to prevent.
func (g *Segment) Release() {
	if g == nil {
		return
	}
	g.pool.put(g)
}

// SegmentPool is a bounded free list of fixed-capacity read segments.
// It is deliberately a plain locked list rather than a sync.Pool: leases
// and reuses are counted for E19's guards, and a bounded list
// gives a hard memory ceiling instead of GC-pressure heuristics.
type SegmentPool struct {
	size  int
	stats *metrics.IngestStats

	mu     sync.Mutex
	free   []*Segment
	leased int // segments currently out on lease
	peak   int // high-water of leased: the observed working set
}

// poolFreeFloor is the minimum idle retention; beyond it a pool retains
// up to its own lease high-water mark, so retention tracks the observed
// working set: a 64-session run idles a few dozen segments, a
// 100k-session gateway run keeps its tens of thousands in circulation
// instead of re-allocating (and re-zeroing, and GC-scanning) 8 KiB per
// delivery. Total memory stays bounded by 2x the peak working set —
// peak leased out plus at most peak idle.
const poolFreeFloor = 256

// NewSegmentPool returns a pool of segments with the given capacity
// (bytes). stats, when non-nil, receives lease/reuse/alloc accounting.
func NewSegmentPool(size int, stats *metrics.IngestStats) *SegmentPool {
	if size < 1 {
		size = 4096
	}
	return &SegmentPool{size: size, stats: stats}
}

// Size returns the capacity of the segments this pool leases.
func (p *SegmentPool) Size() int { return p.size }

// Get leases a segment: empty, with the pool's full capacity available in
// its buf. The caller owns it until Release.
func (p *SegmentPool) Get() *Segment {
	p.mu.Lock()
	p.leased++
	if p.leased > p.peak {
		p.peak = p.leased
	}
	if k := len(p.free); k > 0 {
		g := p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		g.leased = true
		p.mu.Unlock()
		g.off, g.n = 0, 0
		p.stats.NoteLease(true)
		return g
	}
	p.mu.Unlock()
	p.stats.NoteLease(false)
	p.stats.AddAlloc()
	return &Segment{buf: make([]byte, p.size), pool: p, leased: true}
}

// Idle reports how many released segments the free list currently holds.
func (p *SegmentPool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

func (p *SegmentPool) put(g *Segment) {
	p.mu.Lock()
	if !g.leased {
		p.mu.Unlock()
		panic("netx: segment released twice (use after ownership return)")
	}
	g.leased = false
	p.leased--
	cap := p.peak
	if cap < poolFreeFloor {
		cap = poolFreeFloor
	}
	if len(p.free) < cap {
		p.free = append(p.free, g)
	}
	p.mu.Unlock()
}

// sharedPools hands out one process-wide pool per segment size, so every
// connection reading with the same chunk size draws from (and refills)
// the same free list. Stats on shared pools stay nil — per-run accounting
// belongs to pools the run owns (netx.Options.Pool).
var sharedPools struct {
	mu sync.Mutex
	m  map[int]*SegmentPool
}

func poolFor(size int) *SegmentPool {
	sharedPools.mu.Lock()
	defer sharedPools.mu.Unlock()
	if sharedPools.m == nil {
		sharedPools.m = make(map[int]*SegmentPool)
	}
	p := sharedPools.m[size]
	if p == nil {
		p = NewSegmentPool(size, nil)
		sharedPools.m[size] = p
	}
	return p
}
