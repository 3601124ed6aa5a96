package experiments

import (
	"fmt"

	"repro/internal/load"
	"repro/internal/metrics"
)

// ZeroCopyIngest is experiment E19: the E18 loopback socket sweep rerun
// on the zero-copy ingest path — pooled read segments whose ownership
// transfers whole from the socket reader through the connection inbox
// into the match buffer's backing, with the per-connection reader
// goroutines collapsed into one readiness loop per shard on linux.
//
// The reference is the copying data path it replaced — a reader
// goroutine per connection copying every chunk into a slab inbox, the
// scheduler copying it out into scratch, and the gap buffer copying it in
// again: three copies and roughly one allocation per chunk. That path is
// gone from the program; its 10k sharded cell, measured over the same
// expectd daemon with the same seeded dialogue schedule, is kept as the
// recorded constants below and printed as the "recorded" row.
//
// Guards on the Result: bytes-copied-per-dialogue and
// ingest-allocs-per-dialogue at 10k sharded sessions must each sit at
// least 40% below the recorded cell, and ingest goroutines at 10k
// connections (goroutine peak minus the 10k driver goroutines) must stay
// at most 256 — O(shards), not O(connections).
//
// Workers run with load.Config.NoWrap: a faultify-wrapped stream hides
// the transport capabilities and deliberately keeps a feeder goroutine,
// which the conformance equivalence matrix covers; here it would only
// blur both guards with a constant neither side is measuring.
func ZeroCopyIngest(repoRoot string) (Result, error) {
	const (
		shardCount = 8
		seed       = 1990
	)

	d, err := startExpectd(repoRoot)
	if err != nil {
		return Result{}, fmt.Errorf("e19: %w", err)
	}
	defer d.kill()

	addrs := &load.NetAddrs{Echo: d.addrs["echo"], Slow: d.addrs["slow"], Bursty: d.addrs["bursty"]}

	type cell struct {
		sessions int
		mode     string
		shards   int
		res      *load.Result
		nsPerD   float64
	}
	cells := []cell{
		{64, "goroutine", 0, nil, 0},
		{64, "sharded", shardCount, nil, 0},
		{1000, "goroutine", 0, nil, 0},
		{1000, "sharded", shardCount, nil, 0},
		{10000, "goroutine", 0, nil, 0},
		{10000, "sharded", shardCount, nil, 0},
	}

	for i := range cells {
		c := &cells[i]
		dialogues := 4000 / c.sessions
		if dialogues < 2 {
			dialogues = 2
		}
		res, err := load.Run(load.Config{
			Sessions:  c.sessions,
			Dialogues: dialogues,
			Shards:    c.shards,
			Seed:      seed,
			Net:       addrs,
			NoWrap:    true,
			Prof:      metrics.NewProfiler(),
		})
		if err != nil {
			return Result{}, fmt.Errorf("e19 %s/%d sessions: %w", c.mode, c.sessions, err)
		}
		if res.Errors != 0 || res.Dropped != 0 {
			return Result{}, fmt.Errorf("e19 %s/%d sessions: %d errors, %d dropped",
				c.mode, c.sessions, res.Errors, res.Dropped)
		}
		c.res = res
		c.nsPerD = float64(res.Elapsed.Nanoseconds()) / float64(res.Dialogues)
	}

	served, err := d.stop()
	if err != nil {
		return Result{}, fmt.Errorf("e19 shutdown: %w", err)
	}

	t := &table{header: []string{"sessions", "scheduler", "ingest", "copied B/dlg", "allocs/1k dlg", "goroutines", "ns/dialogue"}}
	m := map[string]float64{}
	for i := range cells {
		c := &cells[i]
		t.add(fmt.Sprintf("%d", c.sessions), c.mode, "zerocopy",
			fmt.Sprintf("%.0f", c.res.BytesCopiedPerDlg),
			fmt.Sprintf("%.1f", c.res.IngestAllocsPer1k),
			fmt.Sprintf("%d", c.res.GoroutinePeak),
			fmt.Sprintf("%.0f", c.nsPerD))
		key := fmt.Sprintf("%d_%s_zerocopy", c.sessions, c.mode)
		m["ns_per_dialogue_"+key] = c.nsPerD
		m["bytes_copied_per_dialogue_"+key] = c.res.BytesCopiedPerDlg
		m["ingest_allocs_per_1k_dialogues_"+key] = c.res.IngestAllocsPer1k
		m["goroutine_peak_"+key] = float64(c.res.GoroutinePeak)
		if total := c.res.BytesCopied + c.res.BytesHandedOff; total > 0 {
			m["handoff_share_pct_"+key] = 100 * float64(c.res.BytesHandedOff) / float64(total)
		}
	}
	t.add("10000", "sharded", "recorded",
		fmt.Sprintf("%.0f", copyingCopiedPerDlg),
		fmt.Sprintf("%.1f", copyingAllocsPer1k),
		fmt.Sprintf("%d", copyingGoroutinePeak),
		fmt.Sprintf("%.0f", copyingNsPerDlg))
	m["expectd_served_sessions"] = float64(served)

	zc := cells[len(cells)-1]
	copiedDrop := 100 * (1 - zc.res.BytesCopiedPerDlg/copyingCopiedPerDlg)
	allocDrop := 100 * (1 - zc.res.IngestAllocsPer1k/copyingAllocsPer1k)
	ingestGoro := float64(zc.res.GoroutinePeak - zc.sessions)
	m["bytes_copied_drop_pct_10k"] = copiedDrop
	m["ingest_allocs_drop_pct_10k"] = allocDrop
	m["ingest_goroutines_10k_sharded"] = ingestGoro
	if zc.res.SegmentLeases > 0 {
		m["segment_reuse_pct_10k"] = 100 * float64(zc.res.SegmentReuses) / float64(zc.res.SegmentLeases)
	}

	verdict := fmt.Sprintf(
		"at 10k sharded socket sessions, ownership transfer cuts copied bytes per dialogue by %.0f%% and ingest allocations by %.0f%% vs the recorded copying cell, with %.0f ingest goroutines above the 10k drivers (the copying path kept one reader per connection); expectd drained clean after %d sessions",
		copiedDrop, allocDrop, ingestGoro, served)
	return Result{
		ID:    "E19",
		Title: "zero-copy socket ingest via segment ownership transfer",
		PaperClaim: `the original expect moves every byte of child output through multiple ` +
			`buffers per read; this measures what pooled-buffer ownership transfer and a ` +
			`per-shard readiness loop save at 10k-connection scale`,
		Table:   t.String(),
		Metrics: m,
		Verdict: verdict,
		Guards:  e19Guards,
	}, nil
}

// The copying ingest path's 10k sharded cell, recorded in BENCH_6.json
// (sessions 10000, scheduler sharded, ingest legacy) before that path was
// deleted. They are constants, not read from the file at run time: every
// E19 run rewrites BENCH_6.json, which would erase the reference.
const (
	copyingCopiedPerDlg  = 1278.6444  // bytes copied per dialogue
	copyingAllocsPer1k   = 1388.8     // ingest allocations per 1k dialogues
	copyingNsPerDlg      = 65119.6547 // wall ns per dialogue
	copyingGoroutinePeak = 20006      // one reader goroutine per connection
)

// e19Guards: copied bytes and ingest allocations per dialogue at 10k
// sharded sessions must each drop at least 40% below the recorded copying
// cell, and ingest goroutines above the 10k drivers stay at most 256.
var e19Guards = []Guard{
	atLeast("bytes_copied_drop_pct_10k", 40),
	atLeast("ingest_allocs_drop_pct_10k", 40),
	atMost("ingest_goroutines_10k_sharded", 256),
}
