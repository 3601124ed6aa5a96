package experiments

import (
	"fmt"

	"repro/internal/load"
	"repro/internal/metrics"
)

// ShardScaling is experiment E17: how the engine holds up when one
// process multiplexes thousands of dialogues, and what the sharded
// scheduler buys over the seed's goroutine-per-session pump. The paper
// runs one interactive child per expect process; its modern descendants
// (CI farms, device fleets) want 10k. A pump per session costs a parked
// goroutine and a wakeup handoff each; the sharded scheduler
// (internal/core/shard.go) owns all sessions of a shard from one event
// loop, so session count stops being goroutine count.
//
// The sweep runs the load workbench (internal/load) at {1, 64, 1000,
// 10000} concurrent sessions under both schedulers with the same seeded
// dialogue mix, and reports inverse throughput (ns per dialogue =
// elapsed/dialogues), dialogues/sec, and the p99 wakeup-to-match tail.
// The acceptance bar: sharded at 10k sessions stays within 2x the
// per-dialogue cost of the goroutine baseline at its comfortable
// 64-session size. The 1k-session sharded p99 is guarded against the
// committed BENCH_4.json.
func ShardScaling() (Result, error) {
	const (
		shardCount = 8
		seed       = 1990 // the paper year; fixed so every run deals the same mix
	)
	sweep := []int{1, 64, 1000, 10000}
	modes := []struct {
		name   string
		shards int
	}{
		{"goroutine", 0},
		{"sharded", shardCount},
	}

	type cell struct {
		sessions int
		mode     string
		res      *load.Result
		nsPerD   float64
		p99NS    int64
	}
	var cells []cell

	for _, sessions := range sweep {
		// Scale the per-session budget so each column does comparable total
		// work instead of total work growing 10000x down the sweep.
		dialogues := 4000 / sessions
		if dialogues < 2 {
			dialogues = 2
		}
		for _, mode := range modes {
			prof := metrics.NewProfiler()
			res, err := load.Run(load.Config{
				Sessions:  sessions,
				Dialogues: dialogues,
				Shards:    mode.shards,
				Seed:      seed,
				Prof:      prof,
			})
			if err != nil {
				return Result{}, fmt.Errorf("e17 %s/%d sessions: %w", mode.name, sessions, err)
			}
			if res.Errors != 0 || res.Dropped != 0 {
				return Result{}, fmt.Errorf("e17 %s/%d sessions: %d errors, %d dropped",
					mode.name, sessions, res.Errors, res.Dropped)
			}
			c := cell{
				sessions: sessions,
				mode:     mode.name,
				res:      res,
				nsPerD:   float64(res.Elapsed.Nanoseconds()) / float64(res.Dialogues),
				p99NS:    res.Wakeup.P99NS,
			}
			cells = append(cells, c)
		}
	}

	find := func(sessions int, mode string) cell {
		for _, c := range cells {
			if c.sessions == sessions && c.mode == mode {
				return c
			}
		}
		return cell{}
	}

	t := &table{header: []string{"sessions", "scheduler", "dialogues", "ns/dialogue", "dlg/sec", "p99 wakeup", "peak queue"}}
	m := map[string]float64{}
	for _, c := range cells {
		peak := "—"
		if len(c.res.QueueDepthPeak) > 0 {
			max := 0
			for _, d := range c.res.QueueDepthPeak {
				if d > max {
					max = d
				}
			}
			peak = fmt.Sprintf("%d", max)
		}
		t.add(fmt.Sprintf("%d", c.sessions), c.mode,
			fmt.Sprintf("%d", c.res.Dialogues),
			fmt.Sprintf("%.0f", c.nsPerD),
			fmt.Sprintf("%.0f", c.res.DialoguesPerSec),
			fmt.Sprintf("%dns", c.p99NS),
			peak)
		key := fmt.Sprintf("%d_%s", c.sessions, c.mode)
		m["ns_per_dialogue_"+key] = c.nsPerD
		m["dialogues_per_sec_"+key] = c.res.DialoguesPerSec
	}
	m["p99_wakeup_ns_1000_sharded"] = float64(find(1000, "sharded").p99NS)

	baseline := find(64, "goroutine")
	extreme := find(10000, "sharded")
	ratio := extreme.nsPerD / baseline.nsPerD
	m["ratio_10k_sharded_vs_64_goroutine"] = ratio

	verdict := fmt.Sprintf("10k sharded sessions run at %.2fx the per-dialogue cost of the 64-session goroutine baseline (bar: 2x)", ratio)
	if ratio > 2 {
		verdict = fmt.Sprintf("OVER BAR: 10k sharded at %.2fx the 64-session goroutine baseline (bar: 2x)", ratio)
	}
	return Result{
		ID:    "E17",
		Title: "sharded scheduler scaling to 10k sessions",
		PaperClaim: `"expect is not a language for handling many processes at the same time" is the scaling ceiling ` +
			`§3.2's select lifts in kind; this measures lifting it in degree`,
		Table:   t.String(),
		Metrics: m,
		Verdict: verdict,
		Guards:  e17Guards,
	}, nil
}

// e17Guards: the 1k-session sharded p99 wakeup-to-match latency may
// regress at most 10% against the committed snapshot.
var e17Guards = []Guard{regressAtMost("p99_wakeup_ns_1000_sharded", 10, "BENCH_4.json")}
