package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one op
// share Op; Parent indexes the enclosing span of the same op (-1 = root).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const unresolved = -2

// opTrace collects the spans of the op running on one worker. A nil
// *opTrace records nothing, so untraced windows run the same op code.
type opTrace struct {
	base     time.Time
	op       int64
	spans    []span
	open     []int32
	commands int64 // Tcl command dispatches seen by the hook
}

func (t *opTrace) reset(op int64) {
	t.op = op
	t.spans = t.spans[:0]
	t.open = t.open[:0]
	t.commands = 0
}

// begin opens a span nested in the innermost open one.
func (t *opTrace) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: id, Parent: parent,
		Start: int64(time.Since(t.base))})
	t.open = append(t.open, id)
	return id
}

func (t *opTrace) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.base))
	t.open = t.open[:len(t.open)-1]
}

// closed records a span of length d that ends now, as the Tcl dispatch
// hook reports it; its parent is found by containment once the op ends,
// because nested dispatches complete before their callers.
func (t *opTrace) closed(name string, d time.Duration) {
	end := int64(time.Since(t.base))
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: int32(len(t.spans)),
		Parent: unresolved, Start: end - int64(d), End: end})
}

// resolve gives every closed span the smallest span that contains it.
func (t *opTrace) resolve() {
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != unresolved {
			continue
		}
		best, bestDur := int32(-1), int64(-1)
		for j := range t.spans {
			c := &t.spans[j]
			if j == i || c.Start > s.Start || c.End < s.End {
				continue
			}
			dur := c.End - c.Start
			// An equal interval is the caller only if it completed later.
			if dur == s.End-s.Start && j < i {
				continue
			}
			if best < 0 || dur < bestDur {
				best, bestDur = int32(j), dur
			}
		}
		s.Parent = best
	}
}

// layerOf maps a span name to its layer: the part before the first dot;
// the op's own span belongs to the benchmark.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return "bench"
}

// traceAgg accumulates what traced ops recorded on one worker.
type traceAgg struct {
	ops      int64
	opDur    []int64
	self     map[string]int64   // layer → self time summed over ops
	calls    map[string][]int64 // span name → durations
	commands int64              // Tcl command dispatches
	kept     []span
}

func newTraceAgg() *traceAgg {
	return &traceAgg{self: map[string]int64{}, calls: map[string][]int64{}}
}

// maxKeptSpans bounds the spans held for the span file; self times and
// call durations are aggregated for every op regardless.
const maxKeptSpans = 1 << 16

func (a *traceAgg) finish(t *opTrace, keep int) {
	t.resolve()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		dur := s.End - s.Start
		a.self[layerOf(s.Name)] += dur - child[i]
		if s.Parent < 0 {
			a.opDur = append(a.opDur, dur)
		} else {
			a.calls[s.Name] = append(a.calls[s.Name], dur)
		}
	}
	a.ops++
	a.commands += t.commands
	if len(a.kept)+len(t.spans) <= keep {
		a.kept = append(a.kept, t.spans...)
	}
}

func (a *traceAgg) merge(b *traceAgg) {
	a.ops += b.ops
	a.opDur = append(a.opDur, b.opDur...)
	for k, v := range b.self {
		a.self[k] += v
	}
	for k, v := range b.calls {
		a.calls[k] = append(a.calls[k], v...)
	}
	a.commands += b.commands
	if len(a.kept)+len(b.kept) <= maxKeptSpans {
		a.kept = append(a.kept, b.kept...)
	}
}

// callP returns the q-quantile of a span name's durations in µs (0 when
// the workload made no such call).
func (a *traceAgg) callP(name string, q float64) float64 {
	d := a.calls[name]
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return quantile(d, q) / 1e3
}

// selfUsPerOp is a layer's self time per op in µs.
func (a *traceAgg) selfUsPerOp(layer string) float64 {
	if a.ops == 0 {
		return 0
	}
	return float64(a.self[layer]) / float64(a.ops) / 1e3
}

// writeSpans writes the kept spans as JSON lines, headed by the run's
// identity.
func writeSpans(path string, head map[string]any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(head); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
