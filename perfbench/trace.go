package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from benchmark code. Spans
// of one run or request share Run; Parent is the span that caused this one
// (0 for a root). Lane names the sequential thread of control the span ran
// on — a load-generator connection or a distributed shard — so that self
// times can be checked against wall time per lane: spans on different
// lanes may overlap, spans on one lane never do.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Run    uint64        `json:"run"`
	Lane   int           `json:"lane"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer holds spans in memory until the benchmark exits. A nil *tracer is
// the untraced mode: every method is a no-op, so workload code calls it
// unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	runs  uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newRun returns a fresh run id.
func (t *tracer) newRun() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	return t.runs
}

// begin opens a span and returns its id (0 when untraced).
func (t *tracer) begin(run, parent uint64, lane int, name string) uint64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: uint64(len(t.spans) + 1), Parent: parent, Run: run, Lane: lane,
		Name: name, Start: now, End: -1,
	})
	return uint64(len(t.spans))
}

// end closes span id.
func (t *tracer) end(id uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// covered by the union of its children, keyed by span id.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		out[s.ID] = s.dur() - covered
	}
	return out
}

// checkSelfTimes verifies that on every lane the spans' self times sum to
// no more than wall, the interval the spans were recorded in.
func checkSelfTimes(spans []span, wall time.Duration) error {
	self := selfTimes(spans)
	perLane := map[int]time.Duration{}
	for _, s := range spans {
		perLane[s.Lane] += self[s.ID]
	}
	for lane, sum := range perLane {
		if sum > wall {
			return fmt.Errorf("lane %d: span self times sum to %v, more than the traced wall %v", lane, sum, wall)
		}
	}
	return nil
}

// spanSet indexes closed spans by name for metric extraction.
type spanSet map[string][]span

func indexSpans(spans []span) spanSet {
	ss := spanSet{}
	for _, s := range spans {
		ss[s.Name] = append(ss[s.Name], s)
	}
	return ss
}

// total returns the summed duration of every span named name, in ms.
func (ss spanSet) total(name string) float64 {
	var d time.Duration
	for _, s := range ss[name] {
		d += s.dur()
	}
	return ms(d)
}

// durations returns the durations of every span named name, in ms.
func (ss spanSet) durations(name string) []float64 {
	out := make([]float64, 0, len(ss[name]))
	for _, s := range ss[name] {
		out = append(out, ms(s.dur()))
	}
	return out
}

// writeSpans writes the spans as JSON to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// traceOverhead reports traced ÷ untraced median wall − 1.
func traceOverhead(rep *report, traced, untraced []float64) error {
	t, _, ok1 := percentile(traced, 0.5)
	u, _, ok2 := percentile(untraced, 0.5)
	if !ok1 || !ok2 {
		return fmt.Errorf("too few runs for the trace overhead (%d traced, %d untraced)", len(traced), len(untraced))
	}
	rep.values["obs.trace_overhead"] = t/u - 1
	return nil
}

// spansSince returns the spans that started at or after t.
func spansSince(spans []span, t time.Duration) []span {
	out := spans[:0:0]
	for _, s := range spans {
		if s.Start >= t {
			out = append(out, s)
		}
	}
	return out
}

// spansPath is where a traced run writes its spans: the build directory of
// the checkout the benchmark runs in.
func spansPath(workload string, seed int64) string {
	return fmt.Sprintf(".bench_build/spans/%s-seed%d.json", workload, seed)
}
