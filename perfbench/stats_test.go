package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
		{100, 0.9, true, 90},
		{99, 0.9, false, 0},
		{20, 0.5, true, 10},
		{19, 0.5, false, 0},
		{30, 0.66, true, 20},
		{29, 0.66, false, 0},
	} {
		v, n, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || n != c.n || (ok && v != c.want) {
			t.Errorf("percentile(%d samples, %v) = %v, %d, %v; want %v, %d, %v", c.n, c.q, v, n, ok, c.want, c.n, c.ok)
		}
	}
}

func TestFailuresCountOverTheLimit(t *testing.T) {
	// 1000 requests of 1 ms each, 11 of which failed: more than 1% missed
	// any limit, so p99 must read as missed too.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 11; i++ {
		xs[i*90] = math.Inf(1)
	}
	if v, _, ok := percentile(xs, 0.99); !ok || !math.IsInf(v, 1) {
		t.Fatalf("p99 with 11 failures in 1000 = %v (ok %v), want +Inf", v, ok)
	}
	ops := []servedOp{{batch: -1}, {batch: -1}, {batch: 0}}
	sends := []sent{{latency: time.Millisecond}, {latency: time.Millisecond, err: errTest}, {err: errTest}}
	runs, muts := latencies(ops, sends)
	if runs[0] != 1 || !math.IsInf(runs[1], 1) || !math.IsInf(muts[0], 1) {
		t.Fatalf("latencies = %v, %v; failed operations must be +Inf", runs, muts)
	}
}

func TestSelfTimesSubtractTheUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Lane: 0, Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Lane: 0, Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Lane: 1, Start: 30 * ms, End: 60 * ms}, // overlaps 2
		{ID: 4, Parent: 3, Lane: 1, Start: 35 * ms, End: 45 * ms},
		{ID: 5, Parent: 1, Lane: 0, Start: 90 * ms, End: 120 * ms}, // runs past its parent
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]time.Duration{1: 40 * ms, 2: 30 * ms, 3: 20 * ms, 4: 10 * ms, 5: 30 * ms} {
		if self[id] != want {
			t.Errorf("self(%d) = %v, want %v", id, self[id], want)
		}
	}
	if err := checkSelfTimes(spans, 100*ms); err != nil {
		t.Errorf("lanes within the wall rejected: %v", err)
	}
	if err := checkSelfTimes(spans, 90*ms); err == nil {
		t.Error("lane 0 sums to 100ms of self time, yet a 90ms wall was accepted")
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		table  map[string]string
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.listed) != len(c.table) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program reports %d", len(c.listed), len(c.table))
		}
		for _, m := range c.listed {
			if c.table[m.Name] != m.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, program unit %q", m.Name, m.Unit, c.table[m.Name])
			}
		}
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}
