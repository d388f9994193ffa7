package bench

import (
	"sync"
	"testing"

	"chgraph/internal/obs"
)

// TestRunSingleflight races 16 callers at one cold cell and asserts the
// session simulated it exactly once: every caller must share the pointer,
// and the session metrics (which record one timeline per actual engine.Run)
// must hold a single record for the key. Before the per-key singleflight,
// two goroutines passing the post-semaphore re-check could both simulate
// the same key.
func TestRunSingleflight(t *testing.T) {
	metrics := obs.NewSessionMetrics()
	s := NewSession(Config{
		Scale:    0.1,
		Datasets: []string{"FS"},
		Algos:    []string{"BFS"},
		Metrics:  metrics,
	})
	spec := RunSpec{Dataset: "FS", Algo: "BFS", Kind: 0}

	const callers = 16
	var wg sync.WaitGroup
	out := make([]interface{}, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = s.Run(spec)
		}(i)
	}
	wg.Wait()

	for i := 1; i < callers; i++ {
		if out[i] != out[0] {
			t.Fatalf("caller %d got a distinct result pointer: duplicate simulation", i)
		}
	}
	if n := metrics.Runs(s.resolve(spec).key()); n != 1 {
		t.Fatalf("engine.Run executed %d times for one key, want exactly 1", n)
	}

	// A second wave against the now-warm cache must not re-run either.
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Run(spec)
		}()
	}
	wg.Wait()
	if n := metrics.Runs(s.resolve(spec).key()); n != 1 {
		t.Fatalf("cache hit re-ran the cell: %d runs recorded, want 1", n)
	}
}

// TestRunSingleflightManyKeys races callers over several distinct keys to
// exercise inflight bookkeeping under contention (run with -race).
func TestRunSingleflightManyKeys(t *testing.T) {
	metrics := obs.NewSessionMetrics()
	s := NewSession(Config{
		Scale:    0.1,
		Datasets: []string{"FS"},
		Algos:    []string{"BFS"},
		Parallel: 4,
		Metrics:  metrics,
	})
	specs := []RunSpec{
		{Dataset: "FS", Algo: "BFS", Kind: 0},
		{Dataset: "FS", Algo: "BFS", Kind: 1},
		{Dataset: "FS", Algo: "BFS", Kind: 2},
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		for _, spec := range specs {
			wg.Add(1)
			go func(spec RunSpec) {
				defer wg.Done()
				if s.Run(spec) == nil {
					t.Error("nil result")
				}
			}(spec)
		}
	}
	wg.Wait()
	for _, spec := range specs {
		if n := metrics.Runs(s.resolve(spec).key()); n != 1 {
			t.Fatalf("%s simulated %d times, want 1", s.resolve(spec).key(), n)
		}
	}
}
