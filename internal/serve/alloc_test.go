package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// TestServeCacheHitRunAllocs pins the steady-state /run allocation budget:
// once the prepared artifact is cached and the engine's reuse arenas are
// warm, a request should allocate only the response-shaped data (decode,
// run bookkeeping, encode) — not rebuild per-phase buffers. The cold request
// (artifact build + first run) is the scale bar: warm requests must allocate
// under a tenth of it, and under an absolute ceiling that a regression to
// per-phase rebuilding would blow through immediately.
func TestServeCacheHitRunAllocs(t *testing.T) {
	srv := NewServer(Options{QueueDepth: 4, Workers: 1})

	req := RunRequest{Dataset: "OK", Scale: 0.02, Algorithm: "PR", Engine: "chgraph", Cores: 4, Iterations: 3}
	body, _ := json.Marshal(req)
	do := func() {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body))
		srv.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}

	measure := func(runs int) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			do()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(runs)
	}

	cold := measure(1) // artifact build + first run, cold arenas
	for i := 0; i < 3; i++ {
		do() // warm the worker's run path and the engine arena
	}
	warm := measure(8)

	t.Logf("cold request: %.0f allocs, warm cache-hit request: %.0f allocs", cold, warm)
	if warm >= cold/10 {
		t.Errorf("warm cache-hit request allocates %.0f objects, want < 10%% of the cold request's %.0f", warm, cold)
	}
	// Absolute ceiling with generous headroom over the measured steady state
	// (~150 objects: request decode, run bookkeeping, response encode);
	// per-phase buffer rebuilding costs thousands of objects per request.
	// The race runtime allocates on its own account (500–750 objects per
	// warm request), so under -race only the relative bound above holds.
	if !raceEnabled && warm > 500 {
		t.Errorf("warm cache-hit request allocates %.0f objects, want <= 500", warm)
	}
}
