package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"chgraph"
)

func postMutate(t *testing.T, url string, req MutateRequest) (int, MutateResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/mutate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /mutate: %v", err)
	}
	defer resp.Body.Close()
	var mr MutateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatalf("decode mutate response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, mr
}

// TestServeMutateEndpoint: a mutation bumps the spec's artifact generation,
// subsequent runs execute on the new version, and the served result is
// bit-identical to applying the same batch through the library.
func TestServeMutateEndpoint(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	run := RunRequest{Dataset: "OK", Scale: 0.02, Algorithm: "PR", Engine: "chgraph", Cores: 4, Iterations: 3}
	code, r0 := postRun(t, ts.URL, run)
	if code != http.StatusOK || r0.Generation != 0 {
		t.Fatalf("pre-mutation run: code %d generation %d, want 200/0", code, r0.Generation)
	}

	mut := MutateRequest{
		Dataset: "OK", Scale: 0.02, Cores: 4,
		Add:    [][]uint32{{0, 1, 2}, {3, 4}},
		Remove: []uint32{0},
	}
	code, mr := postMutate(t, ts.URL, mut)
	if code != http.StatusOK {
		t.Fatalf("mutate: code %d", code)
	}
	if mr.Generation != 1 || mr.Added != 2 || mr.Removed != 1 {
		t.Fatalf("mutate response %+v, want generation 1, added 2, removed 1", mr)
	}

	code, r1 := postRun(t, ts.URL, run)
	if code != http.StatusOK || r1.Generation != 1 {
		t.Fatalf("post-mutation run: code %d generation %d, want 200/1", code, r1.Generation)
	}
	if r1.Checksum == r0.Checksum {
		t.Fatalf("checksum unchanged across a structural mutation")
	}

	// Bit-identity against the library path on the mutated hypergraph.
	g, err := chgraph.LoadDataset("OK", 0.02)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	cfg := chgraph.RunConfig{Engine: chgraph.ChGraph, Cores: 4, Iterations: 3}
	pre, err := chgraph.Prepare(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	ng, npre, err := pre.Apply(context.Background(), chgraph.Batch{Add: mut.Add, Remove: mut.Remove})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	cfg.Prepared = npre
	direct, err := chgraph.Run(ng, "PR", cfg)
	if err != nil {
		t.Fatalf("direct Run: %v", err)
	}
	if want := checksum(direct.VertexValues, direct.HyperedgeValues); r1.Checksum != want {
		t.Fatalf("served post-mutation checksum %s, direct %s", r1.Checksum, want)
	}
	if uint32(mr.NumHyperedges) != ng.NumHyperedges() {
		t.Fatalf("mutate reported %d hyperedges, library built %d", mr.NumHyperedges, ng.NumHyperedges())
	}

	snap := srv.Metrics()
	if snap.Mutations != 1 || snap.HyperedgesAdded != 2 || snap.HyperedgesRemoved != 1 {
		t.Fatalf("mutation counters %d/%d/%d, want 1/2/1", snap.Mutations, snap.HyperedgesAdded, snap.HyperedgesRemoved)
	}
}

// TestServeMutateFirstTouch: mutating a spec never run before builds its
// generation-0 artifact, then applies the batch on top.
func TestServeMutateFirstTouch(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, mr := postMutate(t, ts.URL, MutateRequest{
		Dataset: "OK", Scale: 0.02, Cores: 4, Add: [][]uint32{{0, 1}},
	})
	if code != http.StatusOK || mr.Generation != 1 {
		t.Fatalf("first-touch mutate: code %d generation %d, want 200/1", code, mr.Generation)
	}
	code, rr := postRun(t, ts.URL, RunRequest{
		Dataset: "OK", Scale: 0.02, Algorithm: "BFS", Engine: "chgraph", Cores: 4,
	})
	if code != http.StatusOK || rr.Generation != 1 {
		t.Fatalf("run after first-touch mutate: code %d generation %d, want 200/1", code, rr.Generation)
	}
	if snap := srv.Metrics(); snap.CacheBuilds != 1 {
		t.Fatalf("cache builds = %d, want 1 (mutation reuses the artifact path)", snap.CacheBuilds)
	}
}

// TestServeMutateDefaultSpelling: /mutate and /run resolve their specs the
// same way, so a mutation that spells the defaults out (cores 16, W_min 3)
// mutates the artifact a /run omitting them executes on — no second build,
// and the run sees the mutated generation.
func TestServeMutateDefaultSpelling(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, mr := postMutate(t, ts.URL, MutateRequest{
		Dataset: "OK", Scale: 0.02, Cores: 16, WMin: 3, Add: [][]uint32{{0, 1}},
	})
	if code != http.StatusOK || mr.Generation != 1 {
		t.Fatalf("mutate: code %d generation %d, want 200/1", code, mr.Generation)
	}
	code, rr := postRun(t, ts.URL, RunRequest{Dataset: "OK", Scale: 0.02, Algorithm: "BFS"})
	if code != http.StatusOK || rr.Generation != 1 || rr.PrepCache != "hit" {
		t.Fatalf("run with defaults omitted: code %d generation %d prep_cache %q, want 200/1/hit", code, rr.Generation, rr.PrepCache)
	}
	if snap := srv.Metrics(); snap.CacheBuilds != 1 {
		t.Fatalf("cache builds = %d, want 1", snap.CacheBuilds)
	}
}

// TestServeMutateErrors: malformed batches and specs fail with 4xx and count
// as failed mutations without installing a new version.
func TestServeMutateErrors(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code, _ := postMutate(t, ts.URL, MutateRequest{Dataset: "nope"}); code != http.StatusBadRequest {
		t.Fatalf("unknown dataset: code %d, want 400", code)
	}
	if code, _ := postMutate(t, ts.URL, MutateRequest{}); code != http.StatusBadRequest {
		t.Fatalf("missing dataset: code %d, want 400", code)
	}
	// Batch errors on a real spec: nonexistent remove, out-of-range pin.
	if code, _ := postMutate(t, ts.URL, MutateRequest{
		Dataset: "OK", Scale: 0.02, Cores: 4, Remove: []uint32{1 << 30},
	}); code != http.StatusBadRequest {
		t.Fatalf("nonexistent remove: code %d, want 400", code)
	}
	if code, _ := postMutate(t, ts.URL, MutateRequest{
		Dataset: "OK", Scale: 0.02, Cores: 4, Add: [][]uint32{{1 << 30}},
	}); code != http.StatusBadRequest {
		t.Fatalf("out-of-range pin: code %d, want 400", code)
	}
	resp, err := http.Get(ts.URL + "/mutate")
	if err != nil {
		t.Fatalf("GET /mutate: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /mutate: code %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/mutate", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatalf("POST bad JSON: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: code %d, want 400", resp.StatusCode)
	}
	// A first-touch build failure (bad shard policy) surfaces as 400 too.
	if code, _ := postMutate(t, ts.URL, MutateRequest{
		Dataset: "OK", Scale: 0.02, Shards: 2, ShardPolicy: "hashish", Add: [][]uint32{{0}},
	}); code != http.StatusBadRequest {
		t.Fatalf("bad shard policy: code %d, want 400", code)
	}

	// Failed batches must not have bumped the version.
	code, rr := postRun(t, ts.URL, RunRequest{
		Dataset: "OK", Scale: 0.02, Algorithm: "BFS", Engine: "chgraph", Cores: 4,
	})
	if code != http.StatusOK || rr.Generation != 0 {
		t.Fatalf("run after failed mutations: code %d generation %d, want 200/0", code, rr.Generation)
	}
	snap := srv.Metrics()
	if snap.Mutations != 0 || snap.MutationsFailed != 5 {
		t.Fatalf("mutations %d failed %d, want 0/5", snap.Mutations, snap.MutationsFailed)
	}
}

// TestServeMutateDraining: a draining server refuses mutations like runs.
func TestServeMutateDraining(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if code, _ := postMutate(t, ts.URL, MutateRequest{
		Dataset: "OK", Scale: 0.02, Add: [][]uint32{{0}},
	}); code != http.StatusServiceUnavailable {
		t.Fatalf("drained /mutate: code %d, want 503", code)
	}
}

// TestServeMutateVersionSwapRace is the tentpole's serving-layer concurrency
// contract: a stream of /run requests racing POST /mutate swaps must each
// complete on one consistent artifact version — every response whose
// Generation is g carries generation g's checksum, never a torn mix — and
// no goroutines leak once the dust settles. Run under -race this also
// certifies the copy-on-write swap itself.
func TestServeMutateVersionSwapRace(t *testing.T) {
	before := runtime.NumGoroutine()

	srv := NewServer(Options{QueueDepth: 64, Workers: 4})
	ts := httptest.NewServer(srv)

	run := RunRequest{Dataset: "OK", Scale: 0.02, Algorithm: "PR", Engine: "chgraph", Cores: 4, Iterations: 3}
	// Deterministic batches so the per-generation expectation is replayable
	// through the library below.
	batches := []chgraph.Batch{
		{Remove: []uint32{0}, Add: [][]uint32{{0, 1, 2}}},
		{Remove: []uint32{3}, Add: [][]uint32{{4, 5}, {6, 7, 8}}},
		{Add: [][]uint32{{1, 9}}},
	}

	const runners = 4
	const perRunner = 6
	type obsRun struct {
		gen      uint64
		checksum string
	}
	var (
		mu       sync.Mutex
		observed []obsRun
		wg       sync.WaitGroup
	)
	for i := 0; i < runners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perRunner; j++ {
				code, rr := postRun(t, ts.URL, run)
				if code != http.StatusOK {
					t.Errorf("racing /run: code %d", code)
					return
				}
				mu.Lock()
				observed = append(observed, obsRun{rr.Generation, rr.Checksum})
				mu.Unlock()
			}
		}()
	}
	for i, b := range batches {
		time.Sleep(10 * time.Millisecond)
		code, mr := postMutate(t, ts.URL, MutateRequest{
			Dataset: "OK", Scale: 0.02, Cores: 4, Add: b.Add, Remove: b.Remove,
		})
		if code != http.StatusOK || mr.Generation != uint64(i+1) {
			t.Fatalf("mutation %d: code %d generation %d", i, code, mr.Generation)
		}
	}
	wg.Wait()

	// Replay the generations through the library: generation g's runs must
	// all carry exactly generation g's checksum.
	g, err := chgraph.LoadDataset("OK", 0.02)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	cfg := chgraph.RunConfig{Engine: chgraph.ChGraph, Cores: 4, Iterations: 3}
	pre, err := chgraph.Prepare(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	want := make(map[uint64]string)
	for gen := uint64(0); ; gen++ {
		c := cfg
		c.Prepared = pre
		res, err := chgraph.Run(g, "PR", c)
		if err != nil {
			t.Fatalf("replay generation %d: %v", gen, err)
		}
		want[gen] = checksum(res.VertexValues, res.HyperedgeValues)
		if gen == uint64(len(batches)) {
			break
		}
		if g, pre, err = pre.Apply(context.Background(), batches[gen]); err != nil {
			t.Fatalf("replay Apply %d: %v", gen, err)
		}
	}
	seen := make(map[uint64]int)
	for _, o := range observed {
		exp, ok := want[o.gen]
		if !ok {
			t.Fatalf("run reported generation %d, only %d mutations applied", o.gen, len(batches))
		}
		if o.checksum != exp {
			t.Fatalf("generation %d run carried checksum %s, want %s (torn version)", o.gen, o.checksum, exp)
		}
		seen[o.gen]++
	}
	if len(observed) != runners*perRunner {
		t.Fatalf("observed %d runs, want %d", len(observed), runners*perRunner)
	}
	t.Logf("runs per generation: %v", seen)

	if snap := srv.Metrics(); snap.Mutations != uint64(len(batches)) {
		t.Fatalf("mutations = %d, want %d", snap.Mutations, len(batches))
	}

	ts.Close()
	http.DefaultClient.CloseIdleConnections()

	// Same leak discipline as the cancellation test: every request, flight
	// and mutation goroutine must unwind.
	deadline := time.Now().Add(60 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
