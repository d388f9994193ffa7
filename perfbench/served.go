package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"chgraph"
	"chgraph/internal/hypergraph"
	"chgraph/internal/serve"
)

// served-mix: an open-loop, fixed-rate stream against an in-process
// serve.Server over HTTP. Tenants upload seed-generated datasets; /run
// requests pick a dataset by Zipf popularity and run beside periodic
// /mutate batches on one mid-sized dataset. There are 1.5× more datasets
// than prepared-artifact cache entries, so the cache both hits and misses.
var servedDatasets = []struct {
	recipe string
	scale  float64
}{
	{"FS", 0.01}, {"WEB", 0.01}, {"FS", 0.015}, {"WEB", 0.012}, {"FS", 0.02},
	{"WEB", 0.015}, {"FS", 0.01}, {"WEB", 0.01}, {"FS", 0.015},
}

const (
	servedMutated = 1 // index of the dataset /mutate batches target
	servedTenants = 3
	servedCache   = 6 // serve.Options.CacheEntries
	// servedRate is the open-loop send rate, about a third of the 110–120/s
	// closed-loop capacity measured with two connections on a two-CPU
	// machine: on a shared machine that loses CPU to its neighbours for
	// minutes at a time, a rate near half the capacity drives the queue
	// close to saturation and the tail latency off any bound.
	servedRate   = 40.0
	mutateEvery  = 10   // every tenth scheduled operation is a /mutate
	servedMinOps = 1120 // ≥1000 /run for p99 and ≥100 /mutate for p90
	servedPRIter = 3
	calibAround  = 10 // calibration samples before and after the window
	zipfS        = 0.7
)

var (
	servedAlgs    = []string{"BFS", "CC", "PR"}
	servedEngines = []string{"chgraph", "hygra"}
)

// servedData is one uploaded dataset.
type servedData struct {
	tenant, name string
	b            *hypergraph.Bipartite
	g            *chgraph.Hypergraph
	src          uint32 // BFS source
	blob         []byte // CHG1 upload body
}

// servedOp is one scheduled operation: a /run of (dataset, alg, engine) or,
// when batch >= 0, that /mutate batch.
type servedOp struct {
	ds, alg, engine int
	batch           int
	body            []byte
}

// batch is one seed-generated mutation: it removes as many hyperedges as
// it adds, so its ids stay valid whatever order batches are applied in.
type batch struct {
	add    [][]uint32
	remove []uint32
}

// servedResult is what one operation's response said.
type servedResult struct {
	run serve.RunResponse
	mut serve.MutateResponse
}

func runServed(ctx context.Context, p params) (*report, error) {
	rep := newReport()
	var cal calibration
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	lanes := min(hostWorkers, runtime.NumCPU())

	// Set-up, repeated: generate and build every dataset, start a server,
	// upload the datasets and build each one's artifacts once.
	var (
		data  []*servedData
		st    *servedStack
		setup []float64
		err   error
	)
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
		}
		run := tr.newRun()
		settle()
		cal.sample()
		t := time.Now()
		if data, err = makeServedData(tr, run, p.seed); err != nil {
			return nil, err
		}
		if st, err = startServed(ctx, nil, data, lanes); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	defer st.close()
	setupLayers(rep, tr.snapshot())

	ops, dues, batches, err := makeSchedule(rand.New(rand.NewSource(p.seed)), data, p.seconds)
	if err != nil {
		return nil, err
	}

	// Measured window, tracing off, between calibration samples (the open
	// loop cannot pause for them).
	settle()
	for i := 0; i < calibAround; i++ {
		cal.sample()
	}
	c0 := cpuTime()
	before := st.srv.Metrics()
	res, sends, wall := st.drive(ctx, ops, dues, lanes)
	cpu := cpuTime() - c0
	after := st.srv.Metrics()
	st.close()
	rep.values["rss_peak_mb"] = peakRSSMiB()
	for i := 0; i < calibAround; i++ {
		cal.sample()
	}
	scale := cal.scale(rep)
	rep.values["setup_s"] = median(setup) * scale

	v := newVerifier(data, batches)
	v.check(rep, ops, res, sends)
	if err := servedMetrics(rep, ops, res, sends, v, wall, cpu, scale); err != nil {
		return nil, err
	}
	serveCounters(rep, before, after)
	if p.trace {
		if err := servedTraced(ctx, p, tr, rep, data, batches, ops, dues, lanes, sends); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// makeServedData generates every dataset from the workload seed.
func makeServedData(tr *tracer, run uint64, seed int64) ([]*servedData, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*servedData, len(servedDatasets))
	for i, d := range servedDatasets {
		cfg, err := recipe(d.recipe, d.scale, rng.Int63())
		if err != nil {
			return nil, err
		}
		b, g, err := buildGraph(tr, run, cfg)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			return nil, err
		}
		out[i] = &servedData{
			tenant: fmt.Sprintf("t%d", i%servedTenants), name: fmt.Sprintf("d%d", i),
			b: b, g: g, src: pickSources(b, rng, 1)[0], blob: buf.Bytes(),
		}
	}
	return out, nil
}

// makeBatches draws the mutation batches for d: each removes ~1% of the
// hyperedges and adds as many, each added one a perturbed copy of an
// original hyperedge so that it overlaps the graph as real ones do.
func makeBatches(rng *rand.Rand, d *servedData, n int) []batch {
	base := pinLists(d.b)
	size := max(4, len(base)/100)
	out := make([]batch, n)
	for i := range out {
		picked := map[uint32]bool{}
		for len(out[i].remove) < size {
			h := uint32(rng.Intn(len(base)))
			if !picked[h] {
				picked[h] = true
				out[i].remove = append(out[i].remove, h)
			}
		}
		for k := 0; k < size; k++ {
			src := base[rng.Intn(len(base))]
			pins := append([]uint32(nil), src...)
			for j := range pins {
				if rng.Intn(4) == 0 {
					pins[j] = uint32(rng.Int63n(int64(d.b.NumVertices())))
				}
			}
			out[i].add = append(out[i].add, sortedUnique(pins))
		}
	}
	return out
}

// sortedUnique sorts xs in place and drops repeats.
func sortedUnique(xs []uint32) []uint32 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// makeSchedule lays out the open-loop stream: one operation every
// 1/servedRate seconds for the window (at least servedMinOps), every
// mutateEvery-th a /mutate of the next batch, the rest /run requests.
func makeSchedule(rng *rand.Rand, data []*servedData, seconds float64) ([]servedOp, []time.Duration, []batch, error) {
	n := max(int(math.Ceil(servedRate*seconds)), servedMinOps)
	batches := makeBatches(rng, data[servedMutated], n/mutateEvery)
	// Dataset k is requested with probability proportional to 1/(k+1)^zipfS.
	cum := make([]float64, len(data))
	for k := range cum {
		cum[k] = 1 / math.Pow(float64(k+1), zipfS)
		if k > 0 {
			cum[k] += cum[k-1]
		}
	}
	ops := make([]servedOp, n)
	dues := make([]time.Duration, n)
	nb := 0
	for i := range ops {
		dues[i] = time.Duration(float64(i) / servedRate * float64(time.Second))
		var err error
		if i%mutateEvery == mutateEvery-1 {
			ops[i] = servedOp{ds: servedMutated, batch: nb}
			ops[i].body, err = json.Marshal(serve.MutateRequest{Dataset: data[servedMutated].name, Add: batches[nb].add, Remove: batches[nb].remove})
			nb++
		} else {
			ds := sort.SearchFloat64s(cum, rng.Float64()*cum[len(cum)-1])
			op := servedOp{ds: ds, alg: rng.Intn(len(servedAlgs)), engine: rng.Intn(len(servedEngines)), batch: -1}
			op.body, err = json.Marshal(runRequest(data[op.ds], op))
			ops[i] = op
		}
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return ops, dues, batches, nil
}

// runRequest is the /run body for op.
func runRequest(d *servedData, op servedOp) serve.RunRequest {
	req := serve.RunRequest{Dataset: d.name, Algorithm: servedAlgs[op.alg], Engine: servedEngines[op.engine], Workers: 1}
	switch req.Algorithm {
	case "PR":
		req.Iterations = servedPRIter
	case "BFS":
		req.Source = d.src
	}
	return req
}

// servedStack is one server with its client.
type servedStack struct {
	srv       *serve.Server
	ts        *httptest.Server
	transport *http.Transport
	client    *http.Client
	tr        *tracer
	data      []*servedData
}

// routeName names a server-side span by route.
func routeName(r *http.Request) string {
	switch {
	case r.URL.Path == "/run":
		return "serve/run"
	case r.URL.Path == "/mutate":
		return "serve/mutate"
	case strings.HasPrefix(r.URL.Path, "/datasets/") && r.Method == http.MethodPut:
		return "serve/upload"
	}
	return "serve/other"
}

// startServed starts a server (its handler wrapped in spans when tr is
// non-nil), uploads every dataset and runs one /run on each so its
// artifacts are built once.
func startServed(ctx context.Context, tr *tracer, data []*servedData, lanes int) (*servedStack, error) {
	srv := serve.NewServer(serve.Options{Workers: hostWorkers, CacheEntries: servedCache})
	transport := &http.Transport{MaxConnsPerHost: lanes, MaxIdleConnsPerHost: lanes}
	var h http.Handler = srv
	var rt http.RoundTripper = transport
	if tr != nil {
		h = &spanHandler{h: srv, tr: tr, lane: -1, name: routeName}
		rt = &rpcTap{next: transport, tr: tr, prefix: "client"}
	}
	st := &servedStack{srv: srv, ts: httptest.NewServer(h), transport: transport, client: &http.Client{Transport: rt}, tr: tr, data: data}
	run := tr.newRun()
	sctx := withSpan(ctx, spanRef{run: run})
	for _, d := range data {
		if _, err := st.do(sctx, http.MethodPut, "/datasets/"+d.tenant+"/"+d.name, d.tenant, d.blob, http.StatusCreated); err != nil {
			st.close()
			return nil, fmt.Errorf("upload %s/%s: %w", d.tenant, d.name, err)
		}
	}
	for i, d := range data {
		body, _ := json.Marshal(runRequest(d, servedOp{ds: i})) // plain struct, cannot fail
		if _, err := st.do(sctx, http.MethodPost, "/run", d.tenant, body, http.StatusOK); err != nil {
			st.close()
			return nil, fmt.Errorf("first build of %s: %w", d.name, err)
		}
	}
	return st, nil
}

// close stops the server; closing twice is harmless.
func (st *servedStack) close() {
	st.ts.Close()
	st.transport.CloseIdleConnections()
}

// do sends one request and returns the body of a reply with status want.
func (st *servedStack) do(ctx context.Context, method, path, tenant string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, st.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Tenant", tenant)
	if method == http.MethodPut {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, nil
}

// drive sends the schedule open loop and returns each operation's response,
// how it was sent, and the window's wall time.
func (st *servedStack) drive(ctx context.Context, ops []servedOp, dues []time.Duration, lanes int) ([]servedResult, []sent, time.Duration) {
	res := make([]servedResult, len(ops))
	start := time.Now()
	sends := openLoop(ctx, start, dues, lanes, func(ctx context.Context, i, lane int) error {
		op := ops[i]
		ctx = withSpan(ctx, spanRef{run: st.tr.newRun(), lane: lane})
		if op.batch >= 0 {
			d := st.data[servedMutated]
			out, err := st.do(ctx, http.MethodPost, "/mutate", d.tenant, op.body, http.StatusOK)
			if err != nil {
				return err
			}
			return json.Unmarshal(out, &res[i].mut)
		}
		out, err := st.do(ctx, http.MethodPost, "/run", st.data[op.ds].tenant, op.body, http.StatusOK)
		if err != nil {
			return err
		}
		return json.Unmarshal(out, &res[i].run)
	})
	return res, sends, time.Since(start)
}
