package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"time"

	"chgraph/internal/dist"
	"chgraph/internal/engine"
	"chgraph/internal/hypergraph"
	"chgraph/internal/obs"
	"chgraph/internal/shard"
)

// sparse-dist: BFS from sparseSources seeded sources, then CC, on one
// OK-recipe graph with the ChGraph engine, distributed over two in-process
// dist workers on loopback. Frontiers shrink and every chain is generated
// fresh; each run pays partitioning, sub-graph encoding, /prepare with the
// workers' OAG builds, and two RPCs per shard per phase. A run is one pass
// over the spec list. On OK graphs every BFS from the largest component
// takes the same number of iterations, so the seed changes the work little;
// on FS graphs the traversal depth varies with the seed.
const (
	sparseRecipe  = "OK"
	sparseScale   = 0.03
	sparseSources = 4
	distWorkers   = 2
)

// sparseEngine is the engine configuration of every sparse-dist run.
func sparseEngine() engine.Options {
	return engine.Options{Kind: engine.ChGraph, Workers: hostWorkers}
}

// workerPool is a set of dist workers served on loopback.
type workerPool struct {
	srvs  []*httptest.Server
	addrs []string
	lanes map[string]int // host:port → worker index
}

// startWorkers serves distWorkers fresh workers, each wrapped by wrap.
func startWorkers(wrap func(i int, h http.Handler) http.Handler) *workerPool {
	wp := &workerPool{lanes: map[string]int{}}
	for i := 0; i < distWorkers; i++ {
		w := dist.NewWorker()
		w.Workers = hostWorkers
		srv := httptest.NewServer(wrap(i, w))
		u, _ := url.Parse(srv.URL) // httptest URLs always parse
		wp.srvs = append(wp.srvs, srv)
		wp.addrs = append(wp.addrs, srv.URL)
		wp.lanes[u.Host] = i
	}
	return wp
}

func (wp *workerPool) close() {
	for _, s := range wp.srvs {
		s.Close()
	}
}

// distRun runs s on b distributed over the workers at addrs.
func distRun(ctx context.Context, b *hypergraph.Bipartite, s spec, addrs []string, client *http.Client, eo engine.Options) (*shard.Result, error) {
	return dist.RunCtx(ctx, b, s.algorithm(), dist.Options{Workers: addrs, Engine: eo, Client: client})
}

func runSparse(ctx context.Context, p params) (*report, error) {
	rep := newReport()
	var cal calibration
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	cfg, err := recipe(sparseRecipe, sparseScale, p.seed)
	if err != nil {
		return nil, err
	}
	plain := func(_ int, h http.Handler) http.Handler { return h }

	// Set-up, repeated: generate, build the CSR, start the workers.
	var (
		b     *hypergraph.Bipartite
		wp    *workerPool
		setup []float64
	)
	for i := 0; i < setupReps; i++ {
		if wp != nil {
			wp.close()
		}
		run := tr.newRun()
		settle()
		cal.sample()
		t := time.Now()
		if b, _, err = buildGraph(tr, run, cfg); err != nil {
			return nil, err
		}
		wp = startWorkers(plain)
		setup = append(setup, time.Since(t).Seconds())
	}
	defer wp.close()
	setupLayers(rep, tr.snapshot())

	specs := []spec{}
	for _, s := range pickSources(b, rand.New(rand.NewSource(p.seed)), sparseSources) {
		specs = append(specs, spec{alg: "BFS", src: s})
	}
	specs = append(specs, spec{alg: "CC"})

	transport := &http.Transport{MaxIdleConnsPerHost: distWorkers}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	// Reference pass (untimed): oracle values, the in-process two-shard run
	// every distributed run must match, and the per-pass totals.
	ref := make([]outcome, len(specs))
	oracleOK := make([]bool, len(specs))
	var edgesPerPass uint64
	for i, s := range specs {
		res, err := distRun(ctx, b, s, wp.addrs, client, sparseEngine())
		if err != nil {
			return nil, err
		}
		ref[i] = engineOutcome(res.Result)
		edgesPerPass += res.EdgesProcessed
		rep.values["sim_cycles"] += float64(res.Cycles)
		rep.values["dram_accesses"] += float64(res.MemTotal())
		want, exact := s.oracle(b)
		oracleOK[i] = true
		if err := checkValues(res.State.VertexVal, want, exact); err != nil {
			rep.fail("sparse-dist %v: %v", s, err)
			oracleOK[i] = false
		}
		local, err := shard.RunCtx(ctx, b, s.algorithm(), shard.Options{Shards: distWorkers, Engine: sparseEngine()})
		if err != nil {
			return nil, err
		}
		if lo := engineOutcome(local.Result); lo != ref[i] {
			rep.fail("sparse-dist %v: distributed %v, in-process two shards %v", s, ref[i], lo)
			oracleOK[i] = false
		}
	}

	// Measured window, tracing off. Each pass starts from a collected heap,
	// so the peak resident set does not depend on where the collector's
	// cycle fell.
	var walls []float64
	var cpu time.Duration
	start := time.Now()
	for window(start, p.seconds, len(walls), minPasses) {
		settle()
		cal.sample()
		var wall time.Duration
		for i, s := range specs {
			c0, t0 := cpuTime(), time.Now()
			res, err := distRun(ctx, b, s, wp.addrs, client, sparseEngine())
			wall += time.Since(t0)
			cpu += cpuTime() - c0
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.fail("sparse-dist %v: %v", s, err)
				continue
			}
			if got := engineOutcome(res.Result); got != ref[i] || !oracleOK[i] {
				rep.failed++
				if got != ref[i] {
					rep.fail("sparse-dist %v did not repeat: %v, first run %v", s, got, ref[i])
				}
			}
		}
		walls = append(walls, ms(wall))
	}
	rep.values["rss_peak_mb"] = peakRSSMiB()
	if err := passMetrics(rep, walls, cpu, edgesPerPass, setup, cal.scale(rep)); err != nil {
		return nil, err
	}
	if p.trace {
		if err := sparseTraced(ctx, p, tr, rep, b, specs, ref, walls); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// sparseTraced repeats the measured window against fresh workers whose
// handlers are wrapped in spans, through a client whose RoundTripper times
// and counts every RPC, with the engine's per-phase snapshots forwarded
// from the workers.
func sparseTraced(ctx context.Context, p params, tr *tracer, rep *report, b *hypergraph.Bipartite, specs []spec, ref []outcome, untraced []float64) error {
	wp := startWorkers(func(i int, h http.Handler) http.Handler {
		return &spanHandler{h: h, tr: tr, lane: i, name: func(r *http.Request) string { return "dist.handler" + r.URL.Path }}
	})
	defer wp.close()
	transport := &http.Transport{MaxIdleConnsPerHost: distWorkers}
	defer transport.CloseIdleConnections()
	wire := &rpcTap{next: transport, tr: tr, prefix: "dist.rpc", lanes: wp.lanes}
	client := &http.Client{Transport: wire}

	var (
		walls  []float64
		phases phaseTap // summed over the window
		last   []obs.RunSnapshot
		rf     float64
	)
	wstart := time.Since(tr.t0)
	start := time.Now()
	for window(start, p.seconds, len(walls), minPasses) {
		var wall time.Duration
		last = last[:0]
		for i, s := range specs {
			tap := &phaseTap{}
			eo := sparseEngine()
			eo.Observer = tap
			run := tr.newRun()
			t0 := time.Now()
			root := tr.begin(run, 0, 0, "run")
			res, err := distRun(withSpan(ctx, spanRef{run: run, parent: root}), b, s, wp.addrs, client, eo)
			tr.end(root)
			wall += time.Since(t0)
			if err != nil {
				return err
			}
			if got := engineOutcome(res.Result); got != ref[i] {
				rep.fail("sparse-dist traced %v differs from the untraced run: %v, untraced %v", s, got, ref[i])
			}
			last = append(last, tap.run)
			rf = res.ReplicationFactor
			phases.add(tap)
		}
		walls = append(walls, ms(wall))
	}
	wall := time.Since(tr.t0) - wstart
	spans := spansSince(tr.snapshot(), wstart)
	if err := checkSelfTimes(spans, wall); err != nil {
		rep.fail("sparse-dist trace: %v", err)
	}
	ss := indexSpans(spans)
	n := float64(len(walls))

	rep.values["engine.compile_ms"] = ms(phases.compile) / n
	rep.values["engine.apply_ms"] = ms(phases.apply) / n
	rep.values["engine.stitch_ms"] = ms(phases.stitch) / n
	rep.values["engine.commit_ms"] = ms(phases.stitch+phases.sim) / n
	rep.values["engine.phases"] = float64(phases.phases) / n
	rep.values["sim.replay_ms"] = ms(phases.sim) / n
	simLayers(rep, last, phases.sim/time.Duration(len(walls)))

	for name, path := range map[string]string{"dist.prepare_ms": "/prepare", "dist.step_ms": "/step", "dist.commit_ms": "/commit"} {
		v, _, ok := percentile(ss.durations("dist.rpc"+path), 0.5)
		if !ok {
			return fmt.Errorf("too few %s RPCs traced", path)
		}
		rep.values[name] = v
	}
	var handlers []float64
	for _, path := range []string{"/prepare", "/step", "/commit", "/finish", "/healthz"} {
		handlers = append(handlers, ss.durations("dist.handler"+path)...)
	}
	if v, _, ok := percentile(handlers, 0.5); ok {
		rep.values["dist.handler_ms"] = v
	}
	rpcs, failures, bytes := wire.counts()
	rep.values["dist.rpcs"] = float64(rpcs) / n
	rep.values["dist.wire_bytes"] = float64(bytes) / n
	rep.values["dist.retries"] = float64(failures)
	rep.values["shard.replication_factor"] = rf
	rep.values["shard.skew_ms"] = commitSkew(ss["dist.handler/commit"]) / n
	if err := traceOverhead(rep, walls, untraced); err != nil {
		return err
	}

	// Layer probes outside the window: partitioning, and the unsharded
	// OAGs for the shared layer metrics.
	var parts []float64
	for i := 0; i < setupReps; i++ {
		run := tr.newRun()
		id := tr.begin(run, 0, 0, "shard.partition")
		t := time.Now()
		_, err := shard.Partition(b, distWorkers, shard.PolicyRange, 0)
		parts = append(parts, ms(time.Since(t)))
		tr.end(id)
		if err != nil {
			return err
		}
	}
	rep.values["shard.partition_ms"] = median(parts)
	eo := sparseEngine().WithDefaults()
	run := tr.newRun()
	id := tr.begin(run, 0, 0, "oag.build")
	t := time.Now()
	prep := engine.PrepareParallel(b, eo.Sys.Cores, eo.WMin, hostWorkers)
	rep.values["oag.build_ms"] = ms(time.Since(t))
	tr.end(id)
	probeLayers(tr, rep, b, prep)
	return writeSpans(spansPath("sparse-dist", p.seed), tr.snapshot())
}

// commitSkew pairs the two workers' /commit handler spans phase by phase
// (the i-th commit of each worker within a run) and sums how far apart
// their durations are: the time the faster shard waits at the barrier.
func commitSkew(commits []span) float64 {
	type key struct {
		run  uint64
		lane int
	}
	byLane := map[key][]span{}
	runs := map[uint64]bool{}
	for _, s := range commits {
		k := key{s.Run, s.Lane}
		byLane[k] = append(byLane[k], s)
		runs[s.Run] = true
	}
	var total float64
	for run := range runs {
		a, b := byLane[key{run, 0}], byLane[key{run, 1}]
		for i := 0; i < len(a) && i < len(b); i++ {
			d := ms(a[i].dur()) - ms(b[i].dur())
			if d < 0 {
				d = -d
			}
			total += d
		}
	}
	return total
}
