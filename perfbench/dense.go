package main

import (
	"context"
	"time"

	"chgraph"
	"chgraph/internal/engine"
	"chgraph/internal/hypergraph"
	"chgraph/internal/obs"
	"chgraph/internal/shard"
)

// dense-replay: PageRank on one WEB-recipe graph, alternating the ChGraph
// and Hygra engines on one Prepared. Every phase is all-active and ChGraph
// replays memoized chains after iteration 0, so host time is almost all
// simulator replay. A run is one pass over denseEngines. Five iterations
// keep a pass near half a second on a graph large enough that its simulated
// work varies little from seed to seed.
const (
	denseRecipe = "WEB"
	denseScale  = 0.06
)

var densePR = spec{alg: "PR", iters: 5}

var denseEngines = []chgraph.Engine{chgraph.ChGraph, chgraph.Hygra}

func runDense(ctx context.Context, p params) (*report, error) {
	rep := newReport()
	var cal calibration
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	cfg, err := recipe(denseRecipe, denseScale, p.seed)
	if err != nil {
		return nil, err
	}

	// Set-up, repeated; the last repetition's graph and artifacts are used.
	var (
		b     *hypergraph.Bipartite
		g     *chgraph.Hypergraph
		pre   *chgraph.Prepared
		setup []float64
	)
	for i := 0; i < setupReps; i++ {
		run := tr.newRun()
		settle()
		cal.sample()
		t := time.Now()
		if b, g, err = buildGraph(tr, run, cfg); err != nil {
			return nil, err
		}
		id := tr.begin(run, 0, 0, "oag.build")
		pre, err = chgraph.Prepare(ctx, g, chgraph.RunConfig{Workers: hostWorkers})
		tr.end(id)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	setupLayers(rep, tr.snapshot())

	// Reference pass (untimed): outcomes every later run must repeat, the
	// oracle check, and the deterministic per-pass totals.
	ref := make([]outcome, len(denseEngines))
	oracleOK := make([]bool, len(denseEngines))
	var edgesPerPass uint64
	want, exact := densePR.oracle(b)
	for i, e := range denseEngines {
		tap := &phaseTap{}
		res, err := chgraph.Run(g, densePR.alg, chgraph.RunConfig{Engine: e, Iterations: densePR.iters, Prepared: pre, Workers: hostWorkers, Observer: tap})
		if err != nil {
			return nil, err
		}
		ref[i] = resultOutcome(res)
		edgesPerPass += tap.run.EdgesProcessed
		rep.values["sim_cycles"] += float64(res.Cycles)
		rep.values["dram_accesses"] += float64(res.MemAccesses)
		if err := checkValues(res.VertexValues, want, exact); err != nil {
			rep.fail("dense-replay %v %v: %v", densePR, e, err)
		} else {
			oracleOK[i] = true
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
		for i, e := range denseEngines {
			c0, t0 := cpuTime(), time.Now()
			res, err := chgraph.Run(g, densePR.alg, chgraph.RunConfig{Engine: e, Iterations: densePR.iters, Prepared: pre, Workers: hostWorkers})
			wall += time.Since(t0)
			cpu += cpuTime() - c0
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.fail("dense-replay %v %v: %v", densePR, e, err)
				continue
			}
			if got := resultOutcome(res); got != ref[i] || !oracleOK[i] {
				rep.failed++
				if got != ref[i] {
					rep.fail("dense-replay %v did not repeat: %v, first run %v", e, got, ref[i])
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
		if err := denseTraced(ctx, p, tr, rep, b, ref, walls); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// denseTraced repeats the measured window with every engine call wrapped in
// a span: the runs go through shard.RunBarrier at K=1 over spanBackend,
// which must reproduce the untraced chgraph.Run outcomes bit for bit.
func denseTraced(ctx context.Context, p params, tr *tracer, rep *report, b *hypergraph.Bipartite, ref []outcome, untraced []float64) error {
	a, err := shard.Partition(b, 1, shard.PolicyRange, 0)
	if err != nil {
		return err
	}
	pt, err := shard.Materialize(b, a, hostWorkers)
	if err != nil {
		return err
	}
	eo := engine.Options{Workers: hostWorkers}.WithDefaults()
	prep := engine.PrepareParallel(pt.Shards[0].G, eo.Sys.Cores, eo.WMin, hostWorkers)

	var (
		walls          []float64
		stitch, replay time.Duration
		phases         int
		last           []obs.RunSnapshot
	)
	wstart := time.Since(tr.t0)
	start := time.Now()
	for window(start, p.seconds, len(walls), minPasses) {
		var wall time.Duration
		last = last[:0]
		for i, e := range denseEngines {
			tap := &phaseTap{}
			o := eo
			o.Kind, o.Prep, o.Observer = e, prep, tap
			run := tr.newRun()
			t0 := time.Now()
			root := tr.begin(run, 0, 0, "run")
			bk, err := newSpanBackend(ctx, pt.Shards[0], o, tr, run, root)
			if err != nil {
				return err
			}
			res, err := shard.RunBarrier(ctx, pt, densePR.algorithm(), []shard.Backend{bk}, shard.BarrierOptions{Workers: hostWorkers, Observer: tap})
			tr.end(root)
			wall += time.Since(t0)
			if err != nil {
				return err
			}
			got := engineOutcome(res.Result)
			if got != ref[i] {
				rep.fail("dense-replay traced %v differs from the untraced run: %v, untraced %v", e, got, ref[i])
			}
			stitch += tap.stitch
			replay += tap.sim
			phases += tap.phases
			last = append(last, tap.run)
		}
		walls = append(walls, ms(wall))
	}
	wall := time.Since(tr.t0) - wstart
	spans := spansSince(tr.snapshot(), wstart)
	if err := checkSelfTimes(spans, wall); err != nil {
		rep.fail("dense-replay trace: %v", err)
	}
	ss := indexSpans(spans)
	n := float64(len(walls))
	rep.values["engine.compile_ms"] = ss.total("engine.compile") / n
	rep.values["engine.apply_ms"] = ss.total("engine.apply") / n
	rep.values["engine.commit_ms"] = ss.total("engine.commit") / n
	rep.values["engine.stitch_ms"] = ms(stitch) / n
	rep.values["engine.phases"] = float64(phases) / n
	rep.values["sim.replay_ms"] = ms(replay) / n
	simLayers(rep, last, replay/time.Duration(len(walls)))
	if err := traceOverhead(rep, walls, untraced); err != nil {
		return err
	}
	probeLayers(tr, rep, b, prep)
	return writeSpans(spansPath("dense-replay", p.seed), tr.snapshot())
}
