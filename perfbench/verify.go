package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"chgraph"
	"chgraph/internal/engine"
	"chgraph/internal/hypergraph"
	"chgraph/internal/obs"
	"chgraph/internal/serve"
)

// refKey names one served computation: a (dataset, algorithm, engine) spec
// at an artifact generation.
type refKey struct{ ds, alg, engine, gen int }

// refRun is a served computation redone directly through chgraph.Run.
type refRun struct {
	out  outcome
	snap obs.RunSnapshot
	sim  time.Duration // host time the engine reported for replay
}

// verifier recomputes served responses directly. Generation g of the
// mutated dataset is its upload with the batches the server reported as
// generations 1..g applied in that order, rebuilt from pin lists here — not
// through the program's incremental path.
type verifier struct {
	data    []*servedData
	batches []batch
	order   []int // order[g-1] is the batch the server applied as generation g
	refs    map[refKey]refRun

	// The mutated dataset's pin lists at generation gen, advanced as
	// requests are checked in generation order.
	lists [][]uint32
	gen   int
	g     *chgraph.Hypergraph
}

func newVerifier(data []*servedData, batches []batch) *verifier {
	return &verifier{data: data, batches: batches, refs: map[refKey]refRun{}}
}

// graph returns dataset ds at generation gen.
func (v *verifier) graph(ds, gen int) (*chgraph.Hypergraph, error) {
	if gen == 0 {
		return v.data[ds].g, nil
	}
	if ds != servedMutated || gen > len(v.order) {
		return nil, fmt.Errorf("dataset %s has no generation %d", v.data[ds].name, gen)
	}
	if v.lists == nil || gen < v.gen {
		v.lists, v.gen, v.g = pinLists(v.data[ds].b), 0, nil
	}
	for ; v.gen < gen; v.gen++ {
		v.lists, v.g = applyBatch(v.lists, v.batches[v.order[v.gen]]), nil
	}
	if v.g == nil {
		g, err := chgraph.NewHypergraph(v.data[ds].b.NumVertices(), v.lists)
		if err != nil {
			return nil, err
		}
		v.g = g
	}
	return v.g, nil
}

// applyBatch is the mutation semantics, restated: removed ids go,
// survivors keep their order, additions follow.
func applyBatch(lists [][]uint32, bt batch) [][]uint32 {
	gone := map[uint32]bool{}
	for _, h := range bt.remove {
		gone[h] = true
	}
	out := make([][]uint32, 0, len(lists)-len(gone)+len(bt.add))
	for h, pins := range lists {
		if !gone[uint32(h)] {
			out = append(out, pins)
		}
	}
	return append(out, bt.add...)
}

// ref returns the direct computation for k.
func (v *verifier) ref(k refKey) (refRun, error) {
	if r, ok := v.refs[k]; ok {
		return r, nil
	}
	g, err := v.graph(k.ds, k.gen)
	if err != nil {
		return refRun{}, err
	}
	req := runRequest(v.data[k.ds], servedOp{ds: k.ds, alg: k.alg, engine: k.engine})
	kind, err := chgraph.ParseEngine(req.Engine)
	if err != nil {
		return refRun{}, err
	}
	tap := &phaseTap{}
	res, err := chgraph.Run(g, req.Algorithm, chgraph.RunConfig{
		Engine: kind, Iterations: req.Iterations, Source: req.Source, Workers: hostWorkers, Observer: tap,
	})
	if err != nil {
		return refRun{}, err
	}
	r := refRun{out: resultOutcome(res), snap: tap.run, sim: tap.sim}
	v.refs[k] = r
	return r, nil
}

// check verifies every response of one window: /mutate generations are
// 1..n with no gaps, and every /run matches its direct computation at the
// generation it reports. Operations that errored or mismatched are counted
// failed.
func (v *verifier) check(rep *report, ops []servedOp, res []servedResult, sends []sent) {
	byGen := map[uint64]int{}
	for i, op := range ops {
		if op.batch >= 0 && sends[i].err == nil {
			byGen[res[i].mut.Generation] = op.batch
		}
	}
	v.order = v.order[:0]
	for g := uint64(1); ; g++ {
		bi, ok := byGen[g]
		if !ok {
			break
		}
		v.order = append(v.order, bi)
	}
	if len(v.order) != len(byGen) {
		rep.fail("served-mix: the %d /mutate responses do not number generations 1..%d", len(byGen), len(byGen))
	}

	// Requests are checked in generation order so each mutated graph is
	// rebuilt once.
	idx := make([]int, len(ops))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return res[idx[a]].run.Generation < res[idx[b]].run.Generation })
	for _, i := range idx {
		op := ops[i]
		rep.attempted++
		if err := sends[i].err; err != nil {
			rep.failed++
			rep.fail("served-mix op %d: %v", i, err)
			continue
		}
		if op.batch >= 0 {
			continue
		}
		got := res[i].run
		r, err := v.ref(refKey{op.ds, op.alg, op.engine, int(got.Generation)})
		if err != nil {
			rep.failed++
			rep.fail("served-mix op %d: %v", i, err)
			continue
		}
		if o := (outcome{got.Cycles, got.MemAccesses, got.Checksum}); o != r.out {
			rep.failed++
			rep.fail("served-mix op %d (%s %s on %s, generation %d): served %v, direct %v", i,
				servedAlgs[op.alg], servedEngines[op.engine], v.data[op.ds].name, got.Generation, o, r.out)
		}
	}
}

// latencies splits the window's latencies (ms from due time) into /run and
// /mutate samples; a failed operation is +Inf, over any limit.
func latencies(ops []servedOp, sends []sent) (runs, muts []float64) {
	for i, op := range ops {
		l := ms(sends[i].latency)
		if sends[i].err != nil {
			l = math.Inf(1)
		}
		if op.batch >= 0 {
			muts = append(muts, l)
		} else {
			runs = append(runs, l)
		}
	}
	return runs, muts
}

// servedMetrics fills the end-to-end metrics of one checked window, host
// times brought to the reference speed by scale, plus the load generator's
// own figures.
func servedMetrics(rep *report, ops []servedOp, res []servedResult, sends []sent, v *verifier, wall, cpu time.Duration, scale float64) error {
	runs, muts := latencies(ops, sends)
	p50, _, ok1 := percentile(runs, 0.5)
	p90, _, ok2 := percentile(runs, 0.9)
	p99, n, ok3 := percentile(runs, 0.99)
	m50, _, ok4 := percentile(muts, 0.5)
	m90, nm, ok5 := percentile(muts, 0.9)
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
		return fmt.Errorf("too few samples: %d /run, %d /mutate", n, nm)
	}
	rep.values["run_p50_ms"] = p50 * scale
	// The end-to-end tail is p90: a p99 over a thousand requests is set by
	// the few stalls a shared machine imposes in a window, and varies from
	// run to run by more than any bound. The p99 is reported per layer.
	rep.values["run_tail_ms"] = p90 * scale
	rep.values["serve.run_p99_ms"] = p99
	rep.values["serve.mutate_p50_ms"] = m50
	rep.values["serve.mutate_p90_ms"] = m90
	rep.values["cpu_ms_per_op"] = ms(cpu) / float64(len(ops)) * scale
	rep.values["ok_ratio"] = 1 - float64(rep.failed)/float64(rep.attempted)

	var edges uint64
	lags := make([]float64, len(sends))
	var wait time.Duration
	for i, op := range ops {
		lags[i] = ms(sends[i].lag)
		wait += sends[i].connWait
		if op.batch >= 0 || sends[i].err != nil {
			continue
		}
		r, err := v.ref(refKey{op.ds, op.alg, op.engine, int(res[i].run.Generation)})
		if err == nil {
			edges += r.snap.EdgesProcessed
		}
	}
	// Throughput of an open loop below capacity is the offered rate, not the
	// machine's speed, so it is not scaled.
	rep.values["edges_per_s"] = float64(edges) / wall.Seconds()
	if lag, _, ok := percentile(lags, 0.99); ok {
		rep.values["loadgen.lag_p99_ms"] = lag
	}
	rep.values["loadgen.conn_wait_ms"] = ms(wait) / float64(len(sends))

	// The fixed run list: every spec on every dataset as uploaded.
	var snaps []obs.RunSnapshot
	var replay time.Duration
	for ds := range v.data {
		for alg := range servedAlgs {
			for e := range servedEngines {
				r, err := v.ref(refKey{ds, alg, e, 0})
				if err != nil {
					return err
				}
				rep.values["sim_cycles"] += float64(r.out.cycles)
				rep.values["dram_accesses"] += float64(r.out.dram)
				snaps = append(snaps, r.snap)
				replay += r.sim
			}
		}
	}
	simLayers(rep, snaps, replay)
	rep.values["sim.replay_ms"] = ms(replay)
	return nil
}

// serveCounters fills the serving layer's counters over one window.
func serveCounters(rep *report, before, after serve.Snapshot) {
	hits := (after.CacheHits - before.CacheHits) + (after.CacheCoalesced - before.CacheCoalesced)
	if looked := hits + after.CacheMisses - before.CacheMisses; looked > 0 {
		rep.values["serve.cache_hit_ratio"] = float64(hits) / float64(looked)
	}
	rep.values["serve.cache_builds"] = float64(after.CacheBuilds - before.CacheBuilds)
	rep.values["serve.coalesced"] = float64(after.Coalesced - before.Coalesced)
	rep.values["serve.rejected"] = float64(after.Rejected - before.Rejected + after.RateLimited - before.RateLimited)
}

// servedTraced repeats the window against a fresh server whose handler is
// wrapped in spans, through a client that records one span per request,
// then replays the window's mutations through the incremental path to time
// OAG maintenance.
func servedTraced(ctx context.Context, p params, tr *tracer, rep *report, data []*servedData, batches []batch, ops []servedOp, dues []time.Duration, lanes int, untraced []sent) error {
	st, err := startServed(ctx, tr, data, lanes)
	if err != nil {
		return err
	}
	uploads := indexSpans(tr.snapshot()).durations("serve/upload")
	wstart := time.Since(tr.t0)
	res, sends, wall := st.drive(ctx, ops, dues, lanes)
	st.close()

	// The traced responses are checked like the untraced ones; their
	// counts do not enter the end-to-end figures.
	v := newVerifier(data, batches)
	check := newReport()
	v.check(check, ops, res, sends)
	for _, msg := range check.problems {
		rep.fail("traced: %s", msg)
	}

	spans := spansSince(tr.snapshot(), wstart)
	if err := checkSelfTimes(spans, wall); err != nil {
		rep.fail("served-mix trace: %v", err)
	}
	ss := indexSpans(spans)
	h50, _, ok1 := percentile(ss.durations("serve/run"), 0.5)
	h99, _, ok2 := percentile(ss.durations("serve/run"), 0.99)
	m50, _, ok3 := percentile(ss.durations("serve/mutate"), 0.5)
	if !ok1 || !ok2 || !ok3 {
		return fmt.Errorf("too few traced handler spans")
	}
	rep.values["serve.run_handler_p50_ms"] = h50
	rep.values["serve.run_handler_p99_ms"] = h99
	rep.values["serve.mutate_handler_ms"] = m50
	rep.values["serve.upload_ms"] = median(uploads)
	tracedRuns, _ := latencies(ops, sends)
	untracedRuns, _ := latencies(ops, untraced)
	if err := traceOverhead(rep, tracedRuns, untracedRuns); err != nil {
		return err
	}

	// OAG maintenance, replayed in the order the traced server applied the
	// batches: ApplyBatch then UpdatePrep per generation.
	d := data[servedMutated]
	eo := engine.Options{Workers: hostWorkers}.WithDefaults()
	run := tr.newRun()
	id := tr.begin(run, 0, 0, "oag.build")
	t := time.Now()
	prep := engine.PrepareParallel(d.b, eo.Sys.Cores, eo.WMin, hostWorkers)
	rep.values["oag.build_ms"] = ms(time.Since(t))
	tr.end(id)
	probeLayers(tr, rep, d.b, prep)
	cur, cp := d.b, prep
	var updates []float64
	for _, bi := range v.order {
		t := time.Now()
		id := tr.begin(run, 0, 0, "hypergraph.apply")
		delta, err := cur.ApplyBatch(hypergraph.Batch{Add: batches[bi].add, Remove: batches[bi].remove})
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin(run, 0, 0, "oag.update")
		cp = engine.UpdatePrep(cp, delta)
		tr.end(id)
		updates = append(updates, ms(time.Since(t)))
		cur = delta.New
	}
	rep.values["oag.update_ms"] = median(updates)
	return writeSpans(spansPath("served-mix", p.seed), tr.snapshot())
}
