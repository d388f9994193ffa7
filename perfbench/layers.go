package main

import (
	"time"

	"chgraph"
	"chgraph/internal/bitset"
	"chgraph/internal/core"
	"chgraph/internal/engine"
	"chgraph/internal/gen"
	"chgraph/internal/hypergraph"
	"chgraph/internal/oag"
	"chgraph/internal/obs"
)

// buildGraph is the input pipeline every workload starts with: generate the
// recipe graph, then build the program's CSR from its pin lists.
func buildGraph(tr *tracer, run uint64, cfg gen.Config) (*hypergraph.Bipartite, *chgraph.Hypergraph, error) {
	id := tr.begin(run, 0, 0, "gen")
	b, err := gen.Generate(cfg)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin(run, 0, 0, "hypergraph.build")
	g, err := chgraph.NewHypergraph(b.NumVertices(), pinLists(b))
	tr.end(id)
	return b, g, err
}

// setupLayers fills the per-layer metrics of set-up from its spans:
// generation, CSR build and OAG build, each the median over set-up
// repetitions of the per-repetition total.
func setupLayers(rep *report, spans []span) {
	perRun := map[string]map[uint64]float64{}
	for _, s := range spans {
		if perRun[s.Name] == nil {
			perRun[s.Name] = map[uint64]float64{}
		}
		perRun[s.Name][s.Run] += ms(s.dur())
	}
	for name, metric := range map[string]string{
		"gen": "gen.ms", "hypergraph.build": "hypergraph.build_ms", "oag.build": "oag.build_ms",
	} {
		var xs []float64
		for _, v := range perRun[name] {
			xs = append(xs, v)
		}
		rep.values[metric] = median(xs)
	}
}

// probeLayers measures the layers every workload shares on its main graph
// b: raw adjacency bytes per edge, the compressed codec's encoded size, the
// OAGs' size and chain generation speed over them (all-active frontiers,
// chunk by chunk, as the engines call it).
func probeLayers(tr *tracer, rep *report, b *hypergraph.Bipartite, prep *engine.Prep) {
	run := tr.newRun()
	rep.values["hypergraph.bytes_per_edge"] = float64(b.AdjacencyBytes()) / float64(b.NumBipartiteEdges())
	id := tr.begin(run, 0, 0, "hypergraph.encode")
	rep.values["hypergraph.codec_bytes"] = float64(len(hypergraph.AppendCompressed(nil, b)))
	tr.end(id)

	rep.values["oag.edges"] = float64(prep.VOAG.NumEdges()) + float64(prep.HOAG.NumEdges())
	rep.values["oag.storage_bytes"] = float64(prep.OAGStorageBytes())

	const reps = 3
	var nodes int
	var d time.Duration
	for r := 0; r < reps; r++ {
		for _, side := range []struct {
			o      *oag.OAG
			chunks []hypergraph.Chunk
		}{{prep.VOAG, prep.VChunks}, {prep.HOAG, prep.HChunks}} {
			for _, c := range side.chunks {
				active := bitset.New(side.o.NumNodes())
				for i := c.Lo; i < c.Hi; i++ {
					active.Set(i)
				}
				id := tr.begin(run, 0, 0, "core.generate")
				t := time.Now()
				cs := core.Generate(side.o, c.Lo, c.Hi, active, core.DefaultDMax, nil)
				d += time.Since(t)
				tr.end(id)
				nodes += len(cs.Queue)
			}
		}
	}
	if nodes > 0 {
		rep.values["core.gen_ns_per_node"] = float64(d.Nanoseconds()) / float64(nodes)
	}
}

// simLayers fills the simulator and chain metrics from the run snapshots of
// one pass of a workload's run list and the host time the engine reported
// for simulator replay over that pass.
func simLayers(rep *report, runs []obs.RunSnapshot, replay time.Duration) {
	var t obs.RunSnapshot
	for _, r := range runs {
		t.L1Hits, t.L1Misses = t.L1Hits+r.L1Hits, t.L1Misses+r.L1Misses
		t.L2Hits, t.L2Misses = t.L2Hits+r.L2Hits, t.L2Misses+r.L2Misses
		t.L3Hits, t.L3Misses = t.L3Hits+r.L3Hits, t.L3Misses+r.L3Misses
		t.CoreCycles += r.CoreCycles
		t.MemStallCycles += r.MemStallCycles
		t.FifoStallCycles += r.FifoStallCycles
		t.ChainCount += r.ChainCount
		t.ChainGenCount += r.ChainGenCount
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rep.values["sim.l1_hit_ratio"] = ratio(t.L1Hits, t.L1Hits+t.L1Misses)
	rep.values["sim.l2_hit_ratio"] = ratio(t.L2Hits, t.L2Hits+t.L2Misses)
	rep.values["sim.l3_hit_ratio"] = ratio(t.L3Hits, t.L3Hits+t.L3Misses)
	rep.values["sim.mem_stall_frac"] = ratio(t.MemStallCycles, t.CoreCycles)
	// FIFO stalls are summed over every agent (cores, chain generators,
	// prefetchers) and core cycles over cores only, so this can exceed 1.
	rep.values["sim.fifo_stall_frac"] = ratio(t.FifoStallCycles, t.CoreCycles)
	rep.values["sim.ns_per_access"] = ratio(uint64(replay.Nanoseconds()), t.L1Hits+t.L1Misses+t.L2Hits+t.L2Misses)
	rep.values["core.chains_generated"] = float64(t.ChainGenCount)
	if t.ChainCount > 0 {
		rep.values["core.replay_ratio"] = 1 - ratio(t.ChainGenCount, t.ChainCount)
	}
}
