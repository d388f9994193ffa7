package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"chgraph"
	"chgraph/internal/algorithms"
	"chgraph/internal/engine"
	"chgraph/internal/gen"
	"chgraph/internal/hypergraph"
	"chgraph/internal/obs"
)

// hostWorkers is the host parallelism every run is given: the benchmark
// machine has two CPUs, and simulated results do not depend on it.
const hostWorkers = 2

// recipe returns the named paper recipe at scale with the workload seed in
// place of the recipe's own, so the seed alone selects the inputs.
func recipe(name string, scale float64, seed int64) (gen.Config, error) {
	cfg, err := gen.Recipe(name, scale)
	if err != nil {
		return cfg, err
	}
	cfg.Seed = seed
	return cfg, nil
}

// pinLists returns g's per-hyperedge pin lists (aliasing g's storage).
func pinLists(g *hypergraph.Bipartite) [][]uint32 {
	out := make([][]uint32, g.NumHyperedges())
	for h := range out {
		out[h] = g.IncidentVertices(uint32(h))
	}
	return out
}

// pickSources draws n BFS sources from rng, uniformly among the vertices of
// g's largest connected component, so that every traversal covers the
// graph's body instead of a small island.
func pickSources(g *hypergraph.Bipartite, rng *rand.Rand, n int) []uint32 {
	labels := algorithms.OracleCC(g)
	size := map[float64]int{}
	for _, l := range labels {
		size[l]++
	}
	giant := labels[0]
	for l, c := range size {
		if c > size[giant] || (c == size[giant] && l < giant) {
			giant = l
		}
	}
	var members []uint32
	for v, l := range labels {
		if l == giant {
			members = append(members, uint32(v))
		}
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = members[rng.Intn(len(members))]
	}
	return out
}

// checksum digests final value arrays exactly as the serving layer's
// response checksum does: SHA-256 over each array's length and then its
// values' little-endian float64 bits, vertices first.
func checksum(vv, hv []float64) string {
	h := sha256.New()
	var buf [8]byte
	put := func(bits uint64) {
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, vals := range [][]float64{vv, hv} {
		put(uint64(len(vals)))
		for _, v := range vals {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// outcome is what must repeat bit for bit between runs of one spec:
// simulated cycles, off-chip line transfers and the final values.
type outcome struct {
	cycles, dram uint64
	sum          string
}

// resultOutcome is the outcome of a chgraph.Run.
func resultOutcome(r *chgraph.Result) outcome {
	return outcome{r.Cycles, r.MemAccesses, checksum(r.VertexValues, r.HyperedgeValues)}
}

// engineOutcome is the outcome of a run driven below the chgraph API.
func engineOutcome(r *engine.Result) outcome {
	return outcome{r.Cycles, r.MemTotal(), checksum(r.State.VertexVal, r.State.HyperedgeVal)}
}

func (o outcome) String() string {
	return fmt.Sprintf("cycles=%d dram=%d values=%.12s", o.cycles, o.dram, o.sum)
}

// checkValues compares vals against an oracle: exactly, or within the
// relative tolerance the engine tests use for PageRank.
func checkValues(vals, want []float64, exact bool) error {
	if len(vals) != len(want) {
		return fmt.Errorf("%d values, oracle has %d", len(vals), len(want))
	}
	for i := range want {
		if exact && vals[i] != want[i] {
			return fmt.Errorf("value[%d] = %v, oracle %v", i, vals[i], want[i])
		}
		if !exact && math.Abs(vals[i]-want[i]) > 1e-9*(1+want[i]) {
			return fmt.Errorf("value[%d] = %v, oracle %v", i, vals[i], want[i])
		}
	}
	return nil
}

// spec is one entry of a workload's fixed run list: BFS from src, CC, or
// PR for iters iterations.
type spec struct {
	alg   string
	src   uint32
	iters int
}

func (s spec) String() string {
	switch s.alg {
	case "BFS":
		return fmt.Sprintf("BFS(%d)", s.src)
	case "PR":
		return fmt.Sprintf("PR(%d)", s.iters)
	}
	return s.alg
}

// oracle returns the sequential reference vertex values for s, and whether
// the engines must match them exactly.
func (s spec) oracle(g *hypergraph.Bipartite) (want []float64, exact bool) {
	switch s.alg {
	case "BFS":
		return algorithms.OracleBFS(g, s.src), true
	case "CC":
		return algorithms.OracleCC(g), true
	default:
		return algorithms.OraclePR(g, 0.85, s.iters), false
	}
}

// algorithm builds the engine-level algorithm object for s.
func (s spec) algorithm() algorithms.Algorithm {
	switch s.alg {
	case "BFS":
		return algorithms.NewBFS(s.src)
	case "CC":
		return algorithms.NewCC()
	default:
		return algorithms.NewPageRank(s.iters)
	}
}

// phaseTap is an obs.Observer summing what the engine already reports per
// phase (the host time of stitching and simulator replay, and the compile
// and apply passes) and keeping the last run snapshot. Distributed runs
// deliver phase snapshots from several goroutines, hence the lock.
type phaseTap struct {
	mu                          sync.Mutex
	phases                      int
	compile, apply, stitch, sim time.Duration
	run                         obs.RunSnapshot
}

func (t *phaseTap) PhaseDone(s obs.PhaseSnapshot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.phases++
	t.compile += s.HostCompile
	t.apply += s.HostApply
	t.stitch += s.HostStitch
	t.sim += s.HostSim
}

// add folds another tap's phase totals into t.
func (t *phaseTap) add(o *phaseTap) {
	t.phases += o.phases
	t.compile += o.compile
	t.apply += o.apply
	t.stitch += o.stitch
	t.sim += o.sim
}

func (*phaseTap) IterationDone(obs.IterationSnapshot) {}

func (t *phaseTap) RunDone(s obs.RunSnapshot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.run = s
}
