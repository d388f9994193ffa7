// Package bench reproduces every table and figure of the paper's evaluation
// (§VI): each runner regenerates one result as a printable table, using the
// synthetic datasets of internal/gen on the scaled simulated system.
// Datasets, OAG preprocessing and engine runs are cached and shared across
// figures, and independent cells run concurrently.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"chgraph/internal/algorithms"
	"chgraph/internal/engine"
	"chgraph/internal/flight"
	"chgraph/internal/gen"
	"chgraph/internal/hypergraph"
	"chgraph/internal/obs"
	"chgraph/internal/shard"
	"chgraph/internal/sim/system"
)

// Config parameterizes a reproduction session.
type Config struct {
	// Scale multiplies each dataset's calibrated base size (1 = default).
	Scale float64
	// Cores is the simulated core count (16 = Table I).
	Cores int
	// Sys overrides the system config (zero value = scaled default).
	Sys system.Config
	// Parallel bounds concurrently simulated cells (0 = NumCPU, max 8).
	Parallel int
	// Workers bounds the host-side parallelism inside each cell (OAG
	// construction, phase compilation). Results are identical for every
	// value. 0 defaults to 1: sessions already parallelize across cells,
	// so intra-cell workers would oversubscribe the host.
	Workers int
	// Compressed runs the whole session on the delta/varint-compressed CSR:
	// every dataset is compressed at load, engines take the streaming-decode
	// path, and the footprint metrics (adjacency_bytes, bytes_per_edge)
	// measure the compressed form. Results are bit-identical to a raw
	// session — that is the representation contract the bench gate leans on
	// when it compares a compressed session against a raw baseline's cycles.
	Compressed bool
	// Datasets restricts the dataset list (nil = all five).
	Datasets []string
	// Algos restricts the algorithm list (nil = all six).
	Algos []string
	// Log receives progress lines and (at higher levels) per-run
	// telemetry; nil is silent. It replaces the old Logf callback.
	Log *obs.Logger
	// Metrics, if non-nil, aggregates every simulated cell's timeline
	// under its run key for session-level export (chgraph-bench
	// -metrics-out). Cached cells never re-run, so each key is recorded
	// exactly once per execution.
	Metrics *obs.SessionMetrics
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Cores <= 0 {
		c.Cores = 16
	}
	if c.Sys.Cores == 0 {
		c.Sys = system.ScaledConfig()
	}
	c.Sys.Cores = c.Cores
	if c.Parallel <= 0 {
		c.Parallel = runtime.NumCPU()
	}
	if c.Parallel > 8 {
		c.Parallel = 8
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if len(c.Datasets) == 0 {
		c.Datasets = gen.HypergraphNames
	}
	if len(c.Algos) == 0 {
		c.Algos = algorithms.HypergraphAlgos
	}
	return c
}

// Session caches datasets, preprocessing and runs across figure runners.
// Each cache coalesces concurrent callers of one key into a single build
// (flight.Cache), so every dataset, prep and cell is produced exactly once.
type Session struct {
	cfg Config

	data      *flight.Cache[*hypergraph.Bipartite]
	preps     *flight.Cache[*engine.Prep]
	runs      *flight.Cache[*engine.Result]
	shardRuns *flight.Cache[*shard.Result]
	sem       chan struct{}
}

// NewSession builds a session.
func NewSession(cfg Config) *Session {
	cfg = cfg.withDefaults()
	return &Session{
		cfg:       cfg,
		data:      flight.NewCache[*hypergraph.Bipartite](),
		preps:     flight.NewCache[*engine.Prep](),
		runs:      flight.NewCache[*engine.Result](),
		shardRuns: flight.NewCache[*shard.Result](),
		sem:       make(chan struct{}, cfg.Parallel),
	}
}

// Metrics returns the session's aggregator (nil when not configured).
func (s *Session) Metrics() *obs.SessionMetrics { return s.cfg.Metrics }

// Cfg returns the session configuration (with defaults applied).
func (s *Session) Cfg() Config { return s.cfg }

// get returns key's value from c, building it on a miss; bench cells have
// no recovery path, so a failed build panics.
func get[V any](c *flight.Cache[V], key string, build func() (V, error)) V {
	v, _, err := c.Get(context.Background(), key, func(context.Context) (V, error) { return build() })
	if err != nil {
		panic(fmt.Sprintf("bench: %s: %v", key, err))
	}
	return v
}

// reorderedPrefix names the reordered variant of a dataset (Figure 24).
const reorderedPrefix = "reordered/"

// Dataset loads (and caches) a named dataset at the session scale. Graph
// datasets (AZ, PK) are recognized by name; "reordered/<name>" is the
// vertex-reordered variant of <name>.
func (s *Session) Dataset(name string) *hypergraph.Bipartite {
	return get(s.data, name, func() (*hypergraph.Bipartite, error) {
		if base, ok := strings.CutPrefix(name, reorderedPrefix); ok {
			g, err := reorderVertices(s.Dataset(base))
			if err != nil {
				return nil, err
			}
			if s.cfg.Compressed {
				// Derived variants keep the session representation (but are
				// not re-counted in the dataset footprint totals).
				g = g.Compress()
			}
			return g, nil
		}
		var g *hypergraph.Bipartite
		if isGraph(name) {
			g = gen.MustLoadGraph(name, s.cfg.Scale)
		} else {
			g = gen.MustLoad(name, s.cfg.Scale)
		}
		if s.cfg.Compressed {
			g = g.Compress()
		}
		if s.cfg.Metrics != nil {
			// Each dataset feeds the session footprint exactly once: this
			// build runs once per name.
			s.cfg.Metrics.RecordDatasetFootprint(g.AdjacencyBytes(), g.NumBipartiteEdges())
		}
		return g, nil
	})
}

func isGraph(name string) bool {
	for _, n := range gen.GraphNames {
		if strings.EqualFold(n, name) {
			return true
		}
	}
	return false
}

// Prep returns the cached chunking+OAG preprocessing for a dataset under the
// given wMin at the session core count.
func (s *Session) Prep(name string, wMin uint32) *engine.Prep {
	return s.prep(name, wMin, s.cfg.Cores)
}

func (s *Session) prep(name string, wMin uint32, cores int) *engine.Prep {
	return get(s.preps, fmt.Sprintf("%s/w%d/c%d", name, wMin, cores), func() (*engine.Prep, error) {
		return engine.PrepareParallel(s.Dataset(name), cores, wMin, s.cfg.Workers), nil
	})
}

// RunSpec identifies one simulated cell.
type RunSpec struct {
	Dataset string
	Algo    string
	Kind    engine.Kind
	// Opt tweaks beyond session defaults; fields left zero use defaults.
	DMax      int
	WMin      uint32
	Sys       *system.Config
	Charge    bool // include preprocessing time
	Reordered bool // run on the reordered dataset (Figure 24)
	// Shards > 1 runs the cell sharded (internal/shard) under ShardPolicy
	// (empty = range); each shard preps its own sub-hypergraph, so the
	// session prep cache is bypassed.
	Shards      int
	ShardPolicy shard.Policy
}

// resolve applies the session and engine defaults (a nil Sys is the session
// system; DMax, WMin and the rest resolve as engine.Options.WithDefaults
// does) and drops the partition of unsharded specs, so specs that run the
// same simulation share a key.
func (s *Session) resolve(rs RunSpec) RunSpec {
	sys := s.cfg.Sys
	if rs.Sys != nil {
		sys = *rs.Sys
	}
	rs.Sys = &sys
	eo := rs.options().WithDefaults()
	rs.Sys, rs.DMax, rs.WMin = &eo.Sys, eo.DMax, eo.WMin
	if rs.Shards <= 1 {
		rs.Shards, rs.ShardPolicy = 0, ""
	} else if rs.ShardPolicy == "" {
		rs.ShardPolicy = shard.PolicyRange
	}
	return rs
}

// options returns the engine options rs runs under, host knobs unset.
func (rs RunSpec) options() engine.Options {
	return engine.Options{Kind: rs.Kind, Sys: *rs.Sys, DMax: rs.DMax, WMin: rs.WMin, ChargePreprocess: rs.Charge}
}

// key identifies a resolved spec's result: the engine options enter through
// engine.Options.Key, so specs differing in any result-shaping field never
// collide.
func (rs RunSpec) key() string {
	shards := ""
	if rs.Shards > 1 {
		shards = fmt.Sprintf("/k%d/%s", rs.Shards, rs.ShardPolicy)
	}
	return fmt.Sprintf("%s/%s/re%v/e%s%s", rs.Dataset, rs.Algo, rs.Reordered, rs.options().Key(), shards)
}

// Run simulates one cell (cached). Concurrent callers with the same key
// coalesce into a single simulation: exactly one engine.Run executes per
// key, duplicates block until it completes and share its Result.
func (s *Session) Run(rs RunSpec) *engine.Result {
	if rs.Shards > 1 {
		return s.RunSharded(rs).Result
	}
	rs = s.resolve(rs)
	return simulate(s, s.runs, rs, func(opt engine.Options, alg algorithms.Algorithm) (*engine.Result, error) {
		name := rs.Dataset
		if rs.Reordered {
			name = reorderedPrefix + name
		}
		if rs.Reordered || needsChains(rs.Kind) {
			opt.Prep = s.prep(name, rs.WMin, rs.Sys.Cores)
		}
		return engine.Run(s.Dataset(name), alg, opt)
	})
}

// RunSharded simulates one cell through the shard coordinator (cached under
// the same key space as Run; each shard preps its own sub-hypergraph).
func (s *Session) RunSharded(rs RunSpec) *shard.Result {
	rs = s.resolve(rs)
	return simulate(s, s.shardRuns, rs, func(opt engine.Options, alg algorithms.Algorithm) (*shard.Result, error) {
		return shard.Run(s.Dataset(rs.Dataset), alg, shard.Options{Shards: rs.Shards, Policy: rs.ShardPolicy, Engine: opt})
	})
}

// simulate returns the resolved cell rs from c, running it on a miss under
// the session's parallelism bound with the engine options and algorithm the
// spec names and the session observer wired in.
func simulate[R any](s *Session, c *flight.Cache[R], rs RunSpec, run func(engine.Options, algorithms.Algorithm) (R, error)) R {
	key := rs.key()
	return get(c, key, func() (R, error) {
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
		alg, ok := algorithms.ByName(rs.Algo)
		if !ok {
			var zero R
			return zero, fmt.Errorf("unknown algorithm %s", rs.Algo)
		}
		s.cfg.Log.Logf("run %s", key)
		var ob obs.Observer
		if s.cfg.Metrics != nil {
			ob = s.cfg.Metrics.Observe(key)
		}
		if s.cfg.Log.Enabled(obs.LevelIteration) {
			ob = obs.Multi(ob, s.cfg.Log)
		}
		opt := rs.options()
		opt.Workers, opt.Observer = s.cfg.Workers, ob
		return run(opt, alg)
	})
}

func needsChains(k engine.Kind) bool {
	return k == engine.GLA || k == engine.ChGraph || k == engine.ChGraphHCG
}

// RunAll simulates many cells concurrently and returns them in order.
func (s *Session) RunAll(specs []RunSpec) []*engine.Result {
	out := make([]*engine.Result, len(specs))
	var wg sync.WaitGroup
	for i, rs := range specs {
		wg.Add(1)
		go func(i int, rs RunSpec) {
			defer wg.Done()
			out[i] = s.Run(rs)
		}(i, rs)
	}
	wg.Wait()
	return out
}

// Table is one reproduced result, printable as aligned text.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner regenerates one paper result.
type Runner struct {
	ID, Desc string
	Run      func(s *Session) *Table
}

// Runners lists every reproduced table/figure in paper order.
func Runners() []Runner {
	return []Runner{
		{"table1", "Simulated system configuration (Table I)", Table1},
		{"table2", "Dataset statistics (Table II)", Table2},
		{"fig2", "GLA vs Hygra main memory accesses, PR on WEB (Figure 2)", Fig2},
		{"fig3", "GLA and ChGraph runtime vs Hygra, PR on WEB (Figure 3)", Fig3},
		{"fig5", "Fraction of time stalled on memory under Hygra (Figure 5)", Fig5},
		{"fig7", "ChGraph vs HATS-V (Figure 7)", Fig7},
		{"fig8", "Sharable vertex/hyperedge ratios (Figure 8)", Fig8},
		{"fig14", "Performance of GLA and ChGraph vs Hygra (Figure 14)", Fig14},
		{"fig15", "Main-memory access breakdown by array group (Figure 15)", Fig15},
		{"fig16", "HCG / CP ablation (Figure 16)", Fig16},
		{"area", "Area and power of one ChGraph engine (§VI-E)", AreaPower},
		{"fig17", "Sensitivity to D_max (Figure 17)", Fig17},
		{"fig18", "Sensitivity to W_min (Figure 18)", Fig18},
		{"fig19", "Sensitivity to LLC size (Figure 19)", Fig19},
		{"fig20", "Scalability with core count (Figure 20)", Fig20},
		{"fig21", "Preprocessing time and storage overhead (Figure 21)", Fig21},
		{"fig22", "Total running time incl. preprocessing (Figure 22)", Fig22},
		{"fig23", "ChGraph vs event-triggered hardware prefetcher (Figure 23)", Fig23},
		{"fig24", "Interaction with reordering preprocessing (Figure 24)", Fig24},
		{"fig25", "Ordinary-graph generality vs Ligra/HATS (Figure 25)", Fig25},
		{"shards", "Sharded scale-out: cycles and replication vs shard count (beyond the paper)", FigShards},
	}
}

// RunnerByID returns the named runner.
func RunnerByID(id string) (Runner, bool) {
	for _, r := range Runners() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// RunnerIDs lists runner ids.
func RunnerIDs() []string {
	var ids []string
	for _, r := range Runners() {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return ids
}

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func fx(x float64) string { return fmt.Sprintf("%.2fx", x) }
func pc(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
func u64(x uint64) string { return fmt.Sprintf("%d", x) }
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
