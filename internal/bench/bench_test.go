package bench

import (
	"strings"
	"testing"

	"chgraph/internal/engine"
	"chgraph/internal/shard"
	"chgraph/internal/sim/system"
)

func tinySession() *Session {
	return NewSession(Config{
		Scale:    0.1,
		Datasets: []string{"FS"},
		Algos:    []string{"BFS", "PR"},
	})
}

func TestRunnersRegistered(t *testing.T) {
	rs := Runners()
	if len(rs) != 21 {
		t.Fatalf("runners = %d, want 21", len(rs))
	}
	ids := map[string]bool{}
	for _, r := range rs {
		if ids[r.ID] {
			t.Fatalf("duplicate runner id %s", r.ID)
		}
		ids[r.ID] = true
		if r.Run == nil || r.Desc == "" {
			t.Fatalf("runner %s incomplete", r.ID)
		}
	}
	for _, want := range []string{"table1", "table2", "fig2", "fig14", "fig25", "area"} {
		if !ids[want] {
			t.Fatalf("missing runner %s", want)
		}
	}
	if _, ok := RunnerByID("nope"); ok {
		t.Fatal("unknown id resolved")
	}
}

func TestRunCaching(t *testing.T) {
	s := tinySession()
	spec := RunSpec{Dataset: "FS", Algo: "BFS", Kind: 0}
	a := s.Run(spec)
	b := s.Run(spec)
	if a != b {
		t.Fatal("identical specs must return the cached result")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "X", Title: "demo",
		Headers: []string{"a", "long-header"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"n"},
	}
	out := tab.String()
	if !strings.Contains(out, "long-header") || !strings.Contains(out, "note: n") {
		t.Fatalf("bad rendering:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "333  4") {
			return
		}
	}
	t.Fatalf("columns not aligned:\n%s", out)
}

func TestFastRunners(t *testing.T) {
	s := tinySession()
	for _, id := range []string{"table1", "table2", "fig8", "area", "fig21"} {
		r, _ := RunnerByID(id)
		tab := r.Run(s)
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

func TestSimulatedRunnersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated figures are slow")
	}
	s := tinySession()
	for _, id := range []string{"fig2", "fig3", "fig16"} {
		r, _ := RunnerByID(id)
		tab := r.Run(s)
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

// TestRunSpecKey pins the cell key to the resolved spec: every
// result-shaping field (each field of the system config included) must
// change the key, while spellings of the session and engine defaults (nil
// Sys, cores 0, WMin 0, DMax 0, Shards 0 or 1, an unused or default policy)
// must not.
func TestRunSpecKey(t *testing.T) {
	s := tinySession()
	base := RunSpec{Dataset: "FS", Algo: "BFS", Kind: engine.ChGraph}
	sharded := RunSpec{Dataset: "FS", Algo: "BFS", Kind: engine.ChGraph, Shards: 2}
	with := func(rs RunSpec, mut func(*RunSpec)) RunSpec { mut(&rs); return rs }
	sys := func(mut func(*system.Config)) RunSpec {
		c := s.Cfg().Sys
		mut(&c)
		return with(base, func(rs *RunSpec) { rs.Sys = &c })
	}
	cases := []struct {
		name string
		a, b RunSpec
		same bool
	}{
		{"explicit session sys", base, sys(func(*system.Config) {}), true},
		{"cores 0 vs 16", sys(func(c *system.Config) { *c = system.ScaledConfig() }), sys(func(c *system.Config) { c.Cores = 0 }), true},
		{"explicit default wmin", base, with(base, func(rs *RunSpec) { rs.WMin = 3 }), true},
		{"explicit default dmax", base, with(base, func(rs *RunSpec) { rs.DMax = 16 }), true},
		{"shards 0 vs 1", base, with(base, func(rs *RunSpec) { rs.Shards = 1 }), true},
		{"policy when unsharded", base, with(base, func(rs *RunSpec) { rs.Shards, rs.ShardPolicy = 1, shard.PolicyGreedy }), true},
		{"policy \"\" vs range", sharded, with(sharded, func(rs *RunSpec) { rs.ShardPolicy = shard.PolicyRange }), true},

		{"L1 latency", base, sys(func(c *system.Config) { c.L1.Latency++ }), false},
		{"L2 ways", base, sys(func(c *system.Config) { c.L2.Ways *= 2 }), false},
		{"mesh", base, sys(func(c *system.Config) { c.Mesh.LinkCycles++ }), false},
		{"memory", base, sys(func(c *system.Config) { c.Mem.LatencyCycles++ }), false},
		{"MLP", base, sys(func(c *system.Config) { c.CoreMLP++ }), false},
		{"cores", base, sys(func(c *system.Config) { c.Cores = 8 }), false},
		{"wmin", base, with(base, func(rs *RunSpec) { rs.WMin = 4 }), false},
		{"dmax", base, with(base, func(rs *RunSpec) { rs.DMax = 8 }), false},
		{"kind", base, with(base, func(rs *RunSpec) { rs.Kind = engine.GLA }), false},
		{"charge", base, with(base, func(rs *RunSpec) { rs.Charge = true }), false},
		{"reordered", base, with(base, func(rs *RunSpec) { rs.Reordered = true }), false},
		{"algorithm", base, with(base, func(rs *RunSpec) { rs.Algo = "PR" }), false},
		{"shards", base, sharded, false},
		{"policy", sharded, with(sharded, func(rs *RunSpec) { rs.ShardPolicy = shard.PolicyGreedy }), false},
	}
	for _, c := range cases {
		a, b := s.resolve(c.a).key(), s.resolve(c.b).key()
		if (a == b) != c.same {
			t.Errorf("%s: keys %q and %q, same=%v want %v", c.name, a, b, a == b, c.same)
		}
	}
}
