package bench

import (
	"strings"
	"testing"

	"chgraph/internal/engine"
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

// TestRunSpecKey pins the cell key to the resolved spec: every field of the
// system config shapes results and must change the key, while spellings of
// the session defaults (nil Sys, WMin 0) must not.
func TestRunSpecKey(t *testing.T) {
	s := tinySession()
	base := RunSpec{Dataset: "FS", Algo: "BFS", Kind: engine.ChGraph}
	sys := func(mut func(*system.Config)) func(*RunSpec) {
		return func(rs *RunSpec) {
			c := s.Cfg().Sys
			mut(&c)
			rs.Sys = &c
		}
	}
	cases := []struct {
		name string
		mut  func(*RunSpec)
		same bool
	}{
		{"explicit session sys", sys(func(*system.Config) {}), true},
		{"explicit default wmin", func(rs *RunSpec) { rs.WMin = 3 }, true},
		{"L1 latency", sys(func(c *system.Config) { c.L1.Latency++ }), false},
		{"L2 ways", sys(func(c *system.Config) { c.L2.Ways *= 2 }), false},
		{"mesh", sys(func(c *system.Config) { c.Mesh.LinkCycles++ }), false},
		{"memory", sys(func(c *system.Config) { c.Mem.LatencyCycles++ }), false},
		{"MLP", sys(func(c *system.Config) { c.CoreMLP++ }), false},
		{"wmin", func(rs *RunSpec) { rs.WMin = 4 }, false},
	}
	want := s.resolve(base).key()
	for _, c := range cases {
		rs := base
		c.mut(&rs)
		if got := s.resolve(rs).key(); (got == want) != c.same {
			t.Errorf("%s: key %q vs base %q, same=%v want %v", c.name, got, want, got == want, c.same)
		}
	}
}
