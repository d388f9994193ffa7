package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"chgraph"
	"chgraph/internal/hypergraph"
)

// workloadInputs serializes every input the three workloads generate from
// seed: the dense-replay and sparse-dist graphs and BFS sources, and the
// served-mix datasets, mutation batches and request schedule.
func workloadInputs(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range []struct {
		name  string
		scale float64
	}{{denseRecipe, denseScale}, {sparseRecipe, sparseScale}} {
		cfg, err := recipe(r.name, r.scale, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, g, err := buildGraph(nil, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		buf.Write(hypergraph.AppendCompressed(nil, b))
		if err := json.NewEncoder(&buf).Encode(pickSources(b, rand.New(rand.NewSource(seed)), sparseSources)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := makeServedData(nil, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range data {
		buf.Write(d.blob)
		buf.WriteString(d.tenant + "/" + d.name)
	}
	ops, dues, batches, err := makeSchedule(rand.New(rand.NewSource(seed)), data, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		buf.Write(op.body)
		buf.WriteString(dues[i].String())
	}
	if err := json.NewEncoder(&buf).Encode(len(batches)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := workloadInputs(t, 11), workloadInputs(t, 11), workloadInputs(t, 12)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed generated different inputs twice")
	}
	if bytes.Equal(a, c) {
		t.Fatal("two seeds generated identical inputs")
	}
}

func TestSeedDeterminesSimCycles(t *testing.T) {
	cycles := func(seed int64) uint64 {
		cfg, err := recipe(sparseRecipe, 0.05, seed)
		if err != nil {
			t.Fatal(err)
		}
		_, g, err := buildGraph(nil, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var total uint64
		for _, e := range denseEngines {
			res, err := chgraph.Run(g, "CC", chgraph.RunConfig{Engine: e, Workers: hostWorkers})
			if err != nil {
				t.Fatal(err)
			}
			total += res.Cycles
		}
		return total
	}
	if a, b := cycles(5), cycles(5); a != b {
		t.Fatalf("seed 5 simulated %d cycles, then %d", a, b)
	}
	if a, b := cycles(5), cycles(6); a == b {
		t.Fatalf("seeds 5 and 6 both simulated %d cycles", a)
	}
}
