package main

import (
	"context"

	"chgraph/internal/algorithms"
	"chgraph/internal/bitset"
	"chgraph/internal/engine"
	"chgraph/internal/shard"
)

// spanBackend is a benchmark-owned shard.Backend over one in-process engine
// instance. It makes the same engine calls as the in-process shard backend
// and records a span around each one — compile (Begin*), apply
// (Mark+Resolve) and commit (stitch plus simulator replay) — so the engine
// layer is timed from outside. Driven by shard.RunBarrier at K=1 it
// reproduces engine.Run bit for bit, which the traced run checks.
type spanBackend struct {
	sh    *shard.Shard
	in    *engine.Instance
	st    *engine.Step
	phase shard.Phase

	front bitset.Bitmap // global vertex frontier restricted to the shard
	nextE bitset.Bitmap // hyperedge activations, phase 0 → phase 1
	nextV bitset.Bitmap // vertex activations, phase 1 → merge barrier

	tr       *tracer
	run      uint64
	parent   uint64
	finished bool
}

// newSpanBackend opens an engine instance for sh under o. The caller must
// Close (or Finish) it; shard.RunBarrier does so on every path.
func newSpanBackend(ctx context.Context, sh *shard.Shard, o engine.Options, tr *tracer, run, parent uint64) (*spanBackend, error) {
	id := tr.begin(run, parent, 0, "engine.open")
	in, err := engine.NewInstanceCtx(ctx, sh.G, o)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return &spanBackend{
		sh: sh, in: in,
		front: bitset.New(sh.G.NumVertices()),
		nextE: bitset.New(sh.G.NumHyperedges()),
		nextV: bitset.New(sh.G.NumVertices()),
		tr:    tr, run: run, parent: parent,
	}, nil
}

func (b *spanBackend) Shard() *shard.Shard { return b.sh }

func (b *spanBackend) ChargePreprocess(context.Context) (uint64, error) {
	b.in.ChargePreprocess()
	return b.in.PreprocessCycles(), nil
}

func (b *spanBackend) Begin(_ context.Context, ph shard.Phase, frontierV bitset.Bitmap) error {
	b.phase = ph
	if ph == shard.HyperedgePhase {
		b.front.Reset()
		for lv, gv := range b.sh.Vertices {
			if frontierV.Get(gv) {
				b.front.Set(uint32(lv))
			}
		}
		b.nextE.Reset()
		id := b.tr.begin(b.run, b.parent, 0, "engine.compile")
		b.st = b.in.BeginHyperedgeComputation(b.front, b.nextE)
		b.tr.end(id)
		return nil
	}
	b.nextV.Reset()
	id := b.tr.begin(b.run, b.parent, 0, "engine.compile")
	b.st = b.in.BeginVertexComputation(b.nextE, b.nextV)
	b.tr.end(id)
	return nil
}

func (b *spanBackend) Drain(fn func(lsrc, ldst uint32) algorithms.EdgeResult) error {
	id := b.tr.begin(b.run, b.parent, 0, "engine.apply")
	defer b.tr.end(id)
	st := b.st
	next := b.nextE
	if b.phase == shard.VertexPhase {
		next = b.nextV
	}
	n := st.NumMarks()
	for j := 0; j < n; j++ {
		lsrc, ldst := st.Mark(j)
		res := fn(lsrc, ldst)
		st.Resolve(j, res, res&algorithms.Activate != 0 && next.TestAndSet(ldst))
	}
	return nil
}

func (b *spanBackend) Commit(context.Context) (uint64, error) {
	id := b.tr.begin(b.run, b.parent, 0, "engine.commit")
	defer b.tr.end(id)
	return b.st.Commit(), nil
}

func (b *spanBackend) NextVertexFrontier() bitset.Bitmap { return b.nextV }

func (b *spanBackend) AdvanceIteration(context.Context) error {
	b.in.AdvanceIteration()
	return nil
}

func (b *spanBackend) EdgesProcessed() uint64 { return b.in.EdgesProcessed() }
func (b *spanBackend) SimPhases() int         { return b.in.SimPhases() }
func (b *spanBackend) Restarts() uint64       { return 0 }

func (b *spanBackend) Finish(context.Context) (*engine.Result, error) {
	b.finished = true
	return b.in.Finish(), nil
}

func (b *spanBackend) Close() error {
	if !b.finished {
		b.finished = true
		b.in.Finish() // returns the scratch arena to the Prep's pool
	}
	return nil
}
