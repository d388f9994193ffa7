// Package dist is the distributed shard runtime: each shard of a
// partitioned hypergraph runs in its own worker process (cmd/chgraph-worker)
// and the coordinator drives the same bulk-synchronous frontier merge
// barrier as the in-process runtime (shard.RunBarrier) over an HTTP
// transport.
//
// Wire protocol (one coordinator, one worker per shard; the worker is a
// plain HTTP server):
//
//	POST /prepare   handshake: shard spec + engine options + the shard's
//	                sub-hypergraph; the worker (re)builds its engine and
//	                adopts the request's session id.
//	POST /step      begin one phase: the request carries the shard-local
//	                vertex frontier bitmap (hyperedge phases; vertex phases
//	                source from the worker-held hyperedge frontier), the
//	                response the compiled marks.
//	POST /commit    resolve + commit: the request carries one EdgeResult
//	                byte per mark, the response the phase's simulated
//	                duration and — after vertex phases — the shard-local
//	                next-vertex frontier bitmap for the coordinator's
//	                OR-merge.
//	POST /finish    retire the engine and return its engine.Result.
//	GET  /healthz   liveness + current session id.
//
// Binary bodies are length-prefixed little-endian: a uint32 JSON header
// length, the JSON header, then the payload (bitset.Bitmap wire encoding,
// packed uint32 mark pairs, or raw EdgeResult bytes). Determinism: the
// worker applies resolutions through the exact engine.Step discipline the
// in-process backend uses, and the coordinator applies HF/VF against the
// single global state in the same shard-major order, so state checksums and
// (crash-free) simulated cycles are bit-identical to shard.RunCtx.
package dist

import (
	"encoding/binary"
	"fmt"
	"io"

	"chgraph/internal/engine"
	"chgraph/internal/hypergraph"
	"chgraph/internal/obs"
)

// prepareRequest is the /prepare JSON header; the request payload is the
// shard's sub-hypergraph (appendGraph encoding).
type prepareRequest struct {
	// Session is the coordinator-chosen id every subsequent request must
	// echo; a worker restarted since the handshake answers 409 and the
	// coordinator re-prepares.
	Session string `json:"session"`
	// Shard is the shard index (observability only; the worker tags
	// nothing with it, the coordinator does).
	Shard int `json:"shard"`
	// Iter fast-forwards the worker's iteration counter — 0 on the initial
	// handshake, the current iteration when a crashed worker rejoins
	// mid-run (phase snapshots then carry the right iteration index).
	Iter int `json:"iter"`
	// Options configure the worker's engine. The host-only fields (Prep,
	// Workers, Observer) are tagged json:"-" and stay with the coordinator;
	// everything that shapes the simulated result travels. With
	// ChargePreprocess set, the worker charges the modelled preprocessing
	// time right after the engine opens, exactly where the in-process
	// runtime charges it.
	Options engine.Options `json:"options"`
	// Observe asks the worker to capture per-phase snapshots and return
	// them in commit replies.
	Observe bool `json:"observe"`
}

type prepareReply struct {
	// PreprocessCycles is the modelled preprocessing time (0 unless
	// ChargePreprocess; the coordinator merges the max over shards).
	PreprocessCycles uint64 `json:"preprocess_cycles"`
}

// stepRequest is the /step JSON header; for hyperedge phases the payload is
// the shard-local vertex frontier bitmap.
type stepRequest struct {
	Session string `json:"session"`
	Iter    int    `json:"iter"`
	Phase   int    `json:"phase"`
}

// commitRequest is the /commit JSON header; the payload is a uint32 count
// followed by one EdgeResult byte per mark, in mark order.
type commitRequest struct {
	Session string `json:"session"`
	Iter    int    `json:"iter"`
	Phase   int    `json:"phase"`
}

// commitReply is the /commit JSON header; after vertex phases the payload
// is the shard-local next-vertex frontier bitmap.
type commitReply struct {
	Cycles         uint64             `json:"cycles"`
	EdgesProcessed uint64             `json:"edges_processed"`
	SimPhases      int                `json:"sim_phases"`
	Snap           *obs.PhaseSnapshot `json:"snap,omitempty"`
}

type finishRequest struct {
	Session string `json:"session"`
}

type healthReply struct {
	Session string `json:"session"`
	Iter    int    `json:"iter"`
}

// appendHeader appends a length-prefixed JSON header.
func appendHeader(dst, hdr []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(hdr)))
	return append(dst, hdr...)
}

// splitHeader splits a length-prefixed JSON header off the front of body.
func splitHeader(body []byte) (hdr, payload []byte, err error) {
	if len(body) < 4 {
		return nil, nil, fmt.Errorf("dist: truncated header length (%d bytes)", len(body))
	}
	n := int(binary.LittleEndian.Uint32(body))
	body = body[4:]
	if len(body) < n {
		return nil, nil, fmt.Errorf("dist: truncated header (want %d bytes, have %d)", n, len(body))
	}
	return body[:n], body[n:], nil
}

// Graph wire-format flag byte values. 0/1 are the historical raw encodings
// (flat pin lists, directedness flag); 2 marks a compressed graph, whose
// body is the hypergraph package's own compressed blob shipped verbatim —
// the /prepare payload then shrinks with the codec instead of re-inflating
// to 4 bytes per incidence.
const (
	wireGraphRaw        = 0
	wireGraphDirected   = 1
	wireGraphCompressed = 2
)

// appendGraph appends g's wire encoding: counts, a flag byte, then either
// the raw adjacency (pin lists, preserving order; directed graphs add the
// vertex-side adjacency, from which the decoder reconstructs the
// per-hyperedge source sets) or, for compressed-only graphs, the
// hypergraph.AppendCompressed blob verbatim. The raw decode rebuilds the
// bipartite CSR through the same hypergraph.Build/BuildDirected calls
// shard.Materialize uses, so a worker's sub-hypergraph is byte-identical to
// the coordinator's; the compressed decode round-trips byte-identically by
// the codec's own contract.
func appendGraph(dst []byte, g *hypergraph.Bipartite) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, g.NumVertices())
	dst = binary.LittleEndian.AppendUint32(dst, g.NumHyperedges())
	if g.Compressed() {
		dst = append(dst, wireGraphCompressed)
		return hypergraph.AppendCompressed(dst, g)
	}
	if g.Directed() {
		dst = append(dst, wireGraphDirected)
	} else {
		dst = append(dst, wireGraphRaw)
	}
	for h := uint32(0); h < g.NumHyperedges(); h++ {
		pins := g.IncidentVertices(h)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pins)))
		for _, v := range pins {
			dst = binary.LittleEndian.AppendUint32(dst, v)
		}
	}
	if g.Directed() {
		for v := uint32(0); v < g.NumVertices(); v++ {
			hs := g.IncidentHyperedges(v)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(hs)))
			for _, h := range hs {
				dst = binary.LittleEndian.AppendUint32(dst, h)
			}
		}
	}
	return dst
}

// graphReader consumes little-endian uint32s off a byte slice.
type graphReader struct{ b []byte }

func (r *graphReader) u32() (uint32, error) {
	if len(r.b) < 4 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v, nil
}

// decodeGraph reverses appendGraph.
func decodeGraph(data []byte) (*hypergraph.Bipartite, error) {
	r := &graphReader{b: data}
	numV, err := r.u32()
	if err != nil {
		return nil, fmt.Errorf("dist: truncated graph: %w", err)
	}
	numH, err := r.u32()
	if err != nil {
		return nil, fmt.Errorf("dist: truncated graph: %w", err)
	}
	if len(r.b) < 1 {
		return nil, fmt.Errorf("dist: truncated graph: %w", io.ErrUnexpectedEOF)
	}
	flag := r.b[0]
	r.b = r.b[1:]
	if flag == wireGraphCompressed {
		g, err := hypergraph.DecodeCompressed(r.b)
		if err != nil {
			return nil, fmt.Errorf("dist: compressed graph: %w", err)
		}
		if g.NumVertices() != numV || g.NumHyperedges() != numH {
			return nil, fmt.Errorf("dist: compressed graph counts (%d,%d) disagree with header (%d,%d)",
				g.NumVertices(), g.NumHyperedges(), numV, numH)
		}
		return g, nil
	}
	if flag > wireGraphDirected {
		return nil, fmt.Errorf("dist: unknown graph flag %d", flag)
	}
	directed := flag == wireGraphDirected
	// Every hyperedge (and, for directed graphs, every vertex) carries at
	// least its 4-byte degree, so a count the body cannot hold is rejected
	// before it sizes an allocation.
	if uint64(numH) > uint64(len(r.b))/4 || (directed && uint64(numH)+uint64(numV) > uint64(len(r.b))/4) {
		return nil, fmt.Errorf("dist: graph counts (%d,%d) overrun a %d-byte body", numV, numH, len(r.b))
	}
	pins := make([][]uint32, numH)
	for h := range pins {
		deg, err := r.u32()
		if err != nil {
			return nil, fmt.Errorf("dist: truncated pin list: %w", err)
		}
		if uint64(deg) > uint64(len(r.b))/4 {
			return nil, fmt.Errorf("dist: pin list overruns body (deg %d)", deg)
		}
		lp := make([]uint32, deg)
		for i := range lp {
			lp[i], _ = r.u32()
		}
		pins[h] = lp
	}
	if !directed {
		return hypergraph.Build(numV, pins)
	}
	srcs := make([][]uint32, numH)
	for v := uint32(0); v < numV; v++ {
		deg, err := r.u32()
		if err != nil {
			return nil, fmt.Errorf("dist: truncated source list: %w", err)
		}
		if uint64(deg) > uint64(len(r.b))/4 {
			return nil, fmt.Errorf("dist: source list overruns body (deg %d)", deg)
		}
		for i := uint32(0); i < deg; i++ {
			h, _ := r.u32()
			if h >= numH {
				return nil, fmt.Errorf("dist: source hyperedge %d out of range", h)
			}
			srcs[h] = append(srcs[h], v)
		}
	}
	return hypergraph.BuildDirected(numV, srcs, pins)
}

// appendMarks appends the packed mark pairs of a compiled step: a uint32
// count then (src, dst) uint32 pairs in mark order.
func appendMarks(dst []byte, n int, mark func(i int) (uint32, uint32)) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	for i := 0; i < n; i++ {
		s, d := mark(i)
		dst = binary.LittleEndian.AppendUint32(dst, s)
		dst = binary.LittleEndian.AppendUint32(dst, d)
	}
	return dst
}

// decodeMarks reverses appendMarks into an interleaved (src, dst) slice.
func decodeMarks(data []byte, into []uint32) ([]uint32, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("dist: truncated mark count")
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if len(data) < 8*n {
		return nil, fmt.Errorf("dist: truncated marks (want %d pairs, have %d bytes)", n, len(data))
	}
	into = into[:0]
	for i := 0; i < 2*n; i++ {
		into = append(into, binary.LittleEndian.Uint32(data[4*i:]))
	}
	return into, nil
}

// appendResolutions appends the resolution payload: uint32 count + one
// EdgeResult byte per mark.
func appendResolutions(dst, res []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(res)))
	return append(dst, res...)
}

// decodeResolutions reverses appendResolutions.
func decodeResolutions(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("dist: truncated resolution count")
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if len(data) < n {
		return nil, fmt.Errorf("dist: truncated resolutions (want %d, have %d)", n, len(data))
	}
	return data[:n], nil
}
