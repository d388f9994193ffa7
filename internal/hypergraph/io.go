package hypergraph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file provides on-disk formats for hypergraphs so generated datasets
// can be exported, inspected and reloaded:
//
//   - a line-oriented text format ("hgr"): a header line `V H` followed by
//     one line per hyperedge listing its incident vertex ids — the shape of
//     the classic hMETIS/PaToH hypergraph formats;
//   - a compact binary format: magic, counts, then the CSR offset and
//     adjacency arrays, little endian.

// WriteText writes g in the text format.
func WriteText(w io.Writer, g *Bipartite) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.NumVertices(), g.NumHyperedges()); err != nil {
		return err
	}
	for h := uint32(0); h < g.NumHyperedges(); h++ {
		vs := g.IncidentVertices(h)
		for i, v := range vs {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatUint(uint64(v), 10)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format.
func ReadText(r io.Reader) (*Bipartite, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("hypergraph: empty input")
	}
	var numV, numH uint32
	if _, err := fmt.Sscanf(strings.TrimSpace(sc.Text()), "%d %d", &numV, &numH); err != nil {
		return nil, fmt.Errorf("hypergraph: bad header %q: %w", sc.Text(), err)
	}
	// hs grows line by line: the header's count is checked once the input
	// is consumed, never trusted to size an allocation.
	var hs [][]uint32
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			if line == "" && uint32(len(hs)) < numH {
				hs = append(hs, nil) // empty hyperedge
			}
			continue
		}
		fields := strings.Fields(line)
		he := make([]uint32, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.ParseUint(f, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("hypergraph: bad vertex id %q: %w", f, err)
			}
			he = append(he, uint32(v))
		}
		hs = append(hs, he)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if uint32(len(hs)) != numH {
		return nil, fmt.Errorf("hypergraph: header says %d hyperedges, found %d", numH, len(hs))
	}
	return Build(numV, hs)
}

// binaryMagic identifies the binary format ("CHG1").
var binaryMagic = [4]byte{'C', 'H', 'G', '1'}

// WriteBinary writes g in the compact binary format.
func WriteBinary(w io.Writer, g *Bipartite) error {
	if g.Compressed() {
		g = g.Decompress()
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	hdr := []uint32{g.NumVertices(), g.NumHyperedges(), uint32(len(g.hAdj))}
	for _, x := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, x); err != nil {
			return err
		}
	}
	for _, arr := range [][]uint32{g.hOff, g.hAdj} {
		if err := binary.Write(bw, binary.LittleEndian, arr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary format (rebuilding the vertex-side mirror).
func ReadBinary(r io.Reader) (*Bipartite, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, err
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("hypergraph: bad magic %q", magic)
	}
	var numV, numH, numAdj uint32
	for _, p := range []*uint32{&numV, &numH, &numAdj} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	const sanity = 1 << 30
	if numAdj > sanity || numH > sanity || numV > sanity {
		return nil, fmt.Errorf("hypergraph: implausible sizes %d/%d/%d", numV, numH, numAdj)
	}
	hOff, err := readUint32s(br, numH+1)
	if err != nil {
		return nil, err
	}
	hAdj, err := readUint32s(br, numAdj)
	if err != nil {
		return nil, err
	}
	hs := make([][]uint32, numH)
	for h := uint32(0); h < numH; h++ {
		if hOff[h] > hOff[h+1] || hOff[h+1] > numAdj {
			return nil, fmt.Errorf("hypergraph: corrupt offsets at %d", h)
		}
		hs[h] = hAdj[hOff[h]:hOff[h+1]]
	}
	return Build(numV, hs)
}

// readUint32s reads n little-endian uint32s in bounded chunks, growing the
// result only as bytes arrive: a header claiming more entries than the input
// holds fails at EOF having allocated in proportion to the input, not to the
// claim.
func readUint32s(r io.Reader, n uint32) ([]uint32, error) {
	const chunk = 1 << 14
	buf := make([]byte, 4*min(n, chunk))
	out := make([]uint32, 0, min(n, chunk))
	for rem := n; rem > 0; rem = n - uint32(len(out)) {
		b := buf[:4*min(rem, chunk)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < len(b); i += 4 {
			out = append(out, binary.LittleEndian.Uint32(b[i:]))
		}
	}
	return out, nil
}
