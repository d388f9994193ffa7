package hypergraph

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func roundTripEqual(a, b *Bipartite) bool {
	if a.NumVertices() != b.NumVertices() || a.NumHyperedges() != b.NumHyperedges() ||
		a.NumBipartiteEdges() != b.NumBipartiteEdges() {
		return false
	}
	for h := uint32(0); h < a.NumHyperedges(); h++ {
		av, bv := a.IncidentVertices(h), b.IncidentVertices(h)
		if len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

func TestTextRoundTrip(t *testing.T) {
	g := fig1()
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !roundTripEqual(g, g2) {
		t.Fatal("text round trip changed the hypergraph")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g := randomHypergraph(seed, 50, 40)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return roundTripEqual(g, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTextRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g := randomHypergraph(seed, 40, 30)
		var buf bytes.Buffer
		if err := WriteText(&buf, g); err != nil {
			return false
		}
		g2, err := ReadText(&buf)
		if err != nil {
			return false
		}
		return roundTripEqual(g, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"",               // empty
		"abc def\n",      // bad header
		"3 2\n0 1\n",     // fewer hyperedges than declared
		"3 1\n0 99\n",    // vertex out of range
		"2 1\nnotanum\n", // bad id
	}
	for i, c := range cases {
		if _, err := ReadText(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestReadTextComments(t *testing.T) {
	g, err := ReadText(strings.NewReader("3 2\n# a comment\n0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumHyperedges() != 2 {
		t.Fatalf("hyperedges = %d", g.NumHyperedges())
	}
}

func TestReadBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Corrupt offsets.
	g := fig1()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-4] = 0xff // clobber part of adjacency/offsets
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Skip("corruption landed in a benign byte")
	}
}

// TestReadHeaderClaimsDoNotDriveAllocation: a tiny input whose header claims
// 2^24 hyperedges (and pins) must fail having allocated in proportion to
// its bytes, not to the claim.
func TestReadHeaderClaimsDoNotDriveAllocation(t *testing.T) {
	const claim = 1 << 24
	bin := []byte("CHG1")
	for _, x := range []uint32{4, claim, claim} {
		bin = binary.LittleEndian.AppendUint32(bin, x)
	}
	for name, read := range map[string]func() error{
		"binary": func() error { _, err := ReadBinary(bytes.NewReader(bin)); return err },
		"text":   func() error { _, err := ReadText(strings.NewReader("4 16777216\n")); return err },
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := read()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: truncated input accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: %d-entry header claim allocated %d bytes, want < 1 MiB", name, claim, got)
		}
	}
}
