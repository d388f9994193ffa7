package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"chgraph/internal/engine"
	"chgraph/internal/hypergraph"
	"chgraph/internal/obs"
)

func TestHeaderRoundTrip(t *testing.T) {
	hdr := []byte(`{"session":"abc"}`)
	payload := []byte{1, 2, 3, 4, 5}
	body := append(appendHeader(nil, hdr), payload...)
	gotHdr, gotPayload, err := splitHeader(body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotHdr, hdr) || !bytes.Equal(gotPayload, payload) {
		t.Fatalf("round trip: hdr %q payload %v", gotHdr, gotPayload)
	}
	if _, _, err := splitHeader(body[:2]); err == nil {
		t.Fatal("truncated length prefix: want error")
	}
	if _, _, err := splitHeader(body[:4+len(hdr)-1]); err == nil {
		t.Fatal("truncated header: want error")
	}
}

// graphsEqual compares two bipartite hypergraphs structurally, including
// adjacency order (the wire codec must preserve it bit for bit).
func graphsEqual(t *testing.T, a, b *hypergraph.Bipartite) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumHyperedges() != b.NumHyperedges() || a.Directed() != b.Directed() {
		t.Fatalf("shape mismatch: %d/%d/%v vs %d/%d/%v",
			a.NumVertices(), a.NumHyperedges(), a.Directed(),
			b.NumVertices(), b.NumHyperedges(), b.Directed())
	}
	for h := uint32(0); h < a.NumHyperedges(); h++ {
		if !reflect.DeepEqual(a.IncidentVertices(h), b.IncidentVertices(h)) {
			t.Fatalf("hyperedge %d pins %v vs %v", h, a.IncidentVertices(h), b.IncidentVertices(h))
		}
	}
	for v := uint32(0); v < a.NumVertices(); v++ {
		av, bv := a.IncidentHyperedges(v), b.IncidentHyperedges(v)
		if len(av) != len(bv) {
			t.Fatalf("vertex %d incidence %v vs %v", v, av, bv)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("vertex %d incidence %v vs %v", v, av, bv)
			}
		}
	}
}

func TestGraphRoundTripUndirected(t *testing.T) {
	g := hypergraph.MustBuild(7, [][]uint32{{0, 1, 2}, {2, 3}, {}, {4, 5, 6, 0}})
	got, err := decodeGraph(appendGraph(nil, g))
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, got)
}

func TestGraphRoundTripDirected(t *testing.T) {
	g, err := hypergraph.BuildDirected(6,
		[][]uint32{{0, 1}, {2}, {3, 4, 5}},
		[][]uint32{{2, 3}, {0}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeGraph(appendGraph(nil, g))
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, got)
}

func TestGraphRoundTripCompressed(t *testing.T) {
	g := hypergraph.MustBuild(7, [][]uint32{{0, 1, 2}, {2, 3}, {}, {4, 5, 6, 0}}).Compress()
	blob := appendGraph(nil, g)
	got, err := decodeGraph(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Compressed() {
		t.Fatal("decoded graph lost its compressed representation")
	}
	graphsEqual(t, g, got)
	// Re-encoding the decoded graph must be byte-identical (the payload is
	// the codec's canonical blob shipped verbatim).
	if again := appendGraph(nil, got); !bytes.Equal(blob, again) {
		t.Fatal("compressed wire encoding is not byte-stable")
	}
	// Truncations must error, never panic.
	for n := 0; n < len(blob); n++ {
		if _, err := decodeGraph(blob[:n]); err == nil {
			t.Fatalf("decode of %d/%d bytes: want error", n, len(blob))
		}
	}
	// A count mismatch between header and blob must be rejected.
	bad := append([]byte(nil), blob...)
	bad[0]++
	if _, err := decodeGraph(bad); err == nil {
		t.Fatal("header/blob count mismatch: want error")
	}
}

func TestGraphDecodeTruncated(t *testing.T) {
	g := hypergraph.MustBuild(5, [][]uint32{{0, 1}, {2, 3, 4}})
	blob := appendGraph(nil, g)
	for _, n := range []int{0, 3, 8, 9, 12, len(blob) - 1} {
		if _, err := decodeGraph(blob[:n]); err == nil {
			t.Fatalf("decode of %d/%d bytes: want error", n, len(blob))
		}
	}
}

func TestMarksRoundTrip(t *testing.T) {
	pairs := [][2]uint32{{0, 3}, {7, 7}, {1 << 20, 0}}
	blob := appendMarks(nil, len(pairs), func(i int) (uint32, uint32) { return pairs[i][0], pairs[i][1] })
	got, err := decodeMarks(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{0, 3, 7, 7, 1 << 20, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("marks %v, want %v", got, want)
	}
	// Reuse: decoding a smaller set into the same slice must not allocate.
	reused, err := decodeMarks(appendMarks(nil, 1, func(int) (uint32, uint32) { return 9, 9 }), got)
	if err != nil {
		t.Fatal(err)
	}
	if &reused[0] != &got[0] || len(reused) != 2 {
		t.Fatalf("decode did not reuse backing array (len %d)", len(reused))
	}
	if _, err := decodeMarks(blob[:len(blob)-1], nil); err == nil {
		t.Fatal("truncated marks: want error")
	}
}

func TestResolutionsRoundTrip(t *testing.T) {
	res := []byte{0, 1, 2, 255}
	got, err := decodeResolutions(appendResolutions(nil, res))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, res) {
		t.Fatalf("resolutions %v, want %v", got, res)
	}
	if _, err := decodeResolutions(appendResolutions(nil, res)[:5]); err == nil {
		t.Fatal("truncated resolutions: want error")
	}
}

// TestPrepareOptionsRoundTrip walks engine.Options by reflection: every
// leaf of a field the /prepare handshake ships (any field not tagged
// json:"-") must survive the JSON round trip and must change Options.Key
// when set away from its default, and the host-only fields (exactly Prep,
// Workers and Observer) must leave the key alone. A field added to
// engine.Options later is covered without editing this test.
func TestPrepareOptionsRoundTrip(t *testing.T) {
	base := engine.Options{}.WithDefaults()
	base.Workers = 0
	baseKey := base.Key()
	typ := reflect.TypeOf(base)

	var host []string
	var leaves [][]int
	var walk func(reflect.Type, []int)
	walk = func(rt reflect.Type, prefix []int) {
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			idx := append(append([]int{}, prefix...), i)
			switch {
			case !f.IsExported():
				t.Errorf("%s.%s is unexported: JSON cannot ship it", rt.Name(), f.Name)
			case len(prefix) == 0 && f.Tag.Get("json") == "-":
				host = append(host, f.Name)
			case f.Type.Kind() == reflect.Struct:
				walk(f.Type, idx)
			default:
				leaves = append(leaves, idx)
			}
		}
	}
	walk(typ, nil)
	if !reflect.DeepEqual(host, []string{"Prep", "Workers", "Observer"}) {
		t.Fatalf("host-only fields %v, want [Prep Workers Observer]", host)
	}

	for _, idx := range leaves {
		o := base
		leaf := reflect.ValueOf(&o).Elem().FieldByIndex(idx)
		name := fieldPath(typ, idx)
		switch leaf.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			leaf.SetInt(leaf.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			leaf.SetUint(leaf.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			leaf.SetFloat(leaf.Float() + 0.5)
		case reflect.Bool:
			leaf.SetBool(!leaf.Bool())
		case reflect.String:
			leaf.SetString(leaf.String() + "x")
		default:
			t.Errorf("%s: no perturbation for kind %v", name, leaf.Kind())
			continue
		}
		if o.Key() == baseKey {
			t.Errorf("%s: changing it leaves Key unchanged", name)
		}
		hdr, err := json.Marshal(prepareRequest{Session: "s", Options: o})
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var back prepareRequest
		if err := json.Unmarshal(hdr, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if !reflect.DeepEqual(back.Options, o) {
			t.Errorf("%s: did not survive the /prepare JSON:\n got %+v\nwant %+v", name, back.Options, o)
		}
	}

	for name, mut := range map[string]func(*engine.Options){
		"Prep":     func(o *engine.Options) { o.Prep = &engine.Prep{} },
		"Workers":  func(o *engine.Options) { o.Workers = 7 },
		"Observer": func(o *engine.Options) { o.Observer = obs.NewTimeline() },
	} {
		o := base
		mut(&o)
		if o.Key() != baseKey {
			t.Errorf("host-only %s changed Key", name)
		}
	}
	if (engine.Options{}).Key() != baseKey {
		t.Error("zero Options and their resolved defaults have different keys")
	}

	var bad prepareRequest
	if err := json.Unmarshal([]byte(`{"options":{"Kind":99}}`), &bad); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.NewInstance(hypergraph.MustBuild(2, [][]uint32{{0, 1}}), bad.Options); err == nil {
		t.Error("unknown engine kind from the wire opened an instance")
	}
}

// fieldPath names the (possibly nested) field at idx for messages.
func fieldPath(rt reflect.Type, idx []int) string {
	var parts []string
	for _, i := range idx {
		f := rt.Field(i)
		parts = append(parts, f.Name)
		rt = f.Type
	}
	return strings.Join(parts, ".")
}

// TestDecodeGraphHeaderClaim: a tiny body whose header claims 2^24
// hyperedges is rejected having allocated in proportion to its bytes.
func TestDecodeGraphHeaderClaim(t *testing.T) {
	for _, flag := range []byte{wireGraphRaw, wireGraphDirected} {
		blob := binary.LittleEndian.AppendUint32(nil, 4)
		blob = binary.LittleEndian.AppendUint32(blob, 1<<24)
		blob = append(blob, flag, 0, 0, 0, 0)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := decodeGraph(blob)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("flag %d: truncated graph accepted", flag)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("flag %d: 2^24-hyperedge claim allocated %d bytes, want < 1 MiB", flag, got)
		}
	}
}
