package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
)

// Span context crosses HTTP in these headers, so a server-side span joins
// the run and the client span that caused it. The program ignores them.
const (
	hdrRun    = "X-Perfbench-Run"
	hdrParent = "X-Perfbench-Span"
	hdrLane   = "X-Perfbench-Lane"
)

type spanKey struct{}

// spanRef is the run and parent span a context carries.
type spanRef struct {
	run, parent uint64
	lane        int
}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// rpcTap is an http.RoundTripper that records one span per request — from
// the call until the caller closes the response body — and counts
// requests, failed attempts (transport errors and non-200 replies) and
// wire bytes (request plus response bodies, headers excluded). It takes the
// run and parent span from the request's context and the lane from the
// target host, and forwards them in headers.
type rpcTap struct {
	next   http.RoundTripper
	tr     *tracer
	prefix string         // span name prefix; the URL path completes it
	lanes  map[string]int // request host → lane

	mu       sync.Mutex
	rpcs     uint64
	failures uint64
	bytes    uint64
}

func (t *rpcTap) add(rpcs, failures, bytes uint64) {
	t.mu.Lock()
	t.rpcs += rpcs
	t.failures += failures
	t.bytes += bytes
	t.mu.Unlock()
}

// counts returns the totals so far.
func (t *rpcTap) counts() (rpcs, failures, bytes uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rpcs, t.failures, t.bytes
}

func (t *rpcTap) RoundTrip(req *http.Request) (*http.Response, error) {
	ref := spanFrom(req.Context())
	lane, ok := t.lanes[req.URL.Host]
	if !ok {
		lane = ref.lane
	}
	id := t.tr.begin(ref.run, ref.parent, lane, t.prefix+req.URL.Path)
	out := req.Clone(req.Context())
	out.Header.Set(hdrRun, strconv.FormatUint(ref.run, 10))
	out.Header.Set(hdrParent, strconv.FormatUint(id, 10))
	out.Header.Set(hdrLane, strconv.Itoa(lane))
	var sent *countingBody
	if req.Body != nil && req.Body != http.NoBody {
		sent = &countingBody{ReadCloser: req.Body}
		out.Body = sent
	}
	sentBytes := func() uint64 {
		if sent == nil {
			return 0
		}
		return sent.n.Load()
	}
	resp, err := t.next.RoundTrip(out)
	if err != nil {
		t.add(1, 1, sentBytes())
		t.tr.end(id)
		return nil, err
	}
	var failed uint64
	if resp.StatusCode != http.StatusOK {
		failed = 1
	}
	t.add(1, failed, 0)
	// The request body is counted when the response body is closed: the
	// transport may still be writing it when the response headers arrive.
	resp.Body = &countingBody{ReadCloser: resp.Body, onClose: func(got uint64) {
		t.add(0, 0, sentBytes()+got)
		t.tr.end(id)
	}}
	return resp, nil
}

// countingBody counts the bytes read through it and reports the count once,
// on the first Close.
type countingBody struct {
	io.ReadCloser
	n       atomic.Uint64 // read by the caller while the transport writes
	onClose func(n uint64)
	once    sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(uint64(n))
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	if b.onClose != nil {
		b.once.Do(func() { b.onClose(b.n.Load()) })
	}
	return err
}

// spanHandler wraps a server's handler with one span per request, joined
// to the client span named in the request headers. lane < 0 takes the lane
// from the headers too.
type spanHandler struct {
	h    http.Handler
	tr   *tracer
	name func(*http.Request) string
	lane int
}

func (m *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	run, _ := strconv.ParseUint(r.Header.Get(hdrRun), 10, 64)
	parent, _ := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
	lane := m.lane
	if lane < 0 {
		lane, _ = strconv.Atoi(r.Header.Get(hdrLane))
	}
	id := m.tr.begin(run, parent, lane, m.name(r))
	defer m.tr.end(id)
	m.h.ServeHTTP(w, r)
}
