package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"
)

var errTest = errors.New("test failure")

// stubWorker answers /step with a 1000-byte body and /commit with 37 bytes
// and a 500 status; it reads every request body to the end.
func stubWorker() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch r.URL.Path {
		case "/step":
			w.Write(bytes.Repeat([]byte{'s'}, 1000))
		case "/commit":
			w.WriteHeader(http.StatusInternalServerError)
			w.Write(bytes.Repeat([]byte{'c'}, 37))
		}
	})
}

func TestRPCTapCountsRequestsAndBytesExactly(t *testing.T) {
	tr := newTracer()
	srv := httptest.NewServer(&spanHandler{h: stubWorker(), tr: tr, lane: 1, name: func(r *http.Request) string {
		return "handler" + r.URL.Path
	}})
	defer srv.Close()
	u, _ := url.Parse(srv.URL)
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	tap := &rpcTap{next: transport, tr: tr, prefix: "rpc", lanes: map[string]int{u.Host: 1}}
	client := &http.Client{Transport: tap}

	ctx := withSpan(context.Background(), spanRef{run: 7, parent: 0})
	post := func(path string, n int) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+path, bytes.NewReader(make([]byte, n)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadAll(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	post("/step", 100)
	post("/step", 0)
	post("/commit", 250)

	rpcs, failures, n := tap.counts()
	if want := uint64(100 + 1000 + 0 + 1000 + 250 + 37); rpcs != 3 || failures != 1 || n != want {
		t.Fatalf("counts = %d rpcs, %d failures, %d bytes; want 3, 1, %d", rpcs, failures, n, want)
	}
	ss := indexSpans(tr.snapshot())
	if len(ss["rpc/step"]) != 2 || len(ss["rpc/commit"]) != 1 || len(ss["handler/step"]) != 2 {
		t.Fatalf("spans recorded: %v", tr.snapshot())
	}
	for _, h := range ss["handler/step"] {
		parent := tr.snapshot()[h.Parent-1]
		if h.Run != 7 || h.Lane != 1 || !strings.HasPrefix(parent.Name, "rpc/") || parent.Run != 7 {
			t.Fatalf("handler span %+v not joined to its client span %+v", h, parent)
		}
	}

	// A transport failure is one RPC and one failed attempt.
	srv.Close()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/step", bytes.NewReader(make([]byte, 5)))
	if _, err := client.Do(req); err == nil {
		t.Fatal("request to a closed server succeeded")
	}
	if rpcs, failures, _ := tap.counts(); rpcs != 4 || failures != 2 {
		t.Fatalf("after a transport error: %d rpcs, %d failures; want 4, 2", rpcs, failures)
	}
}

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	// Three operations due 1 ms apart, each taking 50 ms, on two
	// connections: the third must wait for a connection, and its latency
	// counts that wait from when it was due.
	const hold = 50 * time.Millisecond
	dues := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	var mu sync.Mutex
	lanesUsed := map[int]int{}
	out := openLoop(context.Background(), time.Now(), dues, 2, func(_ context.Context, i, lane int) error {
		mu.Lock()
		lanesUsed[lane]++
		mu.Unlock()
		time.Sleep(hold)
		if i == 1 {
			return errTest
		}
		return nil
	})
	if len(lanesUsed) != 2 {
		t.Fatalf("lanes used: %v, want both", lanesUsed)
	}
	if out[2].connWait < hold-5*time.Millisecond {
		t.Errorf("third operation waited %v for a connection, want about %v", out[2].connWait, hold)
	}
	if out[2].latency < 2*hold-5*time.Millisecond {
		t.Errorf("third operation's latency %v does not count its wait (want at least %v)", out[2].latency, 2*hold-5*time.Millisecond)
	}
	if out[0].connWait > 5*time.Millisecond || out[0].latency < hold {
		t.Errorf("first operation: %+v", out[0])
	}
	if !errors.Is(out[1].err, errTest) {
		t.Errorf("second operation's error = %v", out[1].err)
	}
}
