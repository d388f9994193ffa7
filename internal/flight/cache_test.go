package flight

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// val is a cache value with a generation, standing in for serve's artifacts
// (gen > 0 marks a mutated version the LRU prefers to keep).
type val struct{ gen uint64 }

func mutated(v *val) bool { return v.gen > 0 }

// TestCacheCoalescedAccounting: callers that join a leader's in-flight
// build are reported as Joined, never as Built — only the leader, which
// actually runs the build, takes the miss.
func TestCacheCoalescedAccounting(t *testing.T) {
	c := NewLRU[*val](4, mutated)
	art := &val{}

	var builds atomic.Int32
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	build := func(context.Context) (*val, error) {
		builds.Add(1)
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return art, nil
	}

	const callers = 8
	var wg sync.WaitGroup
	got := make([]*val, callers)
	outs := make([]Outcome, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out, err := c.Get(context.Background(), "k", build)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			got[i], outs[i] = v, out
		}(i)
		if i == 0 {
			<-started // the leader's build is running; the rest must join it
		}
	}
	// Let the build finish only once every caller is waiting on it; a
	// caller that somehow missed the call would run a build of its own,
	// which the builds==1 assertion below catches.
	for waiters(&c.g, "k") < callers {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	count := map[Outcome]int{}
	for i, v := range got {
		if v != art {
			t.Fatalf("caller %d got %p, want the shared value %p", i, v, art)
		}
		count[outs[i]]++
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("builds = %d, want 1", n)
	}
	// Every caller is either the one leader (Built) or a coalesced waiter;
	// with the leader's build held open until all callers were dispatched,
	// no caller can take a second miss without a second build.
	if count[Built]+count[Joined] != callers {
		t.Fatalf("built %d + joined %d = %d, want %d",
			count[Built], count[Joined], count[Built]+count[Joined], callers)
	}
	if count[Built] != int(builds.Load()) {
		t.Fatalf("built %d, want one per build (%d)", count[Built], builds.Load())
	}
	if count[Joined] == 0 {
		t.Fatalf("joined = 0, want the non-leader callers counted as waiters")
	}
	if count[Hit] != 0 {
		t.Fatalf("hits = %d during the build, want 0", count[Hit])
	}

	// After the build lands, the value is published: a fresh Get is a
	// plain hit.
	if v, out, err := c.Get(context.Background(), "k", build); err != nil || out != Hit || v != art {
		t.Fatalf("post-build get: out=%v err=%v, want hit", out, err)
	}
}

// TestCacheCapacityClamp: capacities below one are clamped to a single
// slot — inserts must not be evicted immediately (or spin evicting an empty
// list).
func TestCacheCapacityClamp(t *testing.T) {
	for _, capacity := range []int{-3, 0, 1} {
		c := NewLRU[*val](capacity, mutated)
		mk := func(k string) {
			if _, _, err := c.Get(context.Background(), k, func(context.Context) (*val, error) {
				return &val{}, nil
			}); err != nil {
				t.Fatalf("cap %d: get %s: %v", capacity, k, err)
			}
		}
		mk("a")
		if c.Len() != 1 {
			t.Fatalf("cap %d: len = %d after one insert, want 1", capacity, c.Len())
		}
		if _, out, _ := c.Get(context.Background(), "a", nil); out != Hit {
			t.Fatalf("cap %d: re-get of the only entry missed", capacity)
		}
		mk("b")
		if c.Len() != 1 {
			t.Fatalf("cap %d: len = %d after eviction, want 1", capacity, c.Len())
		}
		if c.Evictions() != 1 {
			t.Fatalf("cap %d: evictions = %d, want 1", capacity, c.Evictions())
		}
	}
}

// TestCacheSwapAndEvictionPreference: Put installs new versions
// copy-on-write (insert or replace), and eviction sacrifices entries keep
// does not protect before protected ones — falling back to plain LRU only
// when every entry is protected.
func TestCacheSwapAndEvictionPreference(t *testing.T) {
	c := NewLRU[*val](2, mutated)
	gen := func(k string) uint64 {
		if v, ok := c.Peek(k); ok {
			return v.gen
		}
		return 0
	}
	add := func(k string) {
		c.Get(context.Background(), k, func(context.Context) (*val, error) { return &val{}, nil })
	}

	// Put on an absent key inserts (first mutation may precede any run).
	c.Put("k1", &val{gen: 1})
	if g := gen("k1"); g != 1 {
		t.Fatalf("gen after insert-put = %d, want 1", g)
	}
	if g := gen("absent"); g != 0 {
		t.Fatalf("gen on absent key = %d, want 0", g)
	}
	// Put on a present key replaces the pointer in place.
	v2 := &val{gen: 2}
	c.Put("k1", v2)
	if v, ok := c.Peek("k1"); !ok || v != v2 {
		t.Fatalf("peek after replace-put: %v %v", v, ok)
	}
	if _, ok := c.Peek("absent"); ok {
		t.Fatal("peek invented an entry")
	}

	// Two unprotected entries arrive; capacity 2 forces one eviction and the
	// victim must be the unprotected k2, not the colder protected k1.
	add("k2")
	add("k3")
	if _, ok := c.Peek("k2"); ok {
		t.Fatal("unmutated k2 should have been evicted in preference to mutated k1")
	}
	if g := gen("k1"); g != 2 {
		t.Fatalf("mutated k1 evicted: gen %d, want 2", g)
	}

	// When everything is protected, plain LRU applies: k1 is coldest.
	c.Put("k3", &val{gen: 1})
	c.Put("k4", &val{gen: 1})
	if _, ok := c.Peek("k1"); ok {
		t.Fatal("all-mutated fallback should evict the LRU tail")
	}
	if c.Len() != 2 || c.Evictions() != 2 {
		t.Fatalf("len %d evictions %d, want 2/2", c.Len(), c.Evictions())
	}
}

// TestCacheOneBuildPerKey races 8–16 cold callers per key, with a build
// that yields, and requires exactly one build per key. A cache that checks
// its entries, unlocks, and only then joins the flight lets a caller land
// after the leader published and forgot its call, and build again.
func TestCacheOneBuildPerKey(t *testing.T) {
	c := NewCache[int]()
	const keys = 64
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("k%d", k)
		callers := 8 + k%9
		var builds atomic.Int32
		var wg sync.WaitGroup
		outs := make([]Outcome, callers)
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, out, err := c.Get(context.Background(), key, func(context.Context) (int, error) {
					builds.Add(1)
					runtime.Gosched()
					return k, nil
				})
				if err != nil || v != k {
					t.Errorf("%s caller %d: (%d, %v), want (%d, nil)", key, i, v, err, k)
				}
				outs[i] = out
			}(i)
		}
		wg.Wait()
		if n := builds.Load(); n != 1 {
			t.Fatalf("%s: %d builds under %d racing callers, want 1", key, n, callers)
		}
		built := 0
		for _, out := range outs {
			if out == Built {
				built++
			}
		}
		if built != 1 {
			t.Fatalf("%s: %d callers report Built, want 1", key, built)
		}
	}
	if c.Len() != keys || c.g.Inflight() != 0 {
		t.Fatalf("len %d inflight %d, want %d/0", c.Len(), c.g.Inflight(), keys)
	}
}

// TestCacheFailedBuildNotCached: an error reaches every waiter and leaves
// no entry, so the next Get builds again.
func TestCacheFailedBuildNotCached(t *testing.T) {
	c := NewCache[int]()
	boom := errors.New("boom")
	n := 0
	fail := func(context.Context) (int, error) { n++; return 0, boom }
	for i := 0; i < 2; i++ {
		if _, out, err := c.Get(context.Background(), "k", fail); !errors.Is(err, boom) || out != Built {
			t.Fatalf("get %d: (%v, %v), want (Built, boom)", i, out, err)
		}
	}
	if n != 2 || c.Len() != 0 {
		t.Fatalf("builds %d len %d, want 2/0", n, c.Len())
	}
}

// TestCacheWaiterDetachStillPublishes: a joined caller that gives up
// detaches with its ctx error, while the build runs on for the remaining
// waiter and publishes for the next caller.
func TestCacheWaiterDetachStillPublishes(t *testing.T) {
	c := NewCache[int]()
	started, release := make(chan struct{}), make(chan struct{})
	build := func(context.Context) (int, error) { close(started); <-release; return 7, nil }

	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, out, err := c.Get(context.Background(), "k", build); v != 7 || out != Built || err != nil {
			t.Errorf("builder: (%d, %v, %v), want (7, Built, nil)", v, out, err)
		}
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for waiters(&c.g, "k") < 2 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	if _, out, err := c.Get(ctx, "k", build); !errors.Is(err, context.Canceled) || out != Joined {
		t.Fatalf("impatient caller: (%v, %v), want (Joined, context.Canceled)", out, err)
	}
	close(release)
	<-done
	if v, out, _ := c.Get(context.Background(), "k", nil); v != 7 || out != Hit {
		t.Fatalf("after detach: (%d, %v), want (7, Hit)", v, out)
	}
}

// TestCachePurgeAndPutDuringBuild: Purge drops by prefix and counts as
// evictions; a Put that lands while a build runs wins over the build's
// older result.
func TestCachePurgeAndPutDuringBuild(t *testing.T) {
	c := NewCache[*val]()
	for _, k := range []string{"reg/a@1/x", "reg/a@1/y", "reg/b@2/x"} {
		c.Put(k, &val{})
	}
	if n := c.Purge("reg/a@"); n != 2 || c.Len() != 1 || c.Evictions() != 2 {
		t.Fatalf("purge: n %d len %d evictions %d, want 2/1/2", n, c.Len(), c.Evictions())
	}

	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan *val)
	go func() {
		v, _, _ := c.Get(context.Background(), "k", func(context.Context) (*val, error) {
			close(started)
			<-release
			return &val{gen: 0}, nil
		})
		done <- v
	}()
	<-started
	newer := &val{gen: 1}
	c.Put("k", newer)
	close(release)
	if v := <-done; v.gen != 0 {
		t.Fatalf("builder got gen %d, want its own build (0)", v.gen)
	}
	if v, ok := c.Peek("k"); !ok || v != newer {
		t.Fatalf("build overwrote the newer Put: %v %v", v, ok)
	}
}
