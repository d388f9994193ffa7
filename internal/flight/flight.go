// Package flight is the repo's request-coalescing (singleflight) primitive,
// grown out of the per-key coalescer inside internal/bench: concurrent
// callers presenting the same key share one execution of the work function
// and its result.
//
// Two properties distinguish it from the classic singleflight:
//
//   - waiting is cancellation-aware: every caller waits under its own
//     context and detaches the moment that context is done, without
//     disturbing the shared execution;
//   - the shared execution runs under a reference-counted call context that
//     is cancelled only when the last interested caller has detached, so
//     abandoned work stops (the engine observes it at phase boundaries)
//     while work that still has an audience runs to completion.
//
// Group forgets a completed call immediately — it dedups in-flight work
// only (serve's /run coalescing). Cache is the memoizing form built on the
// same calls: it publishes each successful result before the call is
// forgotten, so no caller can slip between the two and build again.
package flight

import (
	"context"
	"fmt"
	"sync"
)

// Group coalesces concurrent Do calls by key. The zero value is not usable;
// construct with NewGroup. A Group must not be copied after first use.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]
}

type call[V any] struct {
	cancel  context.CancelFunc
	waiters int
	done    chan struct{}
	val     V
	err     error
}

// NewGroup builds an empty group.
func NewGroup[V any]() *Group[V] {
	return &Group[V]{calls: map[string]*call[V]{}}
}

// Do executes fn under key, coalescing concurrent callers: the first caller
// starts fn in its own goroutine under a detached, reference-counted call
// context; every caller (including the first) then waits for the shared
// outcome under its own ctx. shared reports whether this caller joined an
// execution another caller started.
//
// A caller whose ctx ends before fn completes detaches immediately with
// ctx.Err(); when the last waiter detaches the call context is cancelled,
// telling fn to abandon the work. fn's result is delivered to every waiter
// still attached, after which the key is forgotten. A panic inside fn is
// recovered and delivered to the waiters as an error (a detached goroutine
// must not crash the process on behalf of callers who can handle failure).
func (g *Group[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, error)) (v V, err error, shared bool) {
	g.mu.Lock()
	c, shared := g.joinLocked(key, fn, nil)
	g.mu.Unlock()
	v, err = g.wait(ctx, c)
	return v, err, shared
}

// joinLocked joins key's in-flight call or starts one running fn; joined
// reports the former. publish, if non-nil, runs under g.mu with a
// successful result just before the finished call is forgotten. g.mu must
// be held.
func (g *Group[V]) joinLocked(key string, fn func(context.Context) (V, error), publish func(string, V)) (c *call[V], joined bool) {
	if c, ok := g.calls[key]; ok {
		c.waiters++
		return c, true
	}
	callCtx, cancel := context.WithCancel(context.Background())
	c = &call[V]{cancel: cancel, waiters: 1, done: make(chan struct{})}
	g.calls[key] = c
	go g.run(key, c, callCtx, fn, publish)
	return c, false
}

// wait blocks until c finishes or ctx ends, detaching (and cancelling the
// call once no waiter is left) in the latter case.
func (g *Group[V]) wait(ctx context.Context, c *call[V]) (V, error) {
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		g.mu.Lock()
		select {
		case <-c.done:
			// The result landed while we were acquiring the lock; take it
			// rather than discarding finished work.
			g.mu.Unlock()
			return c.val, c.err
		default:
		}
		c.waiters--
		if c.waiters == 0 {
			c.cancel()
		}
		g.mu.Unlock()
		var zero V
		return zero, ctx.Err()
	}
}

// run executes one call and publishes its outcome.
func (g *Group[V]) run(key string, c *call[V], ctx context.Context, fn func(context.Context) (V, error), publish func(string, V)) {
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("flight: panic in call %q: %v", key, r)
		}
		g.mu.Lock()
		if c.err == nil && publish != nil {
			publish(key, c.val)
		}
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
		c.cancel()
	}()
	c.val, c.err = fn(ctx)
}

// Inflight returns the number of keys currently executing.
func (g *Group[V]) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}
