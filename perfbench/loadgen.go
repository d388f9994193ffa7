package main

import (
	"context"
	"sync"
	"time"
)

// sent is how one scheduled operation went, every time measured from when
// it was due.
type sent struct {
	// latency runs from the due time to the end of the response: it counts
	// the wait a stalled server imposes on operations scheduled behind.
	latency time.Duration
	// connWait is how long the operation waited past its due time for a
	// free connection (both busy); lag is how late it was actually sent,
	// connection wait and timer slack together.
	connWait, lag time.Duration
	err           error
}

// openLoop sends len(dues) operations on a fixed schedule: operation i is
// due at start+dues[i] whether or not earlier ones have finished, as
// independent users would send it. lanes goroutines, one per connection,
// take operations in schedule order; an operation that falls due while
// every lane is busy waits for the next free one, and that wait is part of
// its latency. send(ctx, i, lane) performs operation i. openLoop returns
// when every operation has completed or ctx is done.
func openLoop(ctx context.Context, start time.Time, dues []time.Duration, lanes int, send func(ctx context.Context, i, lane int) error) []sent {
	out := make([]sent, len(dues))
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		i := next
		next++
		return i
	}
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			for i := take(); i < len(dues); i = take() {
				due := start.Add(dues[i])
				picked := time.Now()
				if d := due.Sub(picked); d > 0 {
					timer.Reset(d)
					select {
					case <-timer.C:
					case <-ctx.Done():
						out[i].err = ctx.Err()
						continue
					}
				}
				at := time.Now()
				err := send(ctx, i, lane)
				out[i] = sent{
					latency:  time.Since(due),
					connWait: max(picked.Sub(due), 0),
					lag:      at.Sub(due),
					err:      err,
				}
			}
		}(lane)
	}
	wg.Wait()
	return out
}
