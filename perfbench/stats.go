package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minBeyond is the fewest samples that must lie above a reported
// percentile: with fewer, the percentile is set by a handful of outliers.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank, with
// the sample count. ok is false unless at least minBeyond samples lie above
// the returned rank; callers report nothing in that case. A failed or
// refused operation enters xs as +Inf, so it counts as over any limit.
func percentile(xs []float64, q float64) (v float64, n int, ok bool) {
	n = len(xs)
	if n == 0 {
		return 0, 0, false
	}
	k := int(math.Ceil(q * float64(n))) // 1-based rank
	if k < 1 {
		k = 1
	}
	if n-k < minBeyond {
		return 0, n, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k-1], n, true
}

// median returns the middle of xs (mean of the two middles for even
// lengths); 0 for an empty slice. Used for repeated set-up timings, where
// there are too few samples for percentile's rule and the median is what
// the benchmark reports.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// settle collects garbage left by earlier steps, so that neither a timed
// step nor the peak resident set depends on when the collector last ran.
func settle() { runtime.GC() }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user plus system CPU time so far, all
// threads included (getrusage RUSAGE_SELF).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size in MiB. On Linux
// getrusage's ru_maxrss is the kernel's hiwater_rss, the value
// /proc/self/status reports as VmHWM, in KiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// Host time on a shared machine drifts: over minutes the same pass has taken
// anywhere from 1× to 1.5× its fastest time, in CPU time as well as wall
// time. The benchmark therefore reports host times at a reference machine
// speed: scaled by calibRefMs over the median CPU time of a fixed
// calibration loop sampled in the same run. The loop is independent of the
// program, so a change to the program moves the scaled figures exactly as
// it moves the raw ones; host.calib_ms reports the median so raw figures
// can be recovered (raw = reported × host.calib_ms / calibRefMs).
const calibRefMs = 25.0

// calibBuf is the calibration loop's working set: 4 MiB, beyond the
// private caches, so the loop pays cache misses as the simulator does.
var calibBuf = make([]uint32, 1<<20)

// calibration collects samples of the calibration loop.
type calibration struct{ samples []float64 }

// sample times one run of the calibration loop, xorshift-indexed reads and
// writes over calibBuf, in process CPU time: the loop measures how fast the
// CPU runs, not how much of the wall clock the machine's neighbours took.
func (c *calibration) sample() {
	t := cpuTime()
	x, sum := uint32(2463534242), uint32(0)
	for i := 0; i < 4<<20; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x & (1<<20 - 1)
		sum += calibBuf[j]
		calibBuf[j] = sum
	}
	c.samples = append(c.samples, ms(cpuTime()-t))
}

// scale returns the factor that brings this run's host times to the
// reference speed, and records the calibration median.
func (c *calibration) scale(rep *report) float64 {
	m := median(c.samples)
	rep.values["host.calib_ms"] = m
	return calibRefMs / m
}
