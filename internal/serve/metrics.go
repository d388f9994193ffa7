package serve

import (
	"sync/atomic"

	"chgraph/internal/obs"
)

// latencyBucketsMS are the upper bounds (milliseconds, inclusive) of the
// request-latency histogram; the last bucket is unbounded.
var latencyBucketsMS = [numLatencyBuckets - 1]float64{1, 5, 10, 50, 100, 500, 1000, 5000}

const numLatencyBuckets = 9

// metrics is the server's counter set. All fields are atomics: the hot path
// touches them from many request goroutines.
type metrics struct {
	requests  atomic.Uint64 // /run requests admitted past decoding
	rejected  atomic.Uint64 // 429s from a full queue
	completed atomic.Uint64 // 200s
	failed    atomic.Uint64 // 4xx/5xx after admission
	cancelled atomic.Uint64 // client went away before the result
	coalesced atomic.Uint64 // requests that joined another request's run
	inFlight  atomic.Int64  // admitted, not yet responded

	cacheHits      atomic.Uint64
	cacheMisses    atomic.Uint64 // flight leaders only: lookups that ran a build
	cacheCoalesced atomic.Uint64 // waiters that joined a leader's in-flight build
	cacheBuilds    atomic.Uint64 // artifact builds actually executed

	mutations         atomic.Uint64 // /mutate batches applied
	mutationsFailed   atomic.Uint64 // /mutate 4xx/5xx after decoding
	hyperedgesAdded   atomic.Uint64 // hyperedges appended across applied batches
	hyperedgesRemoved atomic.Uint64 // hyperedges deleted across applied batches

	rateLimited     atomic.Uint64 // 429s from per-tenant rate/in-flight limits
	uploads         atomic.Uint64 // datasets registered (PUT /datasets)
	uploadsRejected atomic.Uint64 // uploads refused by a registry quota
	evictionsReg    atomic.Uint64 // datasets evicted (DELETE /datasets)

	latency          [numLatencyBuckets]atomic.Uint64
	latencySumMicros atomic.Uint64 // total observed latency, for the histogram _sum
}

func (m *metrics) observeLatencyMS(ms float64) {
	m.latencySumMicros.Add(uint64(ms * 1000))
	for i, ub := range latencyBucketsMS[:] {
		if ms <= ub {
			m.latency[i].Add(1)
			return
		}
	}
	m.latency[len(latencyBucketsMS)].Add(1)
}

// LatencyBucket is one histogram bucket: counts of requests at or under
// UpperMS (the last bucket has UpperMS 0, meaning unbounded).
type LatencyBucket struct {
	UpperMS float64 `json:"upper_ms"`
	Count   uint64  `json:"count"`
}

// Snapshot is the /metrics document: serve-layer counters plus, when the
// server aggregates run telemetry, the session rollup over every executed
// run.
type Snapshot struct {
	Requests  uint64 `json:"requests"`
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	Coalesced uint64 `json:"coalesced"`
	InFlight  int64  `json:"in_flight"`

	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`

	CacheEntries   int     `json:"cache_entries"`
	CacheCapacity  int     `json:"cache_capacity"`
	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	CacheCoalesced uint64  `json:"cache_coalesced"`
	CacheBuilds    uint64  `json:"cache_builds"`
	CacheEvictions uint64  `json:"cache_evictions"`
	CacheHitRatio  float64 `json:"cache_hit_ratio"`

	Mutations         uint64 `json:"mutations"`
	MutationsFailed   uint64 `json:"mutations_failed"`
	HyperedgesAdded   uint64 `json:"hyperedges_added"`
	HyperedgesRemoved uint64 `json:"hyperedges_removed"`

	// Multi-tenant additions (absent pre-registry fields keep their JSON
	// names and positions, so existing consumers are unaffected).
	RateLimited      uint64 `json:"rate_limited"`
	Uploads          uint64 `json:"uploads"`
	UploadsRejected  uint64 `json:"uploads_rejected"`
	RegistryEvicted  uint64 `json:"registry_evicted"`
	RegistryDatasets int    `json:"registry_datasets"`
	RegistryBytes    int64  `json:"registry_bytes"`

	Latency []LatencyBucket `json:"latency_ms"`
	// LatencySumMS is the sum of every observed request latency — with the
	// histogram count it gives the mean, and it feeds the OpenMetrics _sum.
	LatencySumMS float64 `json:"latency_sum_ms"`

	Draining bool `json:"draining"`

	Tenants []TenantSnapshot `json:"tenants,omitempty"`

	Session *obs.SessionSummary `json:"session,omitempty"`
}

func (m *metrics) snapshot() Snapshot {
	s := Snapshot{
		Requests:       m.requests.Load(),
		Rejected:       m.rejected.Load(),
		Completed:      m.completed.Load(),
		Failed:         m.failed.Load(),
		Cancelled:      m.cancelled.Load(),
		Coalesced:      m.coalesced.Load(),
		InFlight:       m.inFlight.Load(),
		CacheHits:      m.cacheHits.Load(),
		CacheMisses:    m.cacheMisses.Load(),
		CacheCoalesced: m.cacheCoalesced.Load(),
		CacheBuilds:    m.cacheBuilds.Load(),

		Mutations:         m.mutations.Load(),
		MutationsFailed:   m.mutationsFailed.Load(),
		HyperedgesAdded:   m.hyperedgesAdded.Load(),
		HyperedgesRemoved: m.hyperedgesRemoved.Load(),

		RateLimited:     m.rateLimited.Load(),
		Uploads:         m.uploads.Load(),
		UploadsRejected: m.uploadsRejected.Load(),
		RegistryEvicted: m.evictionsReg.Load(),
	}
	// Coalesced waiters count as hit-like: they were served without a build
	// of their own, so the ratio measures builds avoided per lookup.
	if looked := s.CacheHits + s.CacheCoalesced + s.CacheMisses; looked > 0 {
		s.CacheHitRatio = float64(s.CacheHits+s.CacheCoalesced) / float64(looked)
	}
	s.LatencySumMS = float64(m.latencySumMicros.Load()) / 1000
	s.Latency = make([]LatencyBucket, len(m.latency))
	for i := range latencyBucketsMS {
		s.Latency[i] = LatencyBucket{UpperMS: latencyBucketsMS[i], Count: m.latency[i].Load()}
	}
	s.Latency[len(latencyBucketsMS)] = LatencyBucket{Count: m.latency[len(latencyBucketsMS)].Load()}
	return s
}
