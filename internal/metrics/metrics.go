// Package metrics provides the phase-timing instrumentation behind the
// paper's runtime-breakdown experiments (Table 3, Figure 6): cumulative
// wall-time per phase (local fetch, remote fetch, push, pop), plus
// throughput accounting.
//
// Timers are sharded per goroutine usage pattern: each worker owns a
// Breakdown and breakdowns are merged at the end, so timing adds no
// synchronization to the hot path.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Phase labels match the paper's breakdown rows.
type Phase int

const (
	PhaseLocalFetch Phase = iota
	PhaseRemoteFetch
	PhasePush
	PhasePop
	numPhases
)

// String returns the phase's display name.
func (p Phase) String() string {
	switch p {
	case PhaseLocalFetch:
		return "LocalFetch"
	case PhaseRemoteFetch:
		return "RemoteFetch"
	case PhasePush:
		return "Push"
	case PhasePop:
		return "Pop"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Breakdown accumulates time per phase. A nil *Breakdown is valid and all
// methods are no-ops on it, so instrumentation can be disabled by passing
// nil.
type Breakdown struct {
	durs   [numPhases]time.Duration
	counts [numPhases]int64
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown { return &Breakdown{} }

// Add records d under phase p.
func (b *Breakdown) Add(p Phase, d time.Duration) {
	if b == nil {
		return
	}
	b.durs[p] += d
	b.counts[p]++
}

// Time runs f and charges its duration to p.
func (b *Breakdown) Time(p Phase, f func()) {
	if b == nil {
		f()
		return
	}
	start := time.Now()
	f()
	b.durs[p] += time.Since(start)
	b.counts[p]++
}

// Start begins a manual measurement; call the returned stop function to
// charge the elapsed time to p.
func (b *Breakdown) Start(p Phase) (stop func()) {
	if b == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		b.durs[p] += time.Since(start)
		b.counts[p]++
	}
}

// Get returns the accumulated duration for p.
func (b *Breakdown) Get(p Phase) time.Duration {
	if b == nil {
		return 0
	}
	return b.durs[p]
}

// Count returns the number of samples recorded for p.
func (b *Breakdown) Count(p Phase) int64 {
	if b == nil {
		return 0
	}
	return b.counts[p]
}

// Total returns the sum over all phases.
func (b *Breakdown) Total() time.Duration {
	if b == nil {
		return 0
	}
	var t time.Duration
	for _, d := range b.durs {
		t += d
	}
	return t
}

// Merge adds other's samples into b.
func (b *Breakdown) Merge(other *Breakdown) {
	if b == nil || other == nil {
		return
	}
	for i := range b.durs {
		b.durs[i] += other.durs[i]
		b.counts[i] += other.counts[i]
	}
}

// Reset zeroes all accumulators.
func (b *Breakdown) Reset() {
	if b == nil {
		return
	}
	for i := range b.durs {
		b.durs[i] = 0
		b.counts[i] = 0
	}
}

// String renders the breakdown as "LocalFetch=12ms RemoteFetch=40ms ...".
func (b *Breakdown) String() string {
	if b == nil {
		return "<nil>"
	}
	parts := make([]string, 0, numPhases)
	for p := Phase(0); p < numPhases; p++ {
		parts = append(parts, fmt.Sprintf("%s=%v", p, b.durs[p].Round(time.Microsecond)))
	}
	return strings.Join(parts, " ")
}

// Throughput converts a query count and wall time into queries/second.
func Throughput(queries int, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(queries) / wall.Seconds()
}

// Counter is a simple atomic event counter usable from many goroutines.
type Counter struct{ v atomic.Int64 }

// Inc adds n.
func (c *Counter) Inc(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic last-observed value (e.g. the most recent probe
// latency), usable from many goroutines.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (for up-and-down quantities like resident
// cache bytes).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the stored value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Engine-wide query-lifecycle counters. The rpc layer and the SSPPR drivers
// increment these; serving binaries read them for health reporting.
var (
	// QueryTimeouts counts queries aborted by a deadline or cancellation.
	QueryTimeouts Counter
	// RPCRetries counts backoff rounds taken by rpc.Client.CallRetry.
	RPCRetries Counter
	// CacheHits counts remote rows served from the dynamic neighbor-row
	// cache instead of RPC.
	CacheHits Counter
	// CacheMisses counts rows that started a fetch (single-flight leaders).
	CacheMisses Counter
	// CacheEvictions counts rows evicted to stay under the byte budget.
	CacheEvictions Counter
	// CacheCoalesced counts rows that piggybacked on another query's
	// in-flight fetch instead of issuing their own RPC.
	CacheCoalesced Counter
	// CacheRejected counts fetched rows the neighbor-row cache did not
	// keep: larger than a whole lock stripe's share of the byte budget.
	CacheRejected Counter
	// AggFlushes counts merged wire requests sent by the cross-query fetch
	// aggregator (internal/agg).
	AggFlushes Counter
	// AggRows counts neighbor rows carried by aggregated flushes.
	AggRows Counter
	// AggShared counts fetches whose flush also carried another query's
	// fetch — the round trips actually amortized by aggregation.
	AggShared Counter
	// Failovers counts routed requests that were re-issued to a replica
	// after the preferred endpoint failed (internal/ha).
	Failovers Counter
	// BreakerOpens / BreakerCloses count peer circuit-breaker transitions
	// into the open and (fully) closed states.
	BreakerOpens  Counter
	BreakerCloses Counter
	// ProbesSent / ProbeFailures count health-check pings issued by the
	// per-machine health trackers and the pings that failed.
	ProbesSent    Counter
	ProbeFailures Counter
	// ProbeLatencyNs holds the most recent successful probe round trip in
	// nanoseconds, across all trackers of the process.
	ProbeLatencyNs Gauge
	// CacheBytes / CacheEntries track the resident size of the process's
	// dynamic neighbor-row caches (internal/cache updates them on insert and
	// eviction), so a scrape sees live occupancy without walking the stripes.
	CacheBytes   Gauge
	CacheEntries Gauge
	// WireRequests / WireBytesSent / WireBytesReceived count client-side RPC
	// traffic across every rpc.Client of the process — the wire-level totals
	// the /metrics endpoint exposes.
	WireRequests      Counter
	WireBytesSent     Counter
	WireBytesReceived Counter
	// PoolHits / PoolMisses count frame-buffer checkouts served by
	// recycling a released buffer vs. by a fresh allocation (internal/mem).
	PoolHits   Counter
	PoolMisses Counter
	// PoolLiveBytes tracks bytes currently checked out of the frame-buffer
	// pools — buffers handed to handlers or futures and not yet released.
	PoolLiveBytes Gauge
	// ArenaSlabBytes counts bytes committed to decode-arena slabs. Slabs are
	// reused across epochs, so this grows only when an arena outgrows its
	// slab — a hot steady state stops moving it entirely.
	ArenaSlabBytes Counter
	// PmapGrows counts growth of the engine's per-query table (internal/pmap
	// Flat): page-pool reallocations and directory enlargements. Bumped once
	// per grow, never per table op; recycled tables keep their pages and
	// directories, so a warm steady state stops moving it.
	PmapGrows Counter
	// FeatCacheHits / FeatCacheMisses / FeatCacheCoalesced count feature
	// rows served from the machine-wide feature cache, rows that started a
	// fetch (single-flight leaders), and rows that piggybacked on another
	// inference's in-flight fetch.
	FeatCacheHits      Counter
	FeatCacheMisses    Counter
	FeatCacheCoalesced Counter
	// FeatCacheEvictions counts feature rows evicted under the byte budget;
	// FeatCacheRejected counts fetched rows not cached: declined by the
	// mass-based admission policy (their PPR mass was below the threshold) or
	// larger than a whole lock stripe's share of the budget.
	FeatCacheEvictions Counter
	FeatCacheRejected  Counter
	// FeatCacheBytes / FeatCacheEntries track the resident size of the
	// process's feature-row caches.
	FeatCacheBytes   Gauge
	FeatCacheEntries Gauge
	// FeatAggFlushes / FeatAggRows / FeatAggShared mirror the neighbor-fetch
	// aggregation counters for the feature-fetch aggregator.
	FeatAggFlushes Counter
	FeatAggRows    Counter
	FeatAggShared  Counter
	// InferServed / InferFailures count end-to-end inference requests
	// (SSPPR → ConvertBatch → model forward) served and failed.
	InferServed   Counter
	InferFailures Counter
	// QueriesAdmitted counts queries granted an execution slot by the
	// admission controller (internal/admit); the shed counters break
	// rejections down by reason: empty tenant token bucket (quota), remaining
	// deadline budget below the observed p50 service time (deadline), and a
	// saturated wait queue (queue).
	QueriesAdmitted     Counter
	QueriesShedQuota    Counter
	QueriesShedDeadline Counter
	QueriesShedQueue    Counter
	// AdmitQueueDepth / AdmitInFlight track the admission controller's wait
	// queue and in-flight query occupancy.
	AdmitQueueDepth Gauge
	AdmitInFlight   Gauge
	// Hedges counts duplicate remote-fetch attempts issued by the hedger
	// after the primary outlived the hedge delay; HedgeWins counts the
	// hedged attempts that produced the winning response. A hedge win is
	// never also counted as a failover.
	Hedges    Counter
	HedgeWins Counter
	// MutationBatches / MutationOps count resolved mutation batches applied
	// to a delta store and the individual ops inside them; the breakdown
	// counters split ops by kind.
	MutationBatches  Counter
	MutationOps      Counter
	EdgesInserted    Counter
	EdgesDeleted     Counter
	VerticesAppended Counter
	// MutationMirrorFailures counts mutation broadcasts that failed to reach
	// a machine (the machine applies nothing and serves stale epochs until it
	// recovers; queries fail over to its replicas).
	MutationMirrorFailures Counter
	// Compactions counts delta-store compaction passes; EpochsRetired counts
	// epochs folded below the compaction boundary and no longer pinnable.
	Compactions   Counter
	EpochsRetired Counter
	// IncrementalHits counts incremental SSPPR queries answered straight from
	// the cached residual state (mutation frontier missed the query's
	// footprint); IncrementalRepushes counts queries answered by re-pushing
	// from the mutated frontier; IncrementalFullRuns counts fallbacks to a
	// fresh full push (cold cache, retired epoch, or exact mode overlap).
	IncrementalHits     Counter
	IncrementalRepushes Counter
	IncrementalFullRuns Counter
)

// AtomicBreakdown is a Breakdown safe for concurrent merges: a long-lived
// accumulator (e.g. a query service summing every served query's phase
// timings) that scrape-time readers can sample without locks.
type AtomicBreakdown struct {
	durs   [numPhases]atomic.Int64 // nanoseconds
	counts [numPhases]atomic.Int64
}

// Merge adds b's samples into a. Nil receivers and arguments are no-ops.
func (a *AtomicBreakdown) Merge(b *Breakdown) {
	if a == nil || b == nil {
		return
	}
	for i := range b.durs {
		a.durs[i].Add(int64(b.durs[i]))
		a.counts[i].Add(b.counts[i])
	}
}

// Get returns the accumulated duration for p.
func (a *AtomicBreakdown) Get(p Phase) time.Duration {
	if a == nil {
		return 0
	}
	return time.Duration(a.durs[p].Load())
}

// Count returns the number of samples recorded for p.
func (a *AtomicBreakdown) Count(p Phase) int64 {
	if a == nil {
		return 0
	}
	return a.counts[p].Load()
}

// Phases lists every phase label, for adapters that register one metric
// series per phase.
func Phases() []Phase {
	out := make([]Phase, numPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// Summary holds repeated-run statistics (the paper reports an average of 10
// runs after 4 warm-ups).
type Summary struct {
	Mean, Min, Max, Stddev float64
	Runs                   int
}

// Summarize computes run statistics over samples.
func Summarize(samples []float64) Summary {
	s := Summary{Runs: len(samples)}
	if len(samples) == 0 {
		return s
	}
	s.Min = samples[0]
	s.Max = samples[0]
	sum := 0.0
	for _, x := range samples {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(samples))
	var ss float64
	for _, x := range samples {
		d := x - s.Mean
		ss += d * d
	}
	if len(samples) > 1 {
		s.Stddev = math.Sqrt(ss / float64(len(samples)-1))
	}
	return s
}

// Median returns the median of samples (not modifying the input).
func Median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	c := append([]float64(nil), samples...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
