package admit

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pprengine/internal/ha"
	"pprengine/internal/metrics"
	"pprengine/internal/obs"
	"pprengine/internal/rpc"
)

// Hedger is the policy of hedged remote fetches over the replication layer's
// replica set: a request goes to the shard's primary, and if the primary has
// not answered within a latency-percentile-derived hedge delay, the SAME
// request is issued to a healthy replica. First response wins; the loser is
// cancelled and its (late) response buffer released. Every replica serves the
// same immutable shard, so the two responses are bit-identical — hedging
// changes tail latency, never results. The race itself is the router's call
// state machine (ha.CallFuture), which keeps these rules (DESIGN.md §5k):
//
//   - A hedge goes only to a replica whose breaker ALLOWS traffic; an open
//     breaker is never hedged into.
//   - A hedge win is counted in HedgeWins, NOT as a failover: the primary
//     was merely slow, and ReplicaRouter.Stats().Failovers stays untouched.
//   - When the primary's breaker is already open, or the shard has no
//     replicas, the call is the router's failover loop, normal accounting.
//   - A primary hard error (not just slowness) falls back to that loop too —
//     unless a hedge is already in flight, whose response is used if it
//     succeeds; two failures fall back to it as well.
//
// Wire accounting: a hedged request is real wire traffic (NetStats sees it),
// but the per-query RPCRequests attribution charges the fetch once. On a
// healthy cluster the hedge delay sits above the primary's p99, so hedges are
// rare and request counts do not inflate.
type Hedger struct {
	r    *ha.ReplicaRouter
	opts HedgeOptions
	lat  []shardLatency // by destination shard

	hedges atomic.Int64
	wins   atomic.Int64
}

// HedgeOptions configures a Hedger. The zero value gets adaptive delays
// with the defaults below.
type HedgeOptions struct {
	// Delay, when > 0, is a fixed hedge delay. 0 derives the delay from the
	// observed primary latency distribution: p95 of recent successful
	// primary responses, clamped to [MinDelay, MaxDelay].
	Delay time.Duration
	// MinDelay / MaxDelay clamp the adaptive delay. <= 0 mean 500µs / 100ms.
	// Before the latency window warms up (8 samples) the delay is MaxDelay —
	// never hedge on a cold estimate.
	MinDelay time.Duration
	MaxDelay time.Duration
}

// hedgeWarmup is the per-shard sample count below which the adaptive delay
// stays at MaxDelay, hedgeLatWindow the ring behind the p95, and hedgeRecalc
// the samples recorded between recomputations of it.
const (
	hedgeWarmup    = 8
	hedgeLatWindow = 128
	hedgeRecalc    = 16
)

// shardLatency is one destination shard's window of recent primary latencies
// and its p95: recording takes the shard's lock, the call path loads p95.
type shardLatency struct {
	mu   sync.Mutex
	ring [hedgeLatWindow]time.Duration
	n    int64 // samples ever recorded

	p95 atomic.Int64 // nanoseconds; 0 until the window warmed up
}

// NewHedger builds a hedger over the machine's replica router.
func NewHedger(r *ha.ReplicaRouter, opts HedgeOptions) *Hedger {
	if opts.MinDelay <= 0 {
		opts.MinDelay = 500 * time.Microsecond
	}
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 100 * time.Millisecond
	}
	return &Hedger{r: r, opts: opts, lat: make([]shardLatency, r.NumShards())}
}

// HedgeStats counts a hedger's activity.
type HedgeStats struct {
	// Hedges is the number of duplicate attempts issued.
	Hedges int64
	// Wins is the number of hedged attempts that produced the winning
	// response.
	Wins int64
}

// Add accumulates other into s.
func (s *HedgeStats) Add(other HedgeStats) {
	s.Hedges += other.Hedges
	s.Wins += other.Wins
}

// Stats returns a snapshot. A nil hedger reports zeros.
func (h *Hedger) Stats() HedgeStats {
	if h == nil {
		return HedgeStats{}
	}
	return HedgeStats{Hedges: h.hedges.Load(), Wins: h.wins.Load()}
}

// CallTraced issues one request for dstShard, hedged under this policy when
// the shard has a hedgeable replica, under trace context sc.
func (h *Hedger) CallTraced(sc obs.SpanContext, dstShard int32, m rpc.Method, payload []byte) *ha.CallFuture {
	return h.r.CallTraced(sc, dstShard, m, payload, h)
}

// Sent, Won, Observe and Delay implement ha.Hedge. Sent counts a duplicate.
func (h *Hedger) Sent() {
	h.hedges.Add(1)
	metrics.Hedges.Inc(1)
}

// Won counts a duplicate that answered first.
func (h *Hedger) Won() {
	h.wins.Add(1)
	metrics.HedgeWins.Inc(1)
}

// Observe adds one successful primary latency to the shard's window and, at
// the end of warm-up and every hedgeRecalc samples, recomputes its p95.
func (h *Hedger) Observe(shard int32, d time.Duration) {
	l := &h.lat[shard]
	l.mu.Lock()
	l.ring[l.n%hedgeLatWindow] = d
	l.n++
	if l.n == hedgeWarmup || l.n%hedgeRecalc == 0 {
		sorted := l.ring
		filled := sorted[:min(l.n, hedgeLatWindow)]
		slices.Sort(filled)
		l.p95.Store(int64(filled[len(filled)*95/100]))
	}
	l.mu.Unlock()
}

// Delay derives the hedge delay for shard: the fixed Delay when set, else
// the p95 of recent primary latencies clamped to [MinDelay, MaxDelay] —
// MaxDelay before warm-up, so a cold hedger never fires spuriously.
func (h *Hedger) Delay(shard int32) time.Duration {
	if h.opts.Delay > 0 {
		return h.opts.Delay
	}
	d := time.Duration(h.lat[shard].p95.Load())
	if d == 0 {
		return h.opts.MaxDelay
	}
	return min(max(d, h.opts.MinDelay), h.opts.MaxDelay)
}
