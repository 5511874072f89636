package admit

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pprengine/internal/ha"
	"pprengine/internal/mem"
	"pprengine/internal/metrics"
	"pprengine/internal/obs"
	"pprengine/internal/rpc"
)

// Hedger issues hedged remote fetches over the replication layer's replica
// set: a request goes to the shard's primary, and if the primary has not
// answered within a latency-percentile-derived hedge delay, the SAME request
// is issued to a healthy replica. First response wins; the loser's attempt
// is cancelled and its (late) response buffer released. Because every
// replica serves the same immutable shard, the two responses are
// bit-identical — hedging changes tail latency, never results.
//
// Interaction rules with the failover layer (satellite of DESIGN.md §5k):
//
//   - A hedge goes only to a replica whose breaker ALLOWS traffic; an open
//     breaker is never hedged into.
//   - A hedge win is counted in HedgeWins, NOT as a failover: the primary
//     did not fail, it was merely slow. ReplicaRouter.Stats().Failovers
//     stays untouched by wins.
//   - When the primary's breaker is already open, or the shard has no
//     replicas, the call degrades to the router's normal failover loop with
//     its normal accounting.
//   - A primary hard error (not just slowness) falls back to the router's
//     failover loop too — unless a hedge is already in flight, in which case
//     the hedge's response is used if it succeeds.
//
// Wire accounting: a hedged request is real wire traffic (NetStats sees it),
// but the per-query RPCRequests attribution charges the fetch once — the
// duplicate is infrastructure overhead, not query demand. When the cluster
// is healthy the hedge delay sits above the primary's p99, so hedges are
// rare and request counts do not inflate.
type Hedger struct {
	r    *ha.ReplicaRouter
	opts HedgeOptions

	mu  sync.Mutex
	lat map[int32][]float64 // per-shard ring of primary latencies (seconds)
	idx map[int32]int

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
	// AttemptTimeout bounds each individual attempt. <= 0 means 5s.
	AttemptTimeout time.Duration
	// Tracer records "admit:primary" / "admit:hedge" attempt spans for
	// traced requests. nil disables.
	Tracer *obs.Tracer
}

func (o HedgeOptions) minDelay() time.Duration {
	if o.MinDelay <= 0 {
		return 500 * time.Microsecond
	}
	return o.MinDelay
}

func (o HedgeOptions) maxDelay() time.Duration {
	if o.MaxDelay <= 0 {
		return 100 * time.Millisecond
	}
	return o.MaxDelay
}

func (o HedgeOptions) attemptTimeout() time.Duration {
	if o.AttemptTimeout <= 0 {
		return 5 * time.Second
	}
	return o.AttemptTimeout
}

// hedgeWarmup is the per-shard sample count below which the adaptive delay
// stays at MaxDelay, and hedgeLatWindow the ring size behind the p95.
const (
	hedgeWarmup    = 8
	hedgeLatWindow = 128
)

// NewHedger builds a hedger over the machine's replica router.
func NewHedger(r *ha.ReplicaRouter, opts HedgeOptions) *Hedger {
	return &Hedger{r: r, opts: opts, lat: make(map[int32][]float64), idx: make(map[int32]int)}
}

// Router returns the underlying replica router (the non-hedged path).
func (h *Hedger) Router() *ha.ReplicaRouter { return h.r }

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

// Result is the pending response of a hedged (or delegated) call. Its method
// set matches the engine's response-future surface (core's respFuture and
// agg.Response), so a Hedger drops into every transport seam the router fits.
type Result interface {
	Done() <-chan struct{}
	Wait() ([]byte, error)
	WaitCtx(ctx context.Context) ([]byte, error)
	Release()
}

// Future is a hedged call's pending result; the first finished attempt
// resolves it.
type Future struct {
	done  chan struct{}
	res   []byte
	err   error
	rel   func()
	lease mem.Lease
}

// Done returns a channel closed when the winning attempt resolved.
func (f *Future) Done() <-chan struct{} { return f.done }

// Wait blocks for the winning attempt's result.
func (f *Future) Wait() ([]byte, error) {
	<-f.done
	return f.res, f.err
}

// WaitCtx is Wait bounded by the waiter's context. Cancellation detaches
// only this waiter — the hedged call keeps running for other waiters.
func (f *Future) WaitCtx(ctx context.Context) ([]byte, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Release recycles the winning response's pooled buffer. Idempotent.
// Releasing a call that has not resolved abandons it: the race hands the
// winner's buffer back itself.
func (f *Future) Release() {
	if f.lease.Release() && f.rel != nil {
		f.rel()
	}
}

// finish publishes the race's result.
func (f *Future) finish() {
	if !f.lease.Resolve() && f.rel != nil {
		f.rel() // abandoned while in flight
		f.res, f.err = nil, rpc.ErrAbandoned
	}
	close(f.done)
}

// Call issues one hedged request for dstShard.
func (h *Hedger) Call(dstShard int32, m rpc.Method, payload []byte) Result {
	return h.CallTraced(obs.SpanContext{}, dstShard, m, payload)
}

// CallTraced is Call carrying a trace context. When the shard has no
// hedgeable replica — fewer than two allowed endpoints, or the primary's
// breaker is open — the call delegates to the router's failover loop (with
// its normal failover accounting) instead of hedging.
func (h *Hedger) CallTraced(sc obs.SpanContext, dstShard int32, m rpc.Method, payload []byte) Result {
	eps := h.r.Endpoints(dstShard)
	tracker := h.r.Tracker()
	if len(eps) < 2 || !tracker.Allow(eps[0].Key()) {
		return h.r.CallTraced(sc, dstShard, m, payload)
	}
	f := &Future{done: make(chan struct{})}
	go h.run(f, sc, dstShard, eps, m, payload)
	return f
}

// outcome is one attempt's result.
type outcome struct {
	res []byte
	rel func()
	err error
}

// run drives one hedged call: primary attempt immediately, hedge attempt to
// the first breaker-allowed replica once the hedge delay elapses, first
// success wins, loser cancelled and its buffer released.
func (h *Hedger) run(f *Future, sc obs.SpanContext, dstShard int32, eps []*ha.Endpoint, m rpc.Method, payload []byte) {
	defer f.finish()
	tracker := h.r.Tracker()
	primary := eps[0]
	start := time.Now()

	prCh := make(chan outcome, 1)
	prCtx, prCancel := context.WithCancel(context.Background())
	defer prCancel()
	go func() { prCh <- h.attempt(prCtx, primary, sc, m, payload, "admit:primary") }()

	timer := time.NewTimer(h.hedgeDelay(dstShard))
	defer timer.Stop()
	timerC := timer.C

	var hedCh chan outcome
	var hedCancel context.CancelFunc
	var hedEp *ha.Endpoint

	for {
		select {
		case out := <-prCh:
			prCh = nil
			if out.err == nil {
				h.record(dstShard, time.Since(start))
				tracker.ReportSuccess(primary.Key())
				f.res, f.rel = out.res, out.rel
				if hedCh != nil {
					hedCancel()
					go drain(hedCh)
				}
				return
			}
			if hedgeTransient(out.err) {
				tracker.ReportFailure(primary.Key())
			}
			if hedCh == nil {
				// Primary failed before any hedge launched: this is a plain
				// failover situation — delegate to the router's loop so the
				// failover is attributed (and retried) exactly as without
				// hedging.
				h.delegate(f, sc, dstShard, m, payload)
				return
			}
			// A hedge is already in flight; its response becomes the call's
			// only hope before falling back to the router.
		case out := <-hedCh:
			hedCh = nil
			if out.err == nil {
				tracker.ReportSuccess(hedEp.Key())
				h.wins.Add(1)
				metrics.HedgeWins.Inc(1)
				f.res, f.rel = out.res, out.rel
				if prCh != nil {
					prCancel()
					go drain(prCh)
				}
				return
			}
			if hedgeTransient(out.err) {
				tracker.ReportFailure(hedEp.Key())
			}
			if prCh == nil {
				// Both primary and hedge failed: last resort is the router's
				// full failover loop.
				h.delegate(f, sc, dstShard, m, payload)
				return
			}
			// Hedge lost its race with its own error; keep waiting on the
			// primary.
		case <-timerC:
			timerC = nil
			// Hedge into the first replica whose breaker allows traffic —
			// never into an open breaker.
			for _, ep := range eps[1:] {
				if tracker.Allow(ep.Key()) {
					hedEp = ep
					break
				}
			}
			if hedEp == nil {
				continue // no healthy replica: the primary remains the only hope
			}
			h.hedges.Add(1)
			metrics.Hedges.Inc(1)
			hedCh = make(chan outcome, 1)
			// The deferred cancel releases the context at function exit;
			// hedCancel lets the first-wins paths cancel the loser early.
			// This branch runs at most once, so the in-loop defer is sound.
			hctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			hedCancel = cancel
			go func(ep *ha.Endpoint, ch chan outcome) {
				ch <- h.attempt(hctx, ep, sc, m, payload, "admit:hedge")
			}(hedEp, hedCh)
		}
	}
}

// delegate resolves f through the router's normal failover loop.
func (h *Hedger) delegate(f *Future, sc obs.SpanContext, dstShard int32, m rpc.Method, payload []byte) {
	inner := h.r.CallTraced(sc, dstShard, m, payload)
	f.res, f.err = inner.Wait()
	f.rel = inner.Release
}

// attempt issues the request on ep once, bounded by the attempt timeout and
// cancellable by ctx (the first-wins cancel).
func (h *Hedger) attempt(ctx context.Context, ep *ha.Endpoint, sc obs.SpanContext, m rpc.Method, payload []byte, name string) outcome {
	span := h.opts.Tracer.StartSpan(sc, name)
	span.SetShard(ep.Shard)
	if c := span.Context(); c.Valid() {
		sc = c
	}
	cl, err := ep.Client(ctx)
	if err != nil {
		span.SetErr(true)
		span.End()
		return outcome{err: err}
	}
	actx, cancel := context.WithTimeout(obs.ContextWith(ctx, sc), h.opts.attemptTimeout())
	defer cancel()
	fut := cl.CallCtx(actx, m, payload)
	res, err := fut.WaitCtx(actx)
	span.SetErr(err != nil)
	span.End()
	if err != nil {
		fut.Release() // a response racing the loser's cancel must not strand its buffer
		return outcome{err: err}
	}
	return outcome{res: res, rel: fut.Release}
}

// drain releases a cancelled loser's buffer when its attempt eventually
// resolves (the attempt goroutine never blocks — its channel is buffered).
func drain(ch chan outcome) {
	if out := <-ch; out.rel != nil {
		out.rel()
	}
}

// hedgeTransient mirrors the failover layer's health attribution: context
// errors (our own attempt timeout — a blackholed or slow-dead peer) and
// transport errors count against the peer; remote handler errors do not.
func hedgeTransient(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return true
	}
	return rpc.Transient(err)
}

// record adds one successful primary latency to the shard's window.
func (h *Hedger) record(shard int32, d time.Duration) {
	h.mu.Lock()
	ring := h.lat[shard]
	if len(ring) < hedgeLatWindow {
		h.lat[shard] = append(ring, d.Seconds())
	} else {
		i := h.idx[shard]
		ring[i] = d.Seconds()
		h.idx[shard] = (i + 1) % hedgeLatWindow
	}
	h.mu.Unlock()
}

// hedgeDelay derives the hedge delay for shard: the fixed Delay when set,
// otherwise the p95 of recent primary latencies clamped to
// [MinDelay, MaxDelay] — MaxDelay before warm-up, so a cold hedger never
// fires spuriously.
func (h *Hedger) hedgeDelay(shard int32) time.Duration {
	if h.opts.Delay > 0 {
		return h.opts.Delay
	}
	h.mu.Lock()
	ring := h.lat[shard]
	var d time.Duration
	if len(ring) < hedgeWarmup {
		d = h.opts.maxDelay()
	} else {
		sorted := append(make([]float64, 0, len(ring)), ring...)
		sort.Float64s(sorted)
		d = time.Duration(sorted[len(sorted)*95/100] * float64(time.Second))
	}
	h.mu.Unlock()
	if min := h.opts.minDelay(); d < min {
		d = min
	}
	if max := h.opts.maxDelay(); d > max {
		d = max
	}
	return d
}
