package ha

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"pprengine/internal/mem"
	"pprengine/internal/metrics"
	"pprengine/internal/obs"
	"pprengine/internal/rpc"
)

// PeerError attributes a request failure to the serving peer that produced
// it: the machine index (when known), the destination shard, and the address
// tried last. It wraps the underlying error for errors.Is/As.
type PeerError struct {
	Machine int   // serving machine index, -1 when unknown
	Shard   int32 // destination shard of the failed request
	Addr    string
	Err     error
}

// Error implements the error interface.
func (e *PeerError) Error() string {
	if e.Machine >= 0 {
		return fmt.Sprintf("machine %d (shard %d, %s): %v", e.Machine, e.Shard, e.Addr, e.Err)
	}
	return fmt.Sprintf("shard %d (%s): %v", e.Shard, e.Addr, e.Err)
}

// Unwrap exposes the underlying error.
func (e *PeerError) Unwrap() error { return e.Err }

// WrapPeer attributes err to (machine, shard) unless it already carries a
// peer attribution. A nil err returns nil.
func WrapPeer(machine int, shard int32, addr string, err error) error {
	if err == nil {
		return nil
	}
	var pe *PeerError
	if errors.As(err, &pe) {
		return err
	}
	return &PeerError{Machine: machine, Shard: shard, Addr: addr, Err: err}
}

// FaultOf extracts the peer attribution from err's chain. ok is false when
// the failure is not attributable to a peer (e.g. a local cancellation).
func FaultOf(err error) (machine int, shard int32, ok bool) {
	var pe *PeerError
	if errors.As(err, &pe) {
		return pe.Machine, pe.Shard, true
	}
	return -1, -1, false
}

// ReplicaRouter routes requests for a shard to one of its serving endpoints:
// the primary while healthy, a replica when the primary's breaker is open or
// an attempt fails, and the primary again once its breaker closes. One
// router per machine, shared by all of its compute processes.
type ReplicaRouter struct {
	tracker *HealthTracker
	opts    Options
	shards  [][]*Endpoint // per shard, primary first; nil for the local shard

	failovers atomic.Int64
}

// NewReplicaRouter returns a router consulting tracker's breakers. endpoints
// must have one entry per shard (primary first); the local shard's entry may
// be nil.
func NewReplicaRouter(tracker *HealthTracker, endpoints [][]*Endpoint, opts Options) *ReplicaRouter {
	return &ReplicaRouter{tracker: tracker, opts: opts, shards: endpoints}
}

// Endpoints returns the serving endpoints for shard (primary first).
func (r *ReplicaRouter) Endpoints(shard int32) []*Endpoint { return r.shards[shard] }

// Failovers returns the number of attempts re-routed away from the
// preferred endpoint (dial failures and failed requests alike).
func (r *ReplicaRouter) Failovers() int64 { return r.failovers.Load() }

// Tracker returns the health tracker the router consults.
func (r *ReplicaRouter) Tracker() *HealthTracker { return r.tracker }

// CallFuture is the pending result of a routed request. It resolves after at
// most one attempt per serving endpoint, each bounded by
// Options.AttemptTimeout; failed transient attempts fail over to the next
// healthy replica. Any number of goroutines may wait on it.
type CallFuture struct {
	done chan struct{}
	res  []byte
	err  error
	// rel releases the winning attempt's pooled response buffer (the rpc
	// future's Release). Set only on success; forwarded via Release.
	rel   func()
	lease mem.Lease
}

// Release recycles the response payload's pooled buffer. Call it once the
// payload (and every view decoded from it) is dead. Idempotent and optional.
// Releasing a call that has not resolved abandons it: the attempt loop hands
// the buffer back itself when the response lands.
func (f *CallFuture) Release() {
	if f.lease.Release() && f.rel != nil {
		f.rel()
	}
}

// finish publishes the attempt loop's result.
func (f *CallFuture) finish() {
	if !f.lease.Resolve() && f.rel != nil {
		f.rel() // abandoned while in flight
		f.res, f.err = nil, rpc.ErrAbandoned
	}
	close(f.done)
}

// Done returns a channel closed when the final result (after any failovers)
// is available.
func (f *CallFuture) Done() <-chan struct{} { return f.done }

// Wait blocks for the final result.
func (f *CallFuture) Wait() ([]byte, error) {
	<-f.done
	return f.res, f.err
}

// WaitCtx is Wait bounded by the waiter's context. Cancellation detaches
// only this waiter — the routed request keeps running for other waiters
// (routed calls are shared state, like aggregator flushes).
func (f *CallFuture) WaitCtx(ctx context.Context) ([]byte, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Call issues one request for dstShard with failover: it returns
// immediately with a future driven by a background attempt loop. The loop is
// NOT bound to any query context — like cache flights and aggregator
// flushes, a routed call may be shared by several queries, and each waiter's
// own ctx applies only to its WaitCtx.
func (r *ReplicaRouter) Call(dstShard int32, m rpc.Method, payload []byte) *CallFuture {
	return r.CallTraced(obs.SpanContext{}, dstShard, m, payload)
}

// CallTraced is Call carrying a trace context: each attempt records an
// "ha:attempt" span (errored attempts included, so a trace shows the failed
// primary attempt before the replica that served) and the wire request
// extends the same trace on the serving machine.
func (r *ReplicaRouter) CallTraced(sc obs.SpanContext, dstShard int32, m rpc.Method, payload []byte) *CallFuture {
	f := &CallFuture{done: make(chan struct{})}
	go r.run(f, sc, dstShard, m, payload)
	return f
}

// Do is Call followed by WaitCtx.
func (r *ReplicaRouter) Do(ctx context.Context, dstShard int32, m rpc.Method, payload []byte) ([]byte, error) {
	return r.CallTraced(obs.FromContext(ctx), dstShard, m, payload).WaitCtx(ctx)
}

// run drives the attempt loop: endpoints whose breaker allows traffic are
// tried in preference order (primary first); if every breaker is open, the
// endpoints are tried anyway as a last resort — an open breaker should
// degrade to the replica, never fail a query that could have succeeded.
func (r *ReplicaRouter) run(f *CallFuture, sc obs.SpanContext, dstShard int32, m rpc.Method, payload []byte) {
	defer f.finish()
	eps := r.shards[dstShard]
	if len(eps) == 0 {
		f.err = &PeerError{Machine: -1, Shard: dstShard, Err: fmt.Errorf("ha: no endpoints for shard %d", dstShard)}
		return
	}
	allowed := make([]*Endpoint, 0, len(eps))
	for _, ep := range eps {
		if r.tracker.Allow(ep.Key()) {
			allowed = append(allowed, ep)
		}
	}
	if len(allowed) == 0 {
		allowed = eps // all breakers open: try everything rather than fail
	}
	var lastErr error
	var lastEp *Endpoint
	for i, ep := range allowed {
		if i > 0 || ep != eps[0] {
			// Any attempt not on the primary is a failover, whether we got
			// here by a failed attempt or by skipping an open breaker.
			r.failovers.Add(1)
			metrics.Failovers.Inc(1)
		}
		res, rel, err := r.attempt(ep, sc, m, payload)
		if err == nil {
			r.tracker.ReportSuccess(ep.Key())
			f.res, f.rel = res, rel
			return
		}
		lastErr, lastEp = err, ep
		if !transientAttempt(err) {
			// A remote handler error is not a machine-health signal — the
			// peer answered — and retrying a replica would fail identically.
			break
		}
		r.tracker.ReportFailure(ep.Key())
	}
	f.err = WrapPeer(lastEp.Machine, dstShard, lastEp.Addr, lastErr)
}

// attempt issues the request on ep once, bounded by the attempt timeout.
// Traced attempts record an "ha:attempt" span whose context rides the wire
// request, so the serving endpoint's span nests under the attempt.
// The returned release func recycles the response's pooled buffer (nil on
// failure); the router forwards it to the CallFuture so the final waiter
// controls the payload's lifetime.
func (r *ReplicaRouter) attempt(ep *Endpoint, sc obs.SpanContext, m rpc.Method, payload []byte) ([]byte, func(), error) {
	span := r.opts.Tracer.StartSpan(sc, "ha:attempt")
	span.SetShard(ep.Shard)
	if c := span.Context(); c.Valid() {
		sc = c
	}
	c, err := ep.dial()
	if err != nil {
		span.SetErr(true)
		span.End()
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(obs.ContextWith(context.Background(), sc), r.opts.attemptTimeout())
	defer cancel()
	fut := c.CallCtx(ctx, m, payload)
	res, err := fut.WaitCtx(ctx)
	span.SetErr(err != nil)
	span.End()
	if err != nil {
		fut.Release() // a response racing the timeout must not strand its buffer
		return nil, nil, err
	}
	return res, fut.Release, nil
}

// ReadyCheck reports whether the router can currently reach every remote
// shard: a shard whose serving endpoints ALL have open breakers is considered
// unreachable, and the first such shard is returned as the error. It is the
// /readyz check a serving process registers — a cluster peer going dark
// flips this process not-ready without killing it.
func (r *ReplicaRouter) ReadyCheck() error {
	for shard, eps := range r.shards {
		if len(eps) == 0 {
			continue // local shard
		}
		open := 0
		for _, ep := range eps {
			if r.tracker.State(ep.Key()) == BreakerOpen {
				open++
			}
		}
		if open == len(eps) {
			return fmt.Errorf("ha: all %d endpoints for shard %d have open breakers", len(eps), shard)
		}
	}
	return nil
}

// transientAttempt reports whether a failed attempt should fail over to a
// replica. Unlike rpc.Transient, an expired attempt deadline IS transient
// here: the timeout is the router's own (detecting a blackholed peer), not
// the caller's.
func transientAttempt(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return true
	}
	return rpc.Transient(err)
}

// Close closes every endpoint connection.
func (r *ReplicaRouter) Close() {
	for _, eps := range r.shards {
		for _, ep := range eps {
			ep.Close()
		}
	}
}

// Stats summarizes a router (and its tracker) for experiment reports.
type Stats struct {
	Failovers     int64
	Probes        int64
	ProbeFailures int64
	BreakersOpen  int // peers currently open
}

// Stats returns a snapshot. A nil router reports zeros.
func (r *ReplicaRouter) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	s := Stats{Failovers: r.failovers.Load()}
	for _, ph := range r.tracker.Snapshot() {
		s.Probes += ph.Probes
		s.ProbeFailures += ph.ProbeFailures
		if ph.State == BreakerOpen {
			s.BreakersOpen++
		}
	}
	return s
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Failovers += other.Failovers
	s.Probes += other.Probes
	s.ProbeFailures += other.ProbeFailures
	s.BreakersOpen += other.BreakersOpen
}
