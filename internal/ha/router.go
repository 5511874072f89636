package ha

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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

// NumShards returns the number of shards the router routes for.
func (r *ReplicaRouter) NumShards() int { return len(r.shards) }

// Failovers returns the number of attempts re-routed away from the
// preferred endpoint (dial failures and failed requests alike).
func (r *ReplicaRouter) Failovers() int64 { return r.failovers.Load() }

// Tracker returns the health tracker the router consults.
func (r *ReplicaRouter) Tracker() *HealthTracker { return r.tracker }

// Hedge is the policy half of a hedged call, supplied by the layer that owns
// the latency model (admit.Hedger): how long a primary gets before the same
// request also goes to a replica (Delay), and the accounting — a duplicate
// Sent, a duplicate that Won, the latency of a primary that answered first.
type Hedge interface {
	Delay(shard int32) time.Duration
	Sent()
	Won()
	Observe(shard int32, d time.Duration)
}

// CallFuture is the pending result of a routed — optionally hedged — request,
// and the state machine that drives it. No goroutine stands behind a call: it
// is stepped by its attempts' rpc completion hooks (on the connections' read
// loops) and by one timer, so every step decides under mu and touches the
// network, or finishes the call, after unlocking.
//
//	failover: endpoints whose breaker allows traffic are tried in order,
//	  primary first, one at a time, each bounded by AttemptTimeout; a
//	  transient failure moves on to the next, anything else ends the call.
//	hedged: the primary starts alone with the timer set to the hedge delay;
//	  when it fires the first breaker-allowed replica gets the same request
//	  and the timer becomes both attempts' timeout. The first success wins,
//	  the loser is cancelled; a primary failing before any hedge went out,
//	  or two failures, fall back to the failover loop.
//
// Any number of goroutines may wait on it.
type CallFuture struct {
	r       *ReplicaRouter
	sc      obs.SpanContext
	shard   int32
	m       rpc.Method
	payload []byte
	start   time.Time

	mu       sync.Mutex
	hedge    Hedge    // non-nil while the call is in its hedged phase
	hedgeDue bool     // the armed timer is the hedge delay, not a timeout
	cur, alt *attempt // in flight: the primary or failover attempt; the hedge
	order    []*Endpoint
	next     int // order[:next] have been tried
	timer    *time.Timer
	gen      int // arm count: a fire from an earlier arm is a no-op
	fin      bool

	sig   rpc.Completion
	win   *rpc.Future // the winning attempt, holding the pooled response
	err   error       // the call's failure when there is no winner
	lease mem.Lease
}

// attempt is one request on one endpoint, in flight until settle retires it —
// exactly once, from its request's hook or from a failed dial.
type attempt struct {
	c       *CallFuture
	ep      *Endpoint
	span    obs.ActiveSpan
	fut     *rpc.Future // set under c.mu once the request is written
	dropped error       // set under c.mu: cancelled while still connecting
}

// Release recycles the response payload's pooled buffer. Call it once the
// payload (and every view decoded from it) is dead. Idempotent and optional.
// Releasing an unresolved call abandons it: the state machine hands the
// buffer back itself when the response lands.
func (f *CallFuture) Release() {
	if f.lease.Release() && f.win != nil {
		f.win.Release()
	}
}

// OnDone registers the call's completion hook (see rpc.Completion).
func (f *CallFuture) OnDone(fn func()) bool { return f.sig.OnDone(fn) }

// Wait blocks for the final result.
func (f *CallFuture) Wait() ([]byte, error) {
	<-f.sig.Done()
	if f.win != nil {
		return f.win.Wait()
	}
	return nil, f.err
}

// WaitCtx is Wait bounded by the waiter's context. Cancellation detaches
// only this waiter — the routed request keeps running for other waiters
// (routed calls are shared state, like aggregator flushes).
func (f *CallFuture) WaitCtx(ctx context.Context) ([]byte, error) {
	select {
	case <-f.sig.Done():
		return f.Wait()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// CallTraced issues one request for dstShard with failover and returns at
// once. The call is NOT bound to any query context — like cache flights and
// aggregator flushes, a routed call may be shared by several queries, and
// each waiter's own ctx applies only to its WaitCtx. Each attempt records an
// "ha:attempt" span under sc (errored attempts included) and the wire request
// extends the same trace on the serving machine. Under a hedging policy h
// (nil: none) the call is hedged — "admit:primary" and "admit:hedge" spans —
// when the shard has a replica to hedge into and the primary's breaker allows
// traffic; otherwise it is the failover loop with its normal accounting.
func (r *ReplicaRouter) CallTraced(sc obs.SpanContext, dstShard int32, m rpc.Method, payload []byte, h Hedge) *CallFuture {
	c := &CallFuture{r: r, sc: sc, shard: dstShard, m: m, payload: payload}
	eps := r.shards[dstShard]
	if h == nil || len(eps) < 2 || !r.tracker.Allow(eps[0].Key()) {
		c.advance(nil)
		return c
	}
	c.mu.Lock()
	c.hedge, c.start = h, time.Now()
	// A hedge delay past the attempt timeout never fires: the primary is
	// timed out first.
	d, timeout := h.Delay(dstShard), r.opts.attemptTimeout()
	c.hedgeDue = d < timeout
	a := c.launchLocked(&c.cur, eps[0], "admit:primary", min(d, timeout))
	c.mu.Unlock()
	c.launch(a)
	return c
}

// Do is CallTraced followed by WaitCtx.
func (r *ReplicaRouter) Do(ctx context.Context, dstShard int32, m rpc.Method, payload []byte) ([]byte, error) {
	return r.CallTraced(obs.FromContext(ctx), dstShard, m, payload, nil).WaitCtx(ctx)
}

// launchLocked installs a new attempt on ep in slot (cur or alt), opens its
// span and points the call's one timer d ahead, for launch after unlocking.
func (c *CallFuture) launchLocked(slot **attempt, ep *Endpoint, span string, d time.Duration) *attempt {
	a := &attempt{c: c, ep: ep, span: c.r.opts.Tracer.StartSpan(c.sc, span)}
	a.span.SetShard(ep.Shard)
	*slot = a
	c.gen++
	gen := c.gen
	if c.timer != nil {
		c.timer.Stop()
	}
	c.timer = time.AfterFunc(d, func() { c.onTimer(gen) })
	return a
}

// advance is the failover loop's step: it starts the attempt on the next
// endpoint of the order, or ends the call with lastErr — the last attempt's
// failure — when none is left. lastErr nil enters the loop from the top:
// endpoints whose breaker allows traffic, in preference order; if every
// breaker is open, all of them anyway — an open breaker should degrade to the
// replica, never fail a query that could have succeeded.
func (c *CallFuture) advance(lastErr error) {
	c.mu.Lock()
	if lastErr == nil {
		eps := c.r.shards[c.shard]
		c.hedge, c.next, c.order = nil, 0, make([]*Endpoint, 0, len(eps))
		for _, ep := range eps {
			if c.r.tracker.Allow(ep.Key()) {
				c.order = append(c.order, ep)
			}
		}
		if len(c.order) == 0 {
			c.order = eps
		}
		lastErr = &PeerError{Machine: -1, Shard: c.shard, Err: fmt.Errorf("ha: no endpoints for shard %d", c.shard)}
	}
	if c.next == len(c.order) {
		c.mu.Unlock()
		c.finish(nil, lastErr)
		return
	}
	ep := c.order[c.next]
	c.next++
	rerouted := c.next > 1 || ep != c.r.shards[c.shard][0]
	a := c.launchLocked(&c.cur, ep, "ha:attempt", c.r.opts.attemptTimeout())
	c.mu.Unlock()
	if rerouted {
		// Any attempt not on the primary is a failover, whether we got here
		// by a failed attempt or by skipping an open breaker.
		c.r.failovers.Add(1)
		metrics.Failovers.Inc(1)
	}
	c.launch(a)
}

// launch puts an installed attempt on the wire. Called without c.mu.
func (c *CallFuture) launch(a *attempt) {
	if cl := a.ep.live(); cl != nil {
		c.send(a, cl)
		return
	}
	// No live connection, and dialing can block, which a read loop (launch runs
	// inside hooks) must not: the one place a call borrows a goroutine.
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
		cl, err := a.ep.Client(ctx)
		cancel()
		if err != nil {
			c.settle(a, err)
			return
		}
		c.send(a, cl)
	}()
}

func (c *CallFuture) send(a *attempt, cl *rpc.Client) {
	sc := c.sc
	if v := a.span.Context(); v.Valid() {
		sc = v // the serving endpoint's span nests under the attempt
	}
	fut := cl.CallCtx(obs.ContextWith(context.Background(), sc), c.m, c.payload)
	c.mu.Lock()
	a.fut = fut
	dropped := a.dropped
	c.mu.Unlock()
	if dropped != nil {
		fut.Cancel(dropped) // cancelled while connecting: settle it as that
	}
	hook := func() {
		_, err := fut.Wait() // resolved: does not block
		c.settle(a, err)
	}
	if !fut.OnDone(hook) {
		hook()
	}
}

// cancel fails an attempt in flight (nil: none) through its request, whose
// hook then settles it — or, while it is still connecting, by a mark for send.
func (c *CallFuture) cancel(a *attempt, err error) {
	if a == nil {
		return
	}
	c.mu.Lock()
	fut := a.fut
	a.dropped = err
	c.mu.Unlock()
	if fut != nil {
		fut.Cancel(err)
	}
}

// settle is the state machine's step on one attempt's outcome.
func (c *CallFuture) settle(a *attempt, err error) {
	c.mu.Lock()
	if c.fin { // the call has its answer: a loser's cancelled, or late, result
		c.mu.Unlock()
		a.span.SetErr(true)
		a.span.End()
		if a.fut != nil {
			a.fut.Release() // a response that raced the cancel goes home
		}
		return
	}
	h, hedged, other := c.hedge, a == c.alt, c.alt
	if hedged {
		c.alt, other = nil, c.cur
	} else {
		c.cur = nil
	}
	if err == nil {
		c.fin = true // first success wins
		c.mu.Unlock()
		a.span.End()
		c.r.tracker.ReportSuccess(a.ep.Key())
		switch {
		case h == nil:
		case hedged:
			h.Won() // a win is not a failover: the primary was merely slow
		default:
			h.Observe(c.shard, time.Since(c.start))
		}
		c.cancel(other, rpc.ErrAbandoned)
		c.finish(a.fut, nil)
		return
	}
	if h != nil && other == nil {
		// The primary failed before any hedge went out, or both failed: a plain
		// failover from here on. Disarm a pending hedge delay.
		c.hedge = nil
		c.gen++
	}
	c.mu.Unlock()
	a.span.SetErr(true)
	a.span.End()
	transient := transientAttempt(err)
	if transient {
		c.r.tracker.ReportFailure(a.ep.Key())
	}
	switch {
	case h != nil && other != nil:
		// Hedged, with the other attempt still in flight: the call's hope.
	case h != nil:
		c.advance(nil)
	case !transient:
		// A remote handler error is not a machine-health signal — the peer
		// answered — and retrying a replica would fail identically.
		c.finish(nil, WrapPeer(a.ep.Machine, c.shard, a.ep.Addr, err))
	default:
		c.advance(WrapPeer(a.ep.Machine, c.shard, a.ep.Addr, err))
	}
}

// onTimer is the call's timer step: the hedge delay elapsing, or the attempt
// timeout turning a blackholed peer into a failed attempt.
func (c *CallFuture) onTimer(gen int) {
	c.mu.Lock()
	if gen != c.gen || c.fin {
		c.mu.Unlock()
		return
	}
	if !c.hedgeDue {
		cur, alt := c.cur, c.alt
		c.mu.Unlock()
		c.cancel(cur, context.DeadlineExceeded)
		c.cancel(alt, context.DeadlineExceeded)
		return
	}
	// The primary is slow: hedge into the first replica whose breaker allows
	// traffic — never into an open one — and re-arm the timer as the timeout
	// of both attempts, or of the primary alone when there is no such replica.
	c.hedgeDue = false
	var a *attempt
	for _, ep := range c.r.shards[c.shard][1:] {
		if c.r.tracker.Allow(ep.Key()) {
			a = c.launchLocked(&c.alt, ep, "admit:hedge", c.r.opts.attemptTimeout())
			break
		}
	}
	if a == nil {
		gen := c.gen
		c.timer = time.AfterFunc(c.r.opts.attemptTimeout(), func() { c.onTimer(gen) })
	}
	h := c.hedge
	c.mu.Unlock()
	if a != nil {
		h.Sent()
		c.launch(a)
	}
}

// finish publishes the call's result: the winning attempt's response, or err.
func (c *CallFuture) finish(win *rpc.Future, err error) {
	c.mu.Lock()
	c.fin = true
	if c.timer != nil {
		c.timer.Stop()
	}
	c.mu.Unlock()
	c.win, c.err = win, err
	if !c.lease.Resolve() { // abandoned while in flight: nobody reads the response
		if win != nil {
			win.Release()
		}
		c.win, c.err = nil, rpc.ErrAbandoned
	}
	c.sig.Complete()
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
