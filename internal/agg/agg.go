// Package agg implements cross-query RPC fetch aggregation: a per-(machine,
// destination-shard) coalescing layer in front of the transport that merges
// the row fetches of concurrent queries into one wire request. It is the
// aggregate stage of the fetch chain (DESIGN.md "Fetch chain"), and it owns
// the chain's wire half: a Tier names how one row type is requested and
// decoded, and the same Tier value serves merged flushes here and single
// fetches in the chain, so each row type has one encode path and one decode.
//
// The paper's batching optimization (§3.2.3) merges all of ONE query's
// requests to a destination shard per iteration. Under a heavy concurrent
// query stream each query still pays its own request/response round trip per
// shard per iteration, so per-request overhead — framing, syscalls, handler
// dispatch, scheduling — dominates small fetches. Distributed GNN systems
// (DistDGL, SALIENT++) show server-side sampling throughput hinges on
// aggregating many clients' small fetches into few large transfers; this
// package generalizes the paper's batching ACROSS queries. It composes with
// the dynamic row cache (internal/cache), which dedups IDENTICAL rows: the
// aggregator coalesces DISTINCT rows headed to the same shard.
//
// Mechanism: concurrent fetches enqueue their ID lists into a shared pending
// batch. A flush merges the batch into one request and demultiplexes the
// response back to each waiter by row range. Flush triggers:
//
//   - idle: nothing in flight and nothing pending to this shard — flush
//     immediately, so a lone query pays zero added latency (the
//     zero-aggregation fast path);
//   - a configurable time window after the batch opened (Options.Window),
//     bounding the latency any fetch can absorb waiting for company;
//   - a row cap (Options.MaxRows), bounding request size;
//   - an epoch boundary: only fetches pinned at the SAME mutation epoch may
//     share a flush (the merged response is decoded as one graph view).
//
// A batch opened behind an in-flight flush deliberately waits out its full
// window rather than flushing the moment the link frees up: the round trip
// it hides is exactly when other queries' fetches arrive, and draining early
// would ship one- and two-row batches that defeat the aggregation.
//
// Cancellation is per-waiter: a query abandoning its Wait detaches without
// poisoning the batch — the flush proceeds and resolves every other ticket.
// A flush-level failure (transport or remote error) propagates to all
// tickets of that flush.
package agg

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
	"pprengine/internal/wire"
)

// DefaultWindow is the flush window applied when Options.Window is 0.
const DefaultWindow = 200 * time.Microsecond

// DefaultMaxRows is the row cap applied when Options.MaxRows is 0.
const DefaultMaxRows = 4096

// Options configures an Aggregator. The zero value gets DefaultWindow and
// DefaultMaxRows (enabling aggregation is the caller's decision — a nil
// *Aggregator is the "disabled" value).
type Options struct {
	// Window bounds how long an open batch waits for more fetches before
	// flushing. It only delays fetches that arrive while another flush is in
	// flight; an idle aggregator flushes immediately.
	Window time.Duration
	// MaxRows flushes the pending batch as soon as it reaches this many
	// requested rows, regardless of the window.
	MaxRows int
	// Tracer, when set, records one flush span per flush, parented to the
	// trace context of the ticket that opened the flush (riders share the
	// flush, but only one query can own the span).
	Tracer *obs.Tracer
	// ZeroCopy view-decodes flush responses, so every ticket's rows alias the
	// pooled response payload instead of a heap copy. The payload is held by
	// a per-flush refcount (one count per ticket) and returns to its pool
	// when the last ticket calls Release. Off, responses are copy-decoded and
	// the payload is released as soon as the decode finishes.
	ZeroCopy bool
}

func (o Options) window() time.Duration {
	if o.Window <= 0 {
		return DefaultWindow
	}
	return o.Window
}

func (o Options) maxRows() int {
	if o.MaxRows <= 0 {
		return DefaultMaxRows
	}
	return o.MaxRows
}

// Batch is one decoded response: row i of it answers the i-th requested ID.
// A flush's Batch is shared by every ticket of the flush.
type Batch interface{ NumRows() int }

// FeatureBlock is the feature tier's Batch: a row-major [rows x Dim] block.
type FeatureBlock struct {
	Dim  int
	Data []float32
}

// NumRows returns the number of whole rows, or -1 for a malformed block.
func (b *FeatureBlock) NumRows() int {
	if b.Dim <= 0 || len(b.Data)%b.Dim != 0 {
		return -1
	}
	return len(b.Data) / b.Dim
}

// Rows returns rows [off, off+n) of the block.
func (b *FeatureBlock) Rows(off, n int) []float32 { return b.Data[off*b.Dim : (off+n)*b.Dim] }

// Tier is everything that differs between the row types the engine fetches:
// the span its flushes record, how a request for IDs at an epoch is encoded
// (Header starts the payload for n IDs, which are appended to it), how the
// response is decoded (once — aliased reports that the batch still points
// into payload), and the /metrics series it feeds.
type Tier struct {
	Span   string
	Header func(epoch uint64, n int) (rpc.Method, []byte)
	Decode func(payload []byte, zeroCopy bool) (b Batch, aliased bool, err error)
	// Empty answers a fetch of no rows without touching the wire.
	Empty Batch

	flushes, rows, shared *metrics.Counter
}

// Neighbors is the neighbor-row tier: CSR responses. Epoch 0 — the static
// base graph — ships the legacy request; any other epoch ships an
// epoch-stamped ID list to the epoch-pinned method.
var Neighbors = &Tier{
	Span: "agg:flush",
	Header: func(epoch uint64, n int) (rpc.Method, []byte) {
		if epoch != 0 {
			return rpc.MethodGetNeighborInfosAt, wire.IDListAtHeader(epoch, n)
		}
		return rpc.MethodGetNeighborInfos, wire.IDListHeader(n)
	},
	Decode: func(payload []byte, zeroCopy bool) (Batch, bool, error) {
		if !zeroCopy {
			infos, err := wire.DecodeCSR(payload)
			return infos, false, err
		}
		// Aliasable payloads decode to views over the pooled response buffer;
		// a misaligned one falls back to a heap copy inside the decoder.
		infos, err := wire.DecodeCSRView(payload, nil)
		return infos, wire.CanAlias(payload), err
	},
	Empty:   &wire.NeighborInfos{Indptr: []int32{}},
	flushes: &metrics.AggFlushes, rows: &metrics.AggRows, shared: &metrics.AggShared,
}

// Features is the feature-row tier: a flat row-major block. The feature store
// is not epoch-versioned, so the epoch does not reach the wire.
var Features = &Tier{
	Span: "featagg:flush",
	Header: func(_ uint64, n int) (rpc.Method, []byte) {
		return rpc.MethodFetchFeatures, wire.IDListHeader(n)
	},
	Decode: func(payload []byte, zeroCopy bool) (Batch, bool, error) {
		b := &FeatureBlock{}
		var err error
		if zeroCopy {
			b.Dim, b.Data, err = wire.DecodeFeatureResponseView(payload)
			return b, wire.CanAlias(payload), err
		}
		b.Dim, b.Data, err = wire.DecodeFeatureResponse(payload)
		return b, false, err
	},
	Empty:   &FeatureBlock{},
	flushes: &metrics.FeatAggFlushes, rows: &metrics.FeatAggRows, shared: &metrics.FeatAggShared,
}

// Encode returns the request for ids at epoch.
func (t *Tier) Encode(epoch uint64, ids []int32) (rpc.Method, []byte) {
	method, payload := t.Header(epoch, len(ids))
	return method, wire.AppendI32s(payload, ids)
}

// Response is the pending result of one wire request. *rpc.Future satisfies
// it; so does the failover layer's routed (or hedged) call. OnDone registers
// the consumer's completion hook (rpc.Completion: false means already
// resolved, run it yourself). Release hands the response's pooled payload
// buffer back (idempotent; before resolution it abandons the request).
type Response interface {
	OnDone(fn func()) bool
	Wait() ([]byte, error)
	WaitCtx(ctx context.Context) ([]byte, error)
	Release()
}

// Transport issues one wire request to a shard — the hedge → route → rpc tail
// of the fetch chain as one value. ctx carries the request's trace context
// and, on a plain client, its cancellation; the routed and hedged transports
// deliberately ignore cancellation (a failover attempt loop is shared state —
// waiters bound their own waits).
type Transport func(ctx context.Context, shard int32, m rpc.Method, payload []byte) Response

// ErrClosed fails fetches enqueued after the aggregator's machine shut down.
var ErrClosed = errors.New("agg: aggregator closed")

// Ticket is one enqueued fetch's handle on its share of a flush: rows
// [off, off+len(locals)) of the merged response.
type Ticket struct {
	locals []int32
	sig    rpc.Completion

	// Resolved by the flush completion, published by sig.
	batch Batch
	off   int
	err   error

	// Wire accounting, attributed to the ticket that opened the flush (the
	// first in the batch): the flush's single request and its payload bytes.
	// Riders report zero, so per-query sums equal the true wire totals.
	wireReqs  int64
	wireBytes int64

	// sc is the enqueuer's trace context; the flush's span (and its wire
	// request) is attributed to the opener's trace.
	sc obs.SpanContext

	// share refcounts the flush's pooled response payload when the decode
	// aliased it (Options.ZeroCopy); nil when the rows were copied out.
	share *flushShare
	lease mem.Lease
}

// flushShare is the refcount tying one flush's decoded view to its pooled
// response payload: every ticket of the flush holds one count, and the last
// Release returns the payload to its pool.
type flushShare struct {
	refs atomic.Int64
	rel  func()
}

func (s *flushShare) release() {
	if s != nil && s.refs.Add(-1) == 0 {
		s.rel()
	}
}

// resolve publishes a result that holds no share of any flush.
func (t *Ticket) resolve(b Batch, err error) {
	t.batch, t.err = b, err
	t.lease.Resolve()
	t.sig.Complete()
}

// OnDone registers the ticket's completion hook (see rpc.Completion).
func (t *Ticket) OnDone(fn func()) bool { return t.sig.OnDone(fn) }

// Wait blocks until the ticket resolves or ctx ends. On success it returns
// the decoded batch shared by every ticket of the flush plus the offset of
// this ticket's first row. Abandoning a Wait detaches only this waiter; the
// flush still resolves the other tickets and a late response is not lost.
func (t *Ticket) Wait(ctx context.Context) (b Batch, off int, err error) {
	select {
	case <-t.sig.Done():
		return t.batch, t.off, t.err
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

// Release returns this ticket's share of the flush's decoded response. With
// ZeroCopy the rows alias the pooled response payload, so the caller must
// not touch the batch returned by Wait after Release; the last
// ticket's Release returns the payload to its pool. Idempotent and nil-safe.
// Releasing before the flush resolves abandons the ticket: the completion
// drops its share for it, so a query that gave up still hands the buffer
// back.
func (t *Ticket) Release() {
	if t != nil && t.lease.Release() {
		t.share.release()
	}
}

// Accounting returns the wire requests and request bytes attributed to this
// ticket (non-zero only for the ticket that opened its flush). Before the
// ticket resolves it reports zeros.
func (t *Ticket) Accounting() (requests, bytes int64) {
	select {
	case <-t.sig.Done():
		return t.wireReqs, t.wireBytes
	default:
		return 0, 0
	}
}

// Aggregator coalesces concurrent fetches of one tier bound for one
// destination shard into merged wire requests over a single transport. It is
// shared machine-wide (like the shard and the dynamic cache): every compute
// process of a machine enqueues into the same pending batch. All methods are
// safe for concurrent use.
type Aggregator struct {
	tier  *Tier
	tr    Transport
	shard int32
	opts  Options

	mu       sync.Mutex
	pending  []*Ticket
	rows     int
	epoch    uint64 // mutation epoch of the pending batch (0 = static base)
	inFlight int
	timer    *time.Timer
	gen      uint64 // batch generation, invalidates stale timer fires
	closed   bool
	flying   sync.WaitGroup // in-flight completions, for Close

	flushes    atomic.Int64
	flushedRow atomic.Int64
	tickets    atomic.Int64
	shared     atomic.Int64
}

// New returns a neighbor-row aggregator flushing over one client. A nil
// client yields a nil aggregator (the disabled value).
func New(c *rpc.Client, opts Options) *Aggregator {
	if c == nil {
		return nil
	}
	return NewTier(Neighbors, func(ctx context.Context, _ int32, m rpc.Method, payload []byte) Response {
		return c.CallCtx(ctx, m, payload)
	}, 0, opts)
}

// NewTier returns an aggregator for one tier's fetches to shard over tr.
func NewTier(tier *Tier, tr Transport, shard int32, opts Options) *Aggregator {
	return &Aggregator{tier: tier, tr: tr, shard: shard, opts: opts}
}

// Enqueue is EnqueueAt at the base epoch with no trace context.
func (a *Aggregator) Enqueue(locals []int32) *Ticket {
	return a.EnqueueAt(obs.SpanContext{}, 0, locals)
}

// EnqueueAt adds a fetch for locals, pinned at a mutation epoch, to the
// pending batch and returns its ticket. A pending batch at a different epoch
// is flushed first and a new batch opens at the enqueuer's epoch; under a
// steady epoch batching is unaffected. sc is the enqueuer's trace context: if
// this ticket ends up opening a flush, the flush's span and wire request join
// that trace. The flush itself is issued without any per-query context: it is
// shared machine state, and one query abandoning its wait must not kill a
// response other queries are waiting on (Ticket.Wait still honors the
// waiter's own ctx).
func (a *Aggregator) EnqueueAt(sc obs.SpanContext, epoch uint64, locals []int32) *Ticket {
	t := &Ticket{locals: locals, sc: sc}
	if len(locals) == 0 {
		t.resolve(a.tier.Empty, nil)
		return t
	}
	a.tickets.Add(1)
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		t.resolve(nil, ErrClosed)
		return t
	}
	var prev, fl *flush
	if len(a.pending) > 0 && a.epoch != epoch {
		// Epoch boundary: the forming batch belongs to another graph view.
		// Ship it now rather than mixing views in one response.
		prev = a.takeLocked()
	}
	opened := len(a.pending) == 0
	a.pending = append(a.pending, t)
	a.epoch = epoch
	a.rows += len(locals)
	switch {
	case a.inFlight == 0 && opened, a.rows >= a.opts.maxRows():
		// At the row cap — or idle: no flush in flight and no batch forming
		// means no concurrent fetch to wait for, and flushing now keeps the
		// single-query fast path at zero added latency.
		fl = a.takeLocked()
	case a.timer == nil:
		// Batch just opened behind an in-flight flush: bound its wait. The
		// batch holds until this timer (or the row cap) fires, even across
		// flush completions — see the package comment.
		gen := a.gen
		a.timer = time.AfterFunc(a.opts.window(), func() { a.timedFlush(gen) })
	}
	a.mu.Unlock()
	prev.send()
	fl.send()
	return t
}

// timedFlush fires when a batch's window expires. The generation guard makes
// a stale timer (its batch already flushed by the cap or a drain) a no-op.
func (a *Aggregator) timedFlush(gen uint64) {
	var fl *flush
	a.mu.Lock()
	if a.gen == gen {
		fl = a.takeLocked()
	}
	a.mu.Unlock()
	fl.send()
}

// flush is one merged wire request: the batch it carries, then its response.
type flush struct {
	a     *Aggregator
	batch []*Ticket
	rows  int
	epoch uint64
	span  obs.ActiveSpan
	resp  Response
}

// takeLocked detaches the pending batch as a flush (nil when there is none)
// for the caller to send after unlocking: a.mu is never held across a wire
// call, so a completion hook may take it.
func (a *Aggregator) takeLocked() *flush {
	a.gen++
	if a.timer != nil {
		a.timer.Stop()
		a.timer = nil
	}
	if len(a.pending) == 0 {
		return nil
	}
	fl := &flush{a: a, batch: a.pending, rows: a.rows, epoch: a.epoch}
	a.pending, a.rows = nil, 0
	a.inFlight++
	a.flying.Add(1)
	return fl
}

// send ships the flush as one wire request completed by a hook. Nil-safe.
func (fl *flush) send() {
	if fl == nil {
		return
	}
	a, batch := fl.a, fl.batch
	method, payload := a.tier.Header(fl.epoch, fl.rows)
	for _, t := range batch {
		payload = wire.AppendI32s(payload, t.locals)
	}
	batch[0].wireReqs = 1
	batch[0].wireBytes = int64(len(payload))
	a.flushes.Add(1)
	a.flushedRow.Add(int64(fl.rows))
	a.tier.flushes.Inc(1)
	a.tier.rows.Inc(int64(fl.rows))
	if len(batch) > 1 {
		a.shared.Add(int64(len(batch)))
		a.tier.shared.Inc(int64(len(batch)))
	}
	// The flush span (and the request's trace context) belong to the opener's
	// trace; a span context derived from it keeps the rpc-server span a child
	// of the flush rather than a sibling.
	fl.span = a.opts.Tracer.StartSpan(batch[0].sc, a.tier.Span)
	sc := batch[0].sc
	if c := fl.span.Context(); c.Valid() {
		sc = c
	}
	fl.resp = a.tr(obs.ContextWith(context.Background(), sc), a.shard, method, payload)
	if !fl.resp.OnDone(fl.complete) {
		fl.complete()
	}
}

// complete is the flush's completion hook: decode once, hand every ticket its
// row range and run its hook. A batch pending behind this flush keeps
// accumulating until its own window or row cap fires.
func (fl *flush) complete() {
	a, batch := fl.a, fl.batch
	defer a.flying.Done()
	// The link is free from here — before any ticket resolves, so a waiter
	// that wakes and enqueues its next fetch finds the aggregator idle.
	a.mu.Lock()
	a.inFlight--
	a.mu.Unlock()
	payload, err := fl.resp.Wait() // resolved: does not block
	var b Batch
	aliased := false
	if err == nil {
		b, aliased, err = a.tier.Decode(payload, a.opts.ZeroCopy)
	}
	if err == nil && b.NumRows() != fl.rows {
		err = fmt.Errorf("agg: merged fetch returned %d rows, want %d", b.NumRows(), fl.rows)
	}
	var share *flushShare
	if err == nil && aliased {
		share = &flushShare{rel: fl.resp.Release}
		share.refs.Store(int64(len(batch)))
	} else {
		// Rows copied out (or the flush failed): the payload buffer can go
		// back to its pool right now.
		fl.resp.Release()
	}
	fl.span.SetErr(err != nil)
	fl.span.End()
	off := 0
	for _, t := range batch {
		t.batch, t.off, t.err, t.share = b, off, err, share
		off += len(t.locals)
		if !t.lease.Resolve() {
			share.release() // abandoned while in flight
		}
		t.sig.Complete()
	}
}

// Close ships the forming batch, fails later enqueues with ErrClosed, and
// waits for every in-flight flush to resolve its tickets. The machine closes
// its transports first, so the waits end promptly. Nil-safe.
func (a *Aggregator) Close() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.closed = true
	fl := a.takeLocked()
	a.mu.Unlock()
	fl.send()
	a.flying.Wait()
}

// Stats is a point-in-time snapshot of one aggregator's counters.
type Stats struct {
	// Flushes is the number of wire requests sent.
	Flushes int64
	// Rows is the total rows carried by those requests.
	Rows int64
	// Tickets is the number of fetches enqueued.
	Tickets int64
	// Shared counts tickets whose flush carried at least one other ticket —
	// the fetches that actually amortized a round trip.
	Shared int64
}

// Stats returns a snapshot. A nil aggregator reports zeros.
func (a *Aggregator) Stats() Stats {
	if a == nil {
		return Stats{}
	}
	return Stats{
		Flushes: a.flushes.Load(),
		Rows:    a.flushedRow.Load(),
		Tickets: a.tickets.Load(),
		Shared:  a.shared.Load(),
	}
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Flushes += other.Flushes
	s.Rows += other.Rows
	s.Tickets += other.Tickets
	s.Shared += other.Shared
}
