package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pprengine/internal/agg"
	"pprengine/internal/cache"
	"pprengine/internal/ha"
	"pprengine/internal/mem"
	"pprengine/internal/obs"
	"pprengine/internal/wire"
)

// The fetch chain (DESIGN.md "Fetch chain") is the one remote-access path of
// the engine:
//
//	key (epoch, shard, local) → cache hit → single-flight → aggregate →
//	hedge → route → rpc → decode once → demux
//
// It is instantiated twice — neighbor rows and feature rows — and every stage
// is optional: a bare handle has only the rpc tail. What differs per row type
// is a tier value fixed at construction; the stages themselves (cache.LRU,
// agg.Aggregator, agg.Transport) are shared code.
//
// Buffer ownership has one rule. A response is decoded exactly once. Then
// either (cached) each row is copied into cache-owned storage and the buffer
// goes home at once, or (uncached) the caller gets a view aliasing the pooled
// buffer, which goes home when the caller Releases the future.
//
// Completion has one rule too (rpc.Completion). The response travels back as
// a chain of hooks — rpc future → routed/hedged call → flush → fetch — on the
// connection's read loop, and a cache-mediated fetch does all the response
// owes the machine there: decode, fulfil the flights it leads (which inserts
// them), send the buffer home — whether or not its leader still waits.

// tier binds one row type to the chain: the wire half it shares with the
// aggregator, plus how decoded rows become cache entries and caller views.
type tier[R, V any] struct {
	wire     *agg.Tier
	waitSpan string // the span timing a query blocked on single-flight fills
	// fulfill copies rows [off, off+len(flights)) of b into cache-owned
	// storage, one per flight.
	fulfill func(b agg.Batch, off int, flights []*cache.Flight[R])
	// view wraps rows [off, off+n) of b for the caller without copying.
	view func(b agg.Batch, off, n int) V
	// assemble builds the caller's view from cache-owned rows.
	assemble func(rows []R) (V, error)
	// wrapErr maps a remote error back to the tier's typed sentinels.
	wrapErr func(error) error
}

var neighborTier = &tier[cache.Row, NeighborBatch]{
	wire:     agg.Neighbors,
	waitSpan: "cache:wait",
	fulfill: func(b agg.Batch, off int, flights []*cache.Flight[cache.Row]) {
		infos := b.(*wire.NeighborInfos)
		for i, fl := range flights {
			fl.Fulfill(copyRow(infos, off+i), nil)
		}
	},
	view: func(b agg.Batch, off, n int) NeighborBatch {
		return &infosBatch{n: b.(*wire.NeighborInfos), off: off, rows: n}
	},
	assemble: func(rows []cache.Row) (NeighborBatch, error) { return &rowBatch{rows: rows}, nil },
	wrapErr:  func(err error) error { return err },
}

var featureTier = &tier[[]float32, agg.FeatureBlock]{
	wire:     agg.Features,
	waitSpan: "featcache:wait",
	fulfill: func(b agg.Batch, off int, flights []*cache.Flight[[]float32]) {
		fb := b.(*agg.FeatureBlock)
		for i, fl := range flights {
			fl.Fulfill(append([]float32(nil), fb.Rows(off+i, 1)...), nil)
		}
	},
	view: func(b agg.Batch, off, n int) agg.FeatureBlock {
		fb := b.(*agg.FeatureBlock)
		return agg.FeatureBlock{Dim: fb.Dim, Data: fb.Rows(off, n)}
	},
	// The block is assembled into a fresh contiguous slice — cache rows stay
	// cache-owned.
	assemble: func(rows [][]float32) (agg.FeatureBlock, error) {
		out := agg.FeatureBlock{Data: []float32{}}
		if len(rows) == 0 {
			return out, nil
		}
		out.Dim = len(rows[0])
		out.Data = make([]float32, 0, len(rows)*out.Dim)
		for i, row := range rows {
			if len(row) != out.Dim {
				return agg.FeatureBlock{}, fmt.Errorf("core: cached feature rows disagree on dim: %d vs %d (row %d)", out.Dim, len(row), i)
			}
			out.Data = append(out.Data, row...)
		}
		return out, nil
	},
	wrapErr: wrapFeatureErr,
}

// copyRow copies batch row i into cache-owned storage, so a cached hub row
// does not pin the whole decoded response. One int32 and one float32 backing
// array serve all four slices.
func copyRow(infos *wire.NeighborInfos, i int) cache.Row {
	l, s, w, d := infos.Row(i)
	deg := len(l)
	ints := make([]int32, 2*deg)
	floats := make([]float32, 2*deg)
	r := cache.Row{
		Locals:  ints[:deg:deg],
		Shards:  ints[deg:],
		Weights: floats[:deg:deg],
		WDegs:   floats[deg:],
		WDeg:    infos.RowWDeg[i],
	}
	copy(r.Locals, l)
	copy(r.Shards, s)
	copy(r.Weights, w)
	copy(r.WDegs, d)
	return r
}

// Chain is one row type's fetch chain on a compute handle. Cache and Aggs are
// machine-shared stages the machine's builder (internal/stack) installs on
// every handle of the machine; nil leaves the stage out, preserving the
// paper's ablation behavior exactly.
type Chain[R, V any] struct {
	// Cache, when non-nil, serves repeated rows from shared memory and
	// coalesces concurrent fetches of one row into one RPC.
	Cache *cache.LRU[R]
	// Aggs, when non-nil, holds the per-destination-shard cross-query
	// aggregators (indexed by shard ID; the local entry is nil): concurrent
	// queries' fetches to one shard merge into one wire request.
	Aggs []*agg.Aggregator

	t *tier[R, V]
	g *DistGraphStorage
}

// aggFor returns the aggregator for dst, nil when the stage is out.
func (c *Chain[R, V]) aggFor(dst int32) *agg.Aggregator {
	if c.Aggs == nil {
		return nil
	}
	return c.Aggs[dst]
}

// bare reports whether the chain to dst is only its rpc tail.
func (c *Chain[R, V]) bare(dst int32) bool { return c.Cache == nil && c.aggFor(dst) == nil }

// fetch sends locals of remote shard dst, as of epoch, down the chain. mass,
// when non-nil, is each row's cache-admission signal. zeroCopy selects the
// view decoder for a request this fetch issues itself (an aggregated one
// follows its aggregator's setting).
//
// A cache-mediated request is shared machine-wide state, so it is issued
// without the query's context: a query abandoning its wait (WaitCtx still
// honors ctx per waiter) must not kill a response that other queries — and
// the cache — are waiting on. Its trace context still rides the frame.
func (c *Chain[R, V]) fetch(ctx context.Context, dst int32, epoch uint64, locals []int32, mass []float64, zeroCopy bool) *Future[R, V] {
	f := &Future[R, V]{t: c.t, dst: dst, n: len(locals)}
	sc := obs.FromContext(ctx)
	lead := locals
	if c.Cache != nil {
		// Row i is a hit (filled now), a flight this fetch leads, or a flight
		// another query's fetch leads. The rows this fetch leads are DISTINCT
		// — the cache already deduplicated identical ones — and go down the
		// rest of the chain as one request.
		f.rows = make([]R, len(locals))
		f.flights = make([]*cache.Flight[R], len(locals))
		f.tr, f.sc = c.g.Tracer, sc
		lead = nil
		for i, l := range locals {
			m := 0.0
			if mass != nil {
				m = mass[i]
			}
			row, hit, fl, leader := c.Cache.GetOrReserveAt(dst, l, epoch, m)
			switch {
			case hit:
				f.rows[i] = row
				f.CacheHits++
			case leader:
				f.flights[i] = fl
				lead = append(lead, l)
				f.leaders = append(f.leaders, fl)
			default:
				f.flights[i] = fl
				f.CacheCoalesced++
			}
		}
		if len(lead) == 0 {
			return f
		}
	}
	f.RemoteRows = int64(len(lead))
	if ag := c.aggFor(dst); ag != nil {
		f.src = ag.EnqueueAt(sc, epoch, lead)
	} else {
		if c.Cache != nil {
			ctx = obs.ContextWith(context.Background(), sc)
		}
		method, payload := c.t.wire.Encode(epoch, lead)
		f.src = &direct{
			Response: c.g.Transport(ctx, dst, method, payload),
			decode:   c.t.wire.Decode, zeroCopy: zeroCopy, rows: len(lead), bytes: int64(len(payload)),
		}
	}
	if f.leaders != nil && !f.src.OnDone(f.fulfil) {
		f.fulfil() // already resolved: the hook is ours to run
	}
	return f
}

// source is the wire request behind a fetch: an aggregator ticket or a direct
// call. Wait blocks for the rows (decoded at most once) or ctx's end, and not
// at all inside the OnDone hook; Release is idempotent.
type source interface {
	OnDone(fn func()) bool
	Wait(ctx context.Context) (b agg.Batch, off int, err error)
	Release()
	Accounting() (requests, bytes int64)
}

// direct is one un-aggregated wire request and its decode-once result.
type direct struct {
	agg.Response // the transport's pending result
	decode       func(payload []byte, zeroCopy bool) (agg.Batch, bool, error)
	zeroCopy     bool
	rows         int
	bytes        int64 // request payload size

	once     sync.Once
	b        agg.Batch
	err      error
	arena    *mem.Arena // decode target of the list-of-lists ablation
	released atomic.Bool
}

var errAbandoned = errors.New("core: fetch released before it resolved")

func (d *direct) Accounting() (int64, int64) { return 1, d.bytes }

func (d *direct) Wait(ctx context.Context) (agg.Batch, int, error) {
	payload, err := d.Response.WaitCtx(ctx)
	if err != nil && ctx.Err() != nil {
		return nil, 0, ctx.Err()
	}
	d.once.Do(func() {
		aliased := false
		if err == nil {
			d.b, aliased, err = d.decode(payload, d.zeroCopy)
		}
		if err == nil && d.b.NumRows() != d.rows {
			err = fmt.Errorf("core: fetch returned %d rows, want %d", d.b.NumRows(), d.rows)
		}
		d.err = err
		if err != nil || !aliased {
			// Rows copied out (or the fetch failed): the payload buffer can
			// go back to its pool right now.
			d.Response.Release()
		}
	})
	return d.b, 0, d.err
}

// Release hands back the response buffer a view decode kept — or, on a
// request that has not resolved, abandons it: the transport's future recycles
// the response itself when it lands.
func (d *direct) Release() {
	d.once.Do(func() { d.err = errAbandoned })
	if d.released.CompareAndSwap(false, true) {
		d.Response.Release()
		mem.PutArena(d.arena)
	}
}

// Future is the engine's one pending-fetch type: the rows of one destination
// shard, resolved from shared memory, cache hits, single-flight fills, or one
// wire request.
type Future[R, V any] struct {
	// RemoteRows counts the rows this fetch requests over RPC (with the
	// cache: the rows it leads). CacheHits / CacheCoalesced count rows served
	// from the shared cache and rows riding another query's in-flight fetch.
	// All three are known at issue time.
	RemoteRows, CacheHits, CacheCoalesced int64

	t   *tier[R, V]
	dst int32 // destination shard, for peer-fault attribution
	n   int

	resolved bool
	v        V
	err      error

	// Cache-mediated fetches: rows[i] was a hit or is filled by flights[i].
	rows    []R
	flights []*cache.Flight[R]
	// leaders are the flights this fetch leads; src's completion hook (fulfil)
	// resolves them, so an abandoned leader never strands coalesced waiters.
	leaders []*cache.Flight[R]

	// src is the wire request this fetch issued (nil: none needed). Uncached,
	// it is the wait source and the future holds its buffer until Release;
	// cache-mediated, fulfil owns it and the future only reads its
	// accounting.
	src source

	// tr/sc time a traced query's wait on single-flight fills.
	tr *obs.Tracer
	sc obs.SpanContext
}

// InfoFuture is the pending result of a neighbor-row fetch.
type InfoFuture = Future[cache.Row, NeighborBatch]

// FeatureFuture is the pending result of a feature-row fetch: a row-major
// [len(locals) x Dim] block.
type FeatureFuture = Future[[]float32, agg.FeatureBlock]

// resolved futures: shared-memory reads and issue-time failures.
func readyFuture[R, V any](v V, err error) *Future[R, V] {
	return &Future[R, V]{resolved: true, v: v, err: err}
}

// fulfil is the completion hook of a cache-mediated fetch's wire request: it
// fulfils the flights the fetch leads — each row copied into cache-owned
// storage and inserted — and sends the response buffer home, so an abandoned
// leader still resolves its flights and returns its buffer.
func (f *Future[R, V]) fulfil() {
	b, off, err := f.src.Wait(context.Background()) // resolved: does not block
	if err != nil {
		err = f.t.wrapErr(err)
		var zero R
		for _, fl := range f.leaders {
			fl.Fulfill(zero, err)
		}
	} else {
		f.t.fulfill(b, off, f.leaders)
	}
	f.src.Release()
}

// Wait blocks for the rows.
func (f *Future[R, V]) Wait() (V, error) { return f.WaitCtx(context.Background()) }

// WaitCtx is Wait bounded by a context: it returns ctx.Err() as soon as ctx
// ends, even with the response still in flight.
func (f *Future[R, V]) WaitCtx(ctx context.Context) (V, error) {
	if f.resolved {
		return f.v, f.err
	}
	f.resolved = true
	if f.flights != nil {
		// Hits are in place; every other row waits on its flight. The wait is
		// timed when at least one row is in flight: the time this query spent
		// blocked on its own request or on another query's.
		var span obs.ActiveSpan
		waiting := false
		for i, fl := range f.flights {
			if fl == nil {
				continue
			}
			if !waiting {
				waiting = true
				span = f.tr.StartSpan(f.sc, f.t.waitSpan)
				span.SetShard(f.dst)
			}
			if f.rows[i], f.err = fl.Wait(ctx); f.err != nil {
				break
			}
		}
		span.SetErr(f.err != nil)
		span.End()
		if f.err == nil {
			f.v, f.err = f.t.assemble(f.rows)
		}
	} else if b, off, err := f.src.Wait(ctx); err == nil {
		f.v = f.t.view(b, off, f.n)
	} else {
		f.err = f.t.wrapErr(err)
	}
	f.err = wrapPeerErr(f.dst, f.err)
	return f.v, f.err
}

// Release hands back the pooled response buffer backing the view WaitCtx
// returned. Call it only after every read of that view — afterwards its rows
// may alias recycled memory. Idempotent and nil-safe; a no-op for futures
// whose view owns its memory (shared-memory reads, cache-assembled rows,
// copy-decoded responses). Releasing an unresolved fetch abandons it.
func (f *Future[R, V]) Release() {
	if f != nil && f.flights == nil && f.src != nil {
		f.src.Release()
	}
}

// Wire returns the wire requests and request payload bytes attributed to this
// fetch. An aggregated flush is shared: its one request is charged to the
// fetch that opened it and zero to the riders, so per-query sums still equal
// the true wire totals. Call after the fetch resolved — an aggregated fetch
// reports zeros until its flush completes.
func (f *Future[R, V]) Wire() (requests, bytes int64) {
	if f.src == nil {
		return 0, 0
	}
	return f.src.Accounting()
}

// wrapPeerErr attributes a remote-fetch failure to the destination shard
// (the primary's machine index equals the shard index in this engine).
// Waiter-side cancellations are not peer faults and pass through unwrapped;
// router errors already carry the actual machine tried and are preserved.
func wrapPeerErr(dstShard int32, err error) error {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return ha.WrapPeer(int(dstShard), dstShard, "", err)
}
