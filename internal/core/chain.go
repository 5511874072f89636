package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"pprengine/internal/agg"
	"pprengine/internal/cache"
	"pprengine/internal/ha"
	"pprengine/internal/mem"
	"pprengine/internal/obs"
	"pprengine/internal/rpc"
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
	// copyRow copies row i of b into cache-owned storage.
	copyRow func(b agg.Batch, i int) R
	// view wraps rows [off, off+n) of b for the caller without copying.
	view func(b agg.Batch, off, n int) V
	// assemble builds the caller's view from the fetch's resolved lookups.
	assemble func(ls *[]cache.Lookup[R]) (V, error)
	// wrapErr maps a remote error back to the tier's typed sentinels.
	wrapErr func(error) error
}

var neighborTier = &tier[cache.Row, NeighborBatch]{
	wire:     agg.Neighbors,
	waitSpan: "cache:wait",
	copyRow:  func(b agg.Batch, i int) cache.Row { return copyRow(b.(*wire.NeighborInfos), i) },
	view: func(b agg.Batch, off, n int) NeighborBatch {
		return &infosBatch{n: b.(*wire.NeighborInfos), off: off, rows: n}
	},
	// The batch reads the rows in place: no copy, no allocation.
	assemble: func(ls *[]cache.Lookup[cache.Row]) (NeighborBatch, error) { return (*rowBatch)(ls), nil },
	wrapErr:  func(err error) error { return err },
}

var featureTier = &tier[[]float32, agg.FeatureBlock]{
	wire:     agg.Features,
	waitSpan: "featcache:wait",
	copyRow: func(b agg.Batch, i int) []float32 {
		return append([]float32(nil), b.(*agg.FeatureBlock).Rows(i, 1)...)
	},
	view: func(b agg.Batch, off, n int) agg.FeatureBlock {
		fb := b.(*agg.FeatureBlock)
		return agg.FeatureBlock{Dim: fb.Dim, Data: fb.Rows(off, n)}
	},
	// The block is assembled into a fresh contiguous slice — cache rows stay
	// cache-owned.
	assemble: func(ls *[]cache.Lookup[[]float32]) (agg.FeatureBlock, error) {
		out := agg.FeatureBlock{Data: []float32{}}
		if len(*ls) == 0 {
			return out, nil
		}
		out.Dim = len((*ls)[0].Row)
		out.Data = make([]float32, 0, len(*ls)*out.Dim)
		for i := range *ls {
			row := (*ls)[i].Row
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
// does not pin the whole decoded response. All four columns are carved from
// one pointer-free block — the float columns alias it the way the wire view
// decoder aliases typed columns over one buffer — so a row costs one object.
func copyRow(infos *wire.NeighborInfos, i int) cache.Row {
	l, s, w, d := infos.Row(i)
	deg := len(l)
	block := make([]int32, 4*deg)
	r := cache.Row{
		Locals:  block[:deg:deg],
		Shards:  block[deg : 2*deg : 2*deg],
		Weights: asF32s(block[2*deg : 3*deg]),
		WDegs:   asF32s(block[3*deg:]),
		WDeg:    infos.RowWDeg[i],
	}
	copy(r.Locals, l)
	copy(r.Shards, s)
	copy(r.Weights, w)
	copy(r.WDegs, d)
	return r
}

// asF32s reinterprets a block of 4-byte words as float32s.
func asF32s(b []int32) []float32 {
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(b))), len(b))
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
		f.cache, f.lookups = c.Cache, make([]cache.Lookup[R], len(locals))
		f.tr, f.sc = c.g.Tracer, sc
		hits, leads, coalesced := c.Cache.GetOrReserveAll(dst, epoch, locals, mass, f.lookups)
		f.CacheHits, f.CacheCoalesced = int64(hits), int64(coalesced)
		if leads == 0 {
			return f
		}
		lead = make([]int32, 0, leads)
		for i := range f.lookups {
			if f.lookups[i].State == cache.Lead {
				lead = append(lead, locals[i])
			}
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
	if f.lookups != nil && !f.src.OnDone(f.fulfil) {
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

	// Cache-mediated fetches: one lookup per requested row — a hit, a row
	// this fetch leads (fulfil stores it), or another fetch's flight. filled
	// completes once fulfil has stored the led rows, or set leadErr.
	cache   *cache.LRU[R]
	lookups []cache.Lookup[R]
	filled  rpc.Completion
	leadErr error

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
// copies each row the fetch leads into cache-owned storage — no lock held —
// and releases the leading query, which needs nothing more; then it fulfils
// the flights, which inserts the rows and hands them to every query that
// coalesced onto them, and sends the response buffer home. An abandoned
// leader thus still resolves its flights and returns its buffer. From the
// Complete on, the query reads the lookups' rows and writes its coalesced
// ones while FulfillAll reads the led ones: disjoint fields.
func (f *Future[R, V]) fulfil() {
	b, off, err := f.src.Wait(context.Background()) // resolved: does not block
	if err != nil {
		err = f.t.wrapErr(err)
	} else {
		for i := range f.lookups {
			if l := &f.lookups[i]; l.State == cache.Lead {
				l.Row = f.t.copyRow(b, off)
				off++
			}
		}
	}
	f.leadErr = err
	f.filled.Complete()
	f.cache.FulfillAll(f.lookups, err)
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
	if f.lookups != nil {
		if f.err = f.waitRows(ctx); f.err == nil {
			f.v, f.err = f.t.assemble(&f.lookups)
		}
	} else if b, off, err := f.src.Wait(ctx); err == nil {
		f.v = f.t.view(b, off, f.n)
	} else {
		f.err = f.t.wrapErr(err)
	}
	f.err = wrapPeerErr(f.dst, f.err)
	return f.v, f.err
}

// waitRows blocks until every row of a cache-mediated fetch is in its lookup:
// the rows it leads (fulfil stores them) and those riding other fetches'
// flights. The wait is timed when anything was in flight: the time this
// query spent blocked on its own request or on another query's.
func (f *Future[R, V]) waitRows(ctx context.Context) (err error) {
	if f.src == nil && f.CacheCoalesced == 0 {
		return nil // all hits
	}
	span := f.tr.StartSpan(f.sc, f.t.waitSpan)
	span.SetShard(f.dst)
	if f.src != nil {
		select {
		case <-f.filled.Done():
			err = f.leadErr
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	for i := 0; i < len(f.lookups) && err == nil; i++ {
		if l := &f.lookups[i]; l.State == cache.Coalesced {
			l.Row, err = l.Flight.Wait(ctx)
		}
	}
	span.SetErr(err != nil)
	span.End()
	return err
}

// Release hands back the pooled response buffer backing the view WaitCtx
// returned. Call it only after every read of that view — afterwards its rows
// may alias recycled memory. Idempotent and nil-safe; a no-op for futures
// whose view owns its memory (shared-memory reads, cache-assembled rows,
// copy-decoded responses). Releasing an unresolved fetch abandons it.
func (f *Future[R, V]) Release() {
	if f != nil && f.lookups == nil && f.src != nil {
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
