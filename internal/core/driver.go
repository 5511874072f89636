package core

import (
	"context"

	"pprengine/internal/admit"
	"pprengine/internal/delta"
	"pprengine/internal/metrics"
	"pprengine/internal/obs"
	"pprengine/internal/pmap"
	"pprengine/internal/shard"
)

// QueryStats describes one completed SSPPR query.
type QueryStats struct {
	Iterations     int
	Pushes         int64
	LocalRows      int64 // vertices fetched from the local shard
	RemoteRows     int64 // vertices fetched over RPC (cache hits excluded)
	HaloRows       int64 // remote vertices served by the local halo row cache
	TouchedNodes   int
	Timeouts       int64 // 1 when the query was cut short by deadline/cancel
	CacheHits      int64 // remote rows served by the dynamic neighbor-row cache
	CacheCoalesced int64 // rows that joined another query's in-flight fetch
	RPCRequests    int64 // wire requests attributed to this query (see Future.Wire)
	RequestBytes   int64 // request payload bytes attributed to this query
}

// Engine is the pop/push state machine the driver loop runs. The served
// engine is *SSPPR; internal/baseline implements the interface over the
// mutex-striped Go maps for the paper's ablations.
type Engine interface {
	// Pop returns the activated vertices and clears the set; the slices are
	// valid until the next Pop.
	Pop() (locals, shards []int32)
	// Push applies one fetched batch, row i belonging to (locals[i], shards[i]).
	// An error (a row naming a vertex outside the graph) fails the query.
	Push(batch NeighborBatch, locals, shards []int32) error
	// Work returns the Pop rounds and push operations performed so far.
	Work() (iterations int, pushes int64)
	ScoreCount() int
	RangeScores(func(pmap.Key, float64) bool)
}

// RunSSPPR executes one distributed SSPPR query for the source vertex
// (sourceLocal, g.ShardID), following the iteration loop of Figure 4:
//
//	pop activated vertices → mask by destination shard → issue remote
//	fetches → fetch + push local → wait + push remote.
//
// With cfg.Overlap the local fetch and push run while remote responses are
// in flight; without it all fetches complete before any push. bd, when
// non-nil, accumulates the per-phase timing breakdown.
//
// The query honors ctx (plus cfg.QueryTimeout when set): cancellation is
// checked between push iterations and on every remote wait, so a cancelled
// query stops doing local work too and returns ctx's error. Aborted queries
// report Timeouts=1 in their stats and bump metrics.QueryTimeouts.
//
// The returned state stays readable until the caller Releases it (optional,
// see SSPPR.Release).
func RunSSPPR(ctx context.Context, g *DistGraphStorage, sourceLocal int32, cfg Config, bd *metrics.Breakdown) (*SSPPR, QueryStats, error) {
	q, err := beginQuery(ctx, g, &cfg)
	if err != nil {
		return nil, q.stats, err
	}
	// The state is drawn only now, behind admission: a queued query holds no
	// table.
	m := newEmptySSPPR(cfg)
	m.bind(g)
	var stats QueryStats
	if err = m.seed(sourceLocal, g.ShardID); err == nil {
		stats, err = runLoop(q.ctx, g, m, &m.st.loop, cfg, bd)
	}
	q.end(&stats, err)
	return m, stats, err
}

// RunEngine is RunSSPPR for a caller-built engine: the same admission gate,
// epoch pin, trace root and driver loop around eng's Pop and Push.
func RunEngine(ctx context.Context, g *DistGraphStorage, eng Engine, cfg Config, bd *metrics.Breakdown) (QueryStats, error) {
	q, err := beginQuery(ctx, g, &cfg)
	if err != nil {
		return q.stats, err
	}
	stats, err := runLoop(q.ctx, g, eng, new(loopScratch), cfg, bd)
	q.end(&stats, err)
	return stats, err
}

// queryScope is what a query holds from admission to its last push: the
// derived context, the trace root, the admission slot and the epoch pin.
type queryScope struct {
	ctx    context.Context
	cancel context.CancelFunc
	root   obs.ActiveSpan
	grant  *admit.Grant
	delta  *delta.Store // non-nil when this scope pinned epoch itself
	epoch  uint64
	stats  QueryStats // of a query refused before it ran
}

// beginQuery opens a query's scope and resolves cfg.PinnedEpoch. On error the
// scope is already closed.
func beginQuery(ctx context.Context, g *DistGraphStorage, cfg *Config) (queryScope, error) {
	var q queryScope
	q.ctx, q.cancel = cfg.applyQueryTimeout(ctx)
	// Root span of the query's trace. A context already carrying a trace
	// (owner-compute dispatch: the coordinator sampled this query and its
	// context crossed the wire) joins it; otherwise this machine makes the
	// head-based sampling decision.
	q.root = startQuerySpan(g.Tracer, q.ctx)
	q.ctx = obs.ContextWith(q.ctx, q.root.Context())
	// Admission gate: with a controller attached the query first claims an
	// execution slot — or is shed (admit.ErrShed) / queued under its
	// priority. The gate sits AFTER applyQueryTimeout so the deadline
	// feasibility check sees the query's real budget, and inside the root
	// span so traces show the "admit:wait" time a saturated machine adds.
	if g.Admit != nil {
		waitSpan := g.Tracer.StartSpan(obs.FromContext(q.ctx), "admit:wait")
		var aerr error
		q.grant, aerr = g.Admit.Acquire(q.ctx, admit.Request{Tenant: cfg.Tenant, Priority: cfg.Priority})
		waitSpan.SetErr(aerr != nil)
		waitSpan.End()
		if aerr != nil {
			q.end(&q.stats, aerr)
			return q, aerr
		}
	}
	// Epoch resolution for mutable deployments: the query pins ONE mutation
	// epoch for its whole lifetime, so every fetch — local, remote, halo,
	// cached — reads the same consistent snapshot while writers race ahead.
	// Precedence: a caller-set cfg.PinnedEpoch (the caller owns that pin),
	// else the epoch the admission grant stamped (the grant owns it, released
	// with the slot), else pin the store's current epoch here. Epoch 0 — a
	// static deployment, or no mutations yet — keeps the legacy path exactly.
	if cfg.PinnedEpoch == 0 && g.Delta != nil {
		if q.grant != nil && q.grant.Epoch != 0 {
			cfg.PinnedEpoch = q.grant.Epoch
		} else if e := g.Delta.PinCurrent(); e != 0 {
			cfg.PinnedEpoch = e
			q.delta, q.epoch = g.Delta, e
		}
	}
	return q, nil
}

// end closes the scope: releases the admission slot (recording the service
// time on success), counts a deadline abort into stats, and ends the root
// span, the epoch pin and the derived context.
func (q *queryScope) end(stats *QueryStats, err error) {
	q.grant.Release(err == nil) // nil-safe
	if err != nil && isCtxErr(err) {
		stats.Timeouts++
		metrics.QueryTimeouts.Inc(1)
	}
	q.root.SetErr(err != nil)
	q.root.End()
	if q.delta != nil {
		q.delta.Unpin(q.epoch)
	}
	q.cancel()
}

// startQuerySpan opens the "query" span: as a child when ctx already carries
// a sampled trace, as a new sampled-or-not root otherwise.
func startQuerySpan(tr *obs.Tracer, ctx context.Context) obs.ActiveSpan {
	if sc := obs.FromContext(ctx); sc.Valid() {
		return tr.StartSpan(sc, "query")
	}
	return tr.StartTrace("query")
}

// pendingFetch is one remote fetch of the round in flight.
type pendingFetch struct {
	shard int32
	fut   *InfoFuture
}

// loopScratch holds the driver loop's per-round buffers: the per-shard
// grouping, the halo diversion slices, the pending-fetch list, the constant
// shard-ID column of a push and the batches local rows are served through.
// Each is reset, never reallocated, per round, and the served engine carries
// the whole set from query to query.
type loopScratch struct {
	byShard                [][]int32
	remotes                []pendingFetch
	batches                []NeighborBatch // synchronous (non-Overlap) variant only
	haloVPs                vpBatch
	haloLocals, haloShards []int32
	shardIDs               []int32
	local                  localRows
}

// reset drops what the scratch references outside itself — futures, response
// batches, shard rows — so a recycled state pins none of a finished query's
// or a closed cluster's memory.
func (sc *loopScratch) reset() {
	clear(sc.remotes[:cap(sc.remotes)])
	clear(sc.batches[:cap(sc.batches)])
	clear(sc.haloVPs[:cap(sc.haloVPs)])
	sc.local = localRows{}
}

// sameShard returns n copies of shard, the shard column of a single-shard
// push batch.
func (sc *loopScratch) sameShard(n int, shard int32) []int32 {
	if cap(sc.shardIDs) < n {
		sc.shardIDs = make([]int32, n)
	}
	s := sc.shardIDs[:n]
	for i := range s {
		s[i] = shard
	}
	return s
}

// runLoop drives the pop/fetch/push loop on an already-constructed engine
// until the residual frontier drains. It is the shared engine of a fresh run
// (RunSSPPR), a baseline run (RunEngine) and an incremental re-push
// (RunSSPPRIncrementalTopK), which seeds the state with cached
// reserves/residuals plus a mutation-correction frontier before resuming the
// identical loop.
func runLoop(ctx context.Context, g *DistGraphStorage, m Engine, sc *loopScratch, cfg Config, bd *metrics.Breakdown) (stats QueryStats, err error) {
	defer func() {
		if err != nil {
			// An aborted query leaves fetches in flight: it gives up its hold
			// on their response buffers (a fetch released unresolved hands its
			// buffer back when it lands), and since they still read the ID
			// slices they were issued with, the next user of sc must not write
			// into those.
			for _, p := range sc.remotes {
				p.fut.Release()
			}
			clear(sc.byShard)
		}
	}()
	// Phase spans mirror bd's phases for sampled queries; tr is nil-safe and
	// qsc is zero for unsampled ones, making every StartSpan below a no-op.
	tr, qsc := g.Tracer, obs.FromContext(ctx)
	if cap(sc.byShard) < int(g.NumShards) {
		sc.byShard = make([][]int32, g.NumShards)
	}
	byShard := sc.byShard[:g.NumShards]
	self := g.ShardID
	// bd.Time takes closures that stay on the stack; bd.Start's stop function
	// is a heap object per call.
	pushShard := func(batch NeighborBatch, sh int32) (err error) {
		pushSpan := tr.StartSpan(qsc, "push")
		bd.Time(metrics.PhasePush, func() {
			err = m.Push(batch, byShard[sh], sc.sameShard(len(byShard[sh]), sh))
		})
		pushSpan.SetErr(err != nil)
		pushSpan.End()
		return err
	}
	// account adds a resolved fetch's wire counters to stats. It
	// must run after the wait: an aggregated fetch only knows its share of
	// the flush once the flush resolved.
	account := func(fut *InfoFuture) {
		reqs, bytes := fut.Wire()
		stats.RPCRequests += reqs
		stats.RequestBytes += bytes
	}
	// wait resolves one remote fetch of the round.
	wait := func(p pendingFetch) (batch NeighborBatch, err error) {
		waitSpan := tr.StartSpan(qsc, "remote-fetch")
		waitSpan.SetShard(p.shard)
		bd.Time(metrics.PhaseRemoteFetch, func() {
			batch, err = p.fut.WaitCtx(ctx)
			account(p.fut)
		})
		waitSpan.SetErr(err != nil)
		waitSpan.End()
		return batch, err
	}
	pushLocal := func() error {
		if len(sc.haloVPs) > 0 {
			// Halo-cached rows: shared-memory fetch, like local rows.
			stats.HaloRows += int64(len(sc.haloVPs))
			var err error
			bd.Time(metrics.PhasePush, func() { err = m.Push(&sc.haloVPs, sc.haloLocals, sc.haloShards) })
			if err != nil {
				return err
			}
		}
		if len(byShard[self]) == 0 {
			return nil
		}
		var batch NeighborBatch
		var err error
		fetchSpan := tr.StartSpan(qsc, "local-fetch")
		fetchSpan.SetShard(self)
		bd.Time(metrics.PhaseLocalFetch, func() {
			batch, err = g.readLocal(byShard[self], cfg.PinnedEpoch, &sc.local)
		})
		fetchSpan.SetErr(err != nil)
		fetchSpan.End()
		if err != nil {
			return err
		}
		stats.LocalRows += int64(len(byShard[self]))
		return pushShard(batch, self)
	}
	for {
		// Deadline check at the top of every push iteration: a cancelled
		// query must stop spending CPU on pop/push, not just on fetches.
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		var locals, shards []int32
		popSpan := tr.StartSpan(qsc, "pop")
		bd.Time(metrics.PhasePop, func() { locals, shards = m.Pop() })
		popSpan.End()
		if len(locals) == 0 {
			break
		}
		// Mask construction: group the activated vertices by destination
		// shard (the tensor-mask step of Figure 4). When the shard caches
		// halo rows (§3.2.1's higher-hop configuration), remote vertices
		// with a cached row are diverted to a shared-memory halo batch.
		for i := range byShard {
			byShard[i] = byShard[i][:0]
		}
		sc.haloVPs = sc.haloVPs[:0]
		sc.haloLocals, sc.haloShards = sc.haloLocals[:0], sc.haloShards[:0]
		useHalo := g.Local.HasHaloRows()
		epoch := cfg.PinnedEpoch
		for i, l := range locals {
			sh := shards[i]
			if uint32(sh) >= uint32(g.NumShards) {
				// Only an unbounded engine (internal/baseline) lets such a
				// key through; the owner of the bad vertex is nobody.
				return stats, badVertex(l, sh)
			}
			if useHalo && sh != self {
				var vp shard.VertexProp
				var ok bool
				if epoch != 0 && g.Delta != nil {
					// Epoch-pinned queries must not read a stale halo copy: the
					// delta store resolves the row through its current base of
					// this shard (rebuilt by compaction) and the row's newer
					// versions — still a shared-memory read, no RPC.
					vp, ok = g.Delta.HaloRow(self, sh, l, epoch)
				} else {
					vp, ok = g.Local.HaloRow(sh, l)
				}
				if ok {
					sc.haloVPs = append(sc.haloVPs, vp)
					sc.haloLocals = append(sc.haloLocals, l)
					sc.haloShards = append(sc.haloShards, sh)
					continue
				}
			}
			byShard[sh] = append(byShard[sh], l)
		}

		// Issue remote fetches first so they progress in the background.
		sc.remotes = sc.remotes[:0]
		bd.Time(metrics.PhaseRemoteFetch, func() {
			for j := int32(0); j < g.NumShards; j++ {
				if j == self || len(byShard[j]) == 0 {
					continue
				}
				fut := g.GetNeighborInfos(ctx, j, byShard[j], cfg)
				sc.remotes = append(sc.remotes, pendingFetch{j, fut})
				// With the dynamic cache, rows served from shared memory or a
				// coalesced in-flight fetch are not RPC traffic.
				stats.RemoteRows += fut.RemoteRows
				stats.CacheHits += fut.CacheHits
				stats.CacheCoalesced += fut.CacheCoalesced
			}
		})

		if cfg.Overlap {
			// Local work proceeds while remote responses are in flight.
			if err := pushLocal(); err != nil {
				return stats, err
			}
			for _, p := range sc.remotes {
				batch, err := wait(p)
				if err != nil {
					return stats, err
				}
				err = pushShard(batch, p.shard)
				// The push copied what it keeps; the pooled response buffer
				// backing the batch goes back to its pool.
				p.fut.Release()
				if err != nil {
					return stats, err
				}
			}
		} else {
			// Synchronous variant: complete every fetch before pushing.
			sc.batches = sc.batches[:0]
			for _, p := range sc.remotes {
				batch, err := wait(p)
				if err != nil {
					return stats, err
				}
				sc.batches = append(sc.batches, batch)
			}
			if err := pushLocal(); err != nil {
				return stats, err
			}
			for i, p := range sc.remotes {
				err := pushShard(sc.batches[i], p.shard)
				p.fut.Release()
				if err != nil {
					return stats, err
				}
			}
		}
	}
	stats.Iterations, stats.Pushes = m.Work()
	stats.TouchedNodes = m.ScoreCount()
	return stats, nil
}

// ScoresGlobal converts a query's sparse result to global node IDs using
// the storage's locator.
func ScoresGlobal(g *DistGraphStorage, m Engine) map[int32]float64 {
	out := make(map[int32]float64, m.ScoreCount())
	m.RangeScores(func(k pmap.Key, v float64) bool {
		out[int32(g.Locator.Global(k.Shard, k.Local))] = v
		return true
	})
	return out
}
