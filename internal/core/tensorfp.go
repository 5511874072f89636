package core

import (
	"context"
	"math"

	"pprengine/internal/graph"
	"pprengine/internal/metrics"
	"pprengine/internal/tensor"
)

// RunTensorSSPPR is the "PyTorch Tensor" baseline of §4.2: the same
// distributed parallel Forward Push, but holding the query state in dense
// |V|-length vectors and detecting the frontier with a full tensor scan.
// It talks to the identical DistGraphStorage (batched, CSR-compressed RPC),
// so the only difference from the engine is the data structure — which is
// exactly the comparison the paper makes.
//
// The per-iteration O(|V|) frontier scan is charged to PhasePop so the
// breakdown experiments can include or omit it, as the paper does in
// Figure 6.
//
// Like RunSSPPR, the baseline honors ctx plus cfg.QueryTimeout: the context
// is checked before every iteration and on every fetch wait.
func RunTensorSSPPR(ctx context.Context, g *DistGraphStorage, sourceLocal int32, cfg Config, bd *metrics.Breakdown) (tensor.Vec, QueryStats, error) {
	ctx, cancel := cfg.applyQueryTimeout(ctx)
	defer cancel()
	numNodes := len(g.Locator.ShardOf)
	var stats QueryStats

	p := tensor.NewVec(numNodes)
	r := tensor.NewVec(numNodes)
	// Dense thresholds: dw is learned from fetched neighbor tuples. A node
	// can only gain residual via a scatter that also records its weighted
	// degree, so +Inf entries are exactly the never-touched nodes.
	dw := tensor.NewVec(numNodes)
	dw.Fill(math.Inf(1))
	srcGlobal := int32(g.Locator.Global(g.ShardID, sourceLocal))
	r[srcGlobal] = 1
	dw[srcGlobal] = 0 // activate the source before its degree is known

	byShard := make([][]int32, g.NumShards)       // local IDs per shard
	globalByShard := make([][]int32, g.NumShards) // corresponding global IDs
	for {
		if err := ctx.Err(); err != nil {
			stats.Timeouts++
			metrics.QueryTimeouts.Inc(1)
			return nil, stats, err
		}
		// Frontier detection: full |V| scan (the tensor-library way), a
		// handful of whole-tensor ops (compare, multiply, nonzero).
		var active []int32
		bd.Time(metrics.PhasePop, func() {
			cfg.dispatch(3)
			active = tensor.NonzeroGreater(r, dw, cfg.Eps)
		})
		if len(active) == 0 {
			break
		}
		stats.Iterations++
		for i := range byShard {
			byShard[i] = byShard[i][:0]
			globalByShard[i] = globalByShard[i][:0]
		}
		for _, gv := range active {
			sh, lc := g.Locator.Locate(graph.NodeID(gv))
			byShard[sh] = append(byShard[sh], lc)
			globalByShard[sh] = append(globalByShard[sh], gv)
		}
		self := g.ShardID

		type pending struct {
			shard int32
			fut   *InfoFuture
		}
		var remotes []pending
		stopIssue := bd.Start(metrics.PhaseRemoteFetch)
		for j := int32(0); j < g.NumShards; j++ {
			if j == self || len(byShard[j]) == 0 {
				continue
			}
			fut := g.GetNeighborInfos(ctx, j, byShard[j], cfg)
			remotes = append(remotes, pending{j, fut})
			stats.RemoteRows += fut.RemoteRows
			stats.CacheHits += fut.CacheHits
			stats.CacheCoalesced += fut.CacheCoalesced
		}
		stopIssue()

		account := func(fut *InfoFuture) {
			reqs, bytes := fut.Wire()
			stats.RPCRequests += reqs
			stats.RequestBytes += bytes
		}
		pushBatch := func(batch NeighborBatch, globals []int32) {
			for i := 0; i < batch.NumRows(); i++ {
				// The list-of-lists response format forces the tensor
				// implementation to process rows one by one, issuing ~6
				// small tensor ops per row (index translation, division,
				// scatter_add, threshold update, ...). Each op pays the
				// library's dispatch overhead.
				cfg.dispatch(6)
				nl, ns, nw, nd, rowWDeg := batch.Row(i)
				v := globals[i]
				rv := r[v]
				if rv == 0 {
					continue
				}
				stats.Pushes++
				p[v] += cfg.Alpha * rv
				r[v] = 0
				if rowWDeg <= 0 {
					continue
				}
				mass := (1 - cfg.Alpha) * rv / float64(rowWDeg)
				// Tensor-style update: translate (local, shard) pairs to a
				// global index tensor, then scatter-add.
				idx := make([]int32, len(nl))
				delta := make(tensor.Vec, len(nl))
				for j := range nl {
					idx[j] = int32(g.Locator.Global(ns[j], nl[j]))
					delta[j] = float64(nw[j]) * mass
				}
				r.ScatterAdd(idx, delta)
				for j := range idx {
					dw[idx[j]] = float64(nd[j])
				}
			}
		}

		pushLocal := func() error {
			if len(byShard[self]) == 0 {
				return nil
			}
			var batch NeighborBatch
			var err error
			bd.Time(metrics.PhaseLocalFetch, func() {
				fut := g.GetNeighborInfos(ctx, self, byShard[self], cfg)
				batch, err = fut.WaitCtx(ctx)
				account(fut)
			})
			if err != nil {
				return err
			}
			stats.LocalRows += int64(len(byShard[self]))
			bd.Time(metrics.PhasePush, func() { pushBatch(batch, globalByShard[self]) })
			return nil
		}

		if cfg.Overlap {
			if err := pushLocal(); err != nil {
				return nil, stats, err
			}
			for _, pd := range remotes {
				var batch NeighborBatch
				var err error
				bd.Time(metrics.PhaseRemoteFetch, func() {
					batch, err = pd.fut.WaitCtx(ctx)
					account(pd.fut)
				})
				if err != nil {
					return nil, stats, err
				}
				bd.Time(metrics.PhasePush, func() { pushBatch(batch, globalByShard[pd.shard]) })
			}
		} else {
			batches := make([]NeighborBatch, len(remotes))
			for i, pd := range remotes {
				var err error
				bd.Time(metrics.PhaseRemoteFetch, func() {
					batches[i], err = pd.fut.WaitCtx(ctx)
					account(pd.fut)
				})
				if err != nil {
					return nil, stats, err
				}
			}
			if err := pushLocal(); err != nil {
				return nil, stats, err
			}
			for i, pd := range remotes {
				bd.Time(metrics.PhasePush, func() { pushBatch(batches[i], globalByShard[pd.shard]) })
			}
		}
	}
	for _, v := range p {
		if v > 0 {
			stats.TouchedNodes++
		}
	}
	return p, stats, nil
}
