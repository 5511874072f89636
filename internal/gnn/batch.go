package gnn

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"pprengine/internal/core"
	"pprengine/internal/graph"
	"pprengine/internal/pmap"
)

// ErrFeatureDimMismatch reports shards that disagree on the feature
// dimension — a deployment wiring error, surfaced as a typed error so
// serving layers can distinguish it from transport failures.
var ErrFeatureDimMismatch = errors.New("gnn: inconsistent feature dims across shards")

// ConvertBatch is the paper's convert_batch (§4.5): given an SSPPR result
// for an ego vertex, it takes the top-K scored vertices (always including
// the ego; ties by key, for determinism), induces their subgraph by fetching
// neighbor lists through the distributed storage, and slices their features
// from the cross-machine feature store. Each row's PPR mass rides along with the feature fetch as
// the cache-admission signal. The result is a model-ready Batch. ctx bounds
// all the fetches.
func ConvertBatch(ctx context.Context, g *core.DistGraphStorage, m *core.SSPPR, egoLocal int32, topK, numClasses int) (*Batch, error) {
	ego := pmap.Key{Local: egoLocal, Shard: g.ShardID}
	// Rank by score, keep topK, force the ego in.
	top := m.TopK(topK)
	if !slices.ContainsFunc(top, func(n core.ScoredNode) bool { return n.Key == ego }) {
		en := core.ScoredNode{Key: ego, Score: m.Score(ego)}
		if len(top) == topK && topK > 0 {
			top[len(top)-1] = en
		} else {
			top = append(top, en)
		}
	}
	index := make(map[pmap.Key]int32, len(top))
	for i, n := range top {
		index[n.Key] = int32(i)
	}
	// Group by shard for neighbor-info and feature fetches; each row's PPR
	// mass travels with the feature request as the admission signal.
	byShard := make([][]int32, g.NumShards)
	rowOf := make([][]int32, g.NumShards) // batch index per fetched row
	massBy := make([][]float64, g.NumShards)
	for i, n := range top {
		k := n.Key
		byShard[k.Shard] = append(byShard[k.Shard], k.Local)
		rowOf[k.Shard] = append(rowOf[k.Shard], int32(i))
		massBy[k.Shard] = append(massBy[k.Shard], n.Score)
	}
	// Issue everything asynchronously (remote shards overlap).
	infoFuts := make([]*core.InfoFuture, g.NumShards)
	featFuts := make([]*core.FeatureFuture, g.NumShards)
	// Every future's pooled payload goes home when the batch assembly is
	// done with it — including on error paths (Release is idempotent and
	// nil-safe, and a no-op on unresolved futures).
	defer func() {
		for _, f := range infoFuts {
			f.Release()
		}
		for _, f := range featFuts {
			f.Release()
		}
	}()
	for sh := int32(0); sh < g.NumShards; sh++ {
		if len(byShard[sh]) == 0 {
			continue
		}
		infoFuts[sh] = g.GetNeighborInfos(ctx, sh, byShard[sh], core.Config{Mode: core.FetchBatchCompress})
		featFuts[sh] = g.FetchFeatures(ctx, sh, byShard[sh], massBy[sh])
	}
	b := &Batch{N: len(top)}
	var dim int
	// Assemble features. featRows may alias pooled response payloads until
	// the copy into b.X below, which is why the futures stay unreleased
	// until the deferred sweep.
	featRows := make([][]float32, len(top))
	for sh := int32(0); sh < g.NumShards; sh++ {
		if featFuts[sh] == nil {
			continue
		}
		blk, err := featFuts[sh].WaitCtx(ctx)
		feats, d := blk.Data, blk.Dim
		if err != nil {
			return nil, fmt.Errorf("gnn: feature fetch shard %d: %w", sh, err)
		}
		if d <= 0 {
			return nil, fmt.Errorf("gnn: shard %d reported non-positive feature dim %d", sh, d)
		}
		if dim == 0 {
			dim = d
		} else if dim != d {
			return nil, fmt.Errorf("%w: %d vs %d (shard %d)", ErrFeatureDimMismatch, dim, d, sh)
		}
		for i, row := range rowOf[sh] {
			featRows[row] = feats[i*d : (i+1)*d]
		}
	}
	b.X = make([]float32, len(top)*dim)
	for i, row := range featRows {
		copy(b.X[i*dim:(i+1)*dim], row)
	}
	// Induce edges: keep only neighbors inside the batch. Edge direction
	// src -> dst means messages flow along graph edges.
	for sh := int32(0); sh < g.NumShards; sh++ {
		if infoFuts[sh] == nil {
			continue
		}
		batch, err := infoFuts[sh].WaitCtx(ctx)
		if err != nil {
			return nil, fmt.Errorf("gnn: neighbor fetch shard %d: %w", sh, err)
		}
		for i := 0; i < batch.NumRows(); i++ {
			srcIdx := rowOf[sh][i]
			nl, ns, _, _, _ := batch.Row(i)
			for j := range nl {
				if dstIdx, ok := index[pmap.Key{Local: nl[j], Shard: ns[j]}]; ok {
					b.EdgeSrc = append(b.EdgeSrc, srcIdx)
					b.EdgeDst = append(b.EdgeDst, dstIdx)
				}
			}
		}
	}
	b.EgoIdx = int(index[ego])
	egoGlobal := g.Locator.Global(ego.Shard, ego.Local)
	b.EgoLabel = LabelOf(egoGlobal, numClasses)
	b.PPRWeights = make([]float32, len(top))
	for i, n := range top {
		b.PPRWeights[i] = float32(n.Score)
	}
	return b, nil
}

// LabelOfGlobal is a convenience wrapper for tests.
func LabelOfGlobal(v graph.NodeID, numClasses int) int { return LabelOf(v, numClasses) }
