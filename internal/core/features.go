package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"pprengine/internal/agg"
)

// Feature access for the GNN serving path (§4.5): every shard's storage
// server can host a row-major feature block for its core vertices; compute
// processes slice features for mini-batch subgraphs through the same
// local/remote split as neighbor fetches ("slices corresponding features
// from a cross-machine feature store"). Remote fetches go down the feature
// instantiation of the fetch chain — the machine-wide feature cache with
// PPR-mass admission, cross-query flush aggregation, hedging and replica
// routing, and the zero-copy pooled-frame path — exactly like neighbor
// fetches do.

// ErrNoFeatureStore reports a feature fetch against a shard that has no
// feature block attached (AttachFeatures / AttachLocalFeatures). Local
// fetches wrap it directly; remote fetches re-wrap the server's error
// string so errors.Is works across the wire too.
var ErrNoFeatureStore = errors.New("core: no feature store attached")

// noFeatureStoreMsg is the marker the server embeds in its error so the
// client side can map the stringified remote error back to the sentinel.
const noFeatureStoreMsg = "no feature store attached"

// wrapFeatureErr maps a remote handler's no-feature-store message back to
// the typed sentinel: rpc errors cross the wire as strings, so this is the
// only way callers keep errors.Is(err, ErrNoFeatureStore) for remote shards.
func wrapFeatureErr(err error) error {
	if err != nil && !errors.Is(err, ErrNoFeatureStore) && strings.Contains(err.Error(), noFeatureStoreMsg) {
		return fmt.Errorf("%w: %v", ErrNoFeatureStore, err)
	}
	return err
}

// AttachFeatures registers the feature block on the server side.
func (ss *StorageServer) AttachFeatures(dim int, feats []float32) error {
	if len(feats) != ss.Shard.NumCore()*dim {
		return fmt.Errorf("core: feature block has %d floats, want %d", len(feats), ss.Shard.NumCore()*dim)
	}
	ss.Features = feats
	ss.FeatureDim = dim
	return nil
}

// AttachLocalFeatures gives a compute process shared-memory access to its
// machine's feature block.
func (g *DistGraphStorage) AttachLocalFeatures(dim int, feats []float32) {
	g.LocalFeatures = feats
	g.FeatureDim = dim
}

// FetchFeatures gathers feature rows for core vertices of dstShard. mass,
// when non-nil, carries each requested row's PPR mass (indexed like locals) —
// the admission signal of the feature cache: a fetched row is cached only
// when the highest mass seen across the queries that requested it clears the
// machine's admission threshold. Remote requests are issued under ctx.
func (g *DistGraphStorage) FetchFeatures(ctx context.Context, dstShard int32, locals []int32, mass []float64) *FeatureFuture {
	if dstShard != g.ShardID {
		return g.Features.fetch(ctx, dstShard, 0, locals, mass, g.ZeroCopy)
	}
	if g.LocalFeatures == nil {
		return readyFuture[[]float32](agg.FeatureBlock{}, fmt.Errorf("core: shard %d: %w", g.ShardID, ErrNoFeatureStore))
	}
	d := g.FeatureDim
	out := make([]float32, 0, len(locals)*d)
	for _, l := range locals {
		if err := g.Local.CheckLocal(l); err != nil {
			return readyFuture[[]float32](agg.FeatureBlock{}, err)
		}
		out = append(out, g.LocalFeatures[int(l)*d:(int(l)+1)*d]...)
	}
	return readyFuture[[]float32](agg.FeatureBlock{Dim: d, Data: out}, nil)
}
