// Mutation bootstrap for real deployments: every serving process gets a
// delta-CSR store over its shard, and exactly one process (the coordinator)
// additionally resolves client mutations and broadcasts epoch-stamped
// batches to its peers — the file-based analogue of cluster.Options.Mutable.
package deploy

import (
	"context"
	"fmt"
	"time"

	"pprengine/internal/core"
	"pprengine/internal/delta"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
	"pprengine/internal/stack"
)

// MutateOptions configures a serving process's mutation tier.
type MutateOptions struct {
	// Coordinator makes this process the cluster's mutation coordinator:
	// it accepts client mutations, assigns epochs from its own store, and
	// mirrors batches to every peer. Exactly one process per deployment
	// must set it (conventionally shard 0's).
	Coordinator bool
	// CompactInterval, when > 0, runs the background compactor at that
	// period. 0 leaves compaction to the MaxEpochs overflow trigger.
	CompactInterval time.Duration
	// MaxEpochs caps live (uncompacted) epochs; an Apply pushing past it
	// triggers a compaction. 0 = unbounded.
	MaxEpochs int
}

// EnableMutations upgrades a running storage server into a mutation
// endpoint: its shard gains a delta-CSR store, the ApplyMutations and
// epoch-pinned fetch handlers are registered, and compute (when non-nil,
// the process's query handle) reads through the store with epoch pinning
// at admission. With opts.Coordinator set it also builds the deployment's
// mutation coordinator over the peer addresses (the same map EnableQueries
// uses); the returned coordinator is nil otherwise. The returned cleanup
// stops the compactor and closes the coordinator's clients. ctx bounds the
// coordinator's peer dials.
func EnableMutations(ctx context.Context, srv *core.StorageServer, compute *core.DistGraphStorage, peers map[int32]string, opts MutateOptions, lat rpc.LatencyModel) (*delta.Store, *delta.Coordinator, func(), error) {
	store := delta.NewStore(srv.Locator, map[int32]*shard.Shard{srv.Shard.ShardID: srv.Shard})
	if opts.MaxEpochs > 0 {
		store.SetMaxEpochs(opts.MaxEpochs)
	}
	srv.AttachDelta(store)
	if compute != nil {
		compute.AttachDelta(store)
		if compute.Admit != nil {
			// Queries pin their mutation epoch at admission, so a query
			// queued behind a burst still reads its admission snapshot.
			compute.Admit.SetEpochSource(store.PinCurrent, store.Unpin)
		}
	}
	var stops []func()
	if opts.CompactInterval > 0 {
		stops = append(stops, store.StartCompactor(opts.CompactInterval))
	}
	cleanup := func() {
		for _, stop := range stops {
			stop()
		}
	}
	if !opts.Coordinator {
		return store, nil, cleanup, nil
	}

	// Coordinator: one connection per peer shard; the local store was already
	// written by Coordinator.Apply, so its slot stays nil.
	clients, err := dialPeers(ctx, srv.Shard.ShardID, srv.Shard.NumShards, peers, lat)
	if err != nil {
		cleanup()
		return nil, nil, nil, fmt.Errorf("deploy: mutation coordinator: %w", err)
	}
	for _, c := range clients {
		if c != nil {
			stops = append(stops, c.Close)
		}
	}
	return store, stack.NewCoordinator(store, clients), cleanup, nil
}
