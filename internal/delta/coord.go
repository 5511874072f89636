package delta

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"pprengine/internal/graph"
	"pprengine/internal/metrics"
	"pprengine/internal/shard"
	"pprengine/internal/wire"
)

// OpKind labels an unresolved client mutation.
type OpKind uint8

const (
	OpAddEdge OpKind = iota
	OpDelEdge
	OpAddVertex
)

// Mutation is one client mutation in global-ID space, before resolution.
type Mutation struct {
	Op     OpKind
	Src    graph.NodeID // AddVertex: the new vertex's ID
	Dst    graph.NodeID
	Weight float32
}

// Applier delivers an encoded mutation batch to one machine (its primary
// RPC endpoint). A failed delivery leaves that machine stale: it refuses
// later batches (epoch gap) until repaired, and epoch-pinned reads to it
// fail over.
type Applier func(ctx context.Context, payload []byte) error

// RemoteRow is a coordinator-side view of a row it does not base locally.
type RemoteRow struct {
	Locals  []int32
	Shards  []int32
	Weights []float32
	WDeg    float32
}

// RowFetcher reads a row from its owning machine at the given epoch, for
// resolving mutations whose source the coordinator does not serve.
type RowFetcher func(ctx context.Context, sh, local int32, epoch uint64) (RemoteRow, error)

// Coordinator turns client mutations into resolved, epoch-stamped batches
// and broadcasts them to every machine. There is one coordinator per
// cluster: epochs are assigned from its local store's counter, which is what
// makes them monotonic. Resolution translates global IDs to (shard, local),
// places new vertices with the LDG streaming heuristic (most already-placed
// in-batch neighbors, discounted by shard load), and pre-resolves every
// op's weighted degrees so mirrors apply by pure arithmetic.
type Coordinator struct {
	mu        sync.Mutex
	store     *Store
	loc       *shard.Locator
	appliers  []Applier
	fetch     RowFetcher
	imbalance float64
}

// NewCoordinator wires a coordinator over the local machine's store. The
// appliers cover every machine (including this one — the local store dedups
// its own batch by epoch). fetch may be nil when the coordinator bases every
// shard it will be asked to mutate.
func NewCoordinator(store *Store, appliers []Applier, fetch RowFetcher) *Coordinator {
	return &Coordinator{
		store:     store,
		loc:       store.Locator(),
		appliers:  appliers,
		fetch:     fetch,
		imbalance: 0.05,
	}
}

// pendRow is a row's tentative state during intra-batch resolution. Until
// the row is seeded (haveEntries) the columns hold only the edges this batch
// has inserted; seeding puts the stored row in front of them.
type pendRow struct {
	haveEntries bool
	locals      []int32
	shards      []int32
	weights     []float32
}

// seed loads the stored row. The stored columns are copied: a fetched row may
// alias its response buffer.
func (pr *pendRow) seed(locals, shards []int32, weights []float32) {
	pr.locals = slices.Concat(locals, pr.locals)
	pr.shards = slices.Concat(shards, pr.shards)
	pr.weights = slices.Concat(weights, pr.weights)
	pr.haveEntries = true
}

// Apply resolves muts into one batch at epoch store.Epoch()+1, applies it to
// the local store, and broadcasts it to every machine. It returns the new
// epoch. Resolution errors (unknown IDs, deleting an absent edge,
// non-positive weights) reject the whole batch before anything is applied;
// delivery failures to remote machines are counted and reported but do not
// fail the batch — the dead machine is already not serving.
func (c *Coordinator) Apply(ctx context.Context, muts []Mutation) (uint64, error) {
	if len(muts) == 0 {
		return c.store.Epoch(), nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	batch, err := c.resolveLocked(ctx, muts)
	if err != nil {
		return 0, fmt.Errorf("delta: resolve: %w", err)
	}
	if err := c.store.Apply(batch); err != nil {
		return 0, err
	}
	payload := wire.EncodeMutationBatch(batch)
	var failed int
	var firstErr error
	var wg sync.WaitGroup
	errs := make([]error, len(c.appliers))
	for i, ap := range c.appliers {
		if ap == nil {
			continue
		}
		wg.Add(1)
		go func(i int, ap Applier) {
			defer wg.Done()
			errs[i] = ap(ctx, payload)
		}(i, ap)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if failed > 0 {
		metrics.MutationMirrorFailures.Inc(int64(failed))
	}
	return batch.Epoch, nil
}

func (c *Coordinator) resolveLocked(ctx context.Context, muts []Mutation) (*wire.MutationBatch, error) {
	var (
		epoch     = c.store.Epoch() + 1
		pendWDeg  = map[Key]float32{}
		pendRows  = map[Key]*pendRow{}
		pendPlace = map[graph.NodeID]Key{}
		pendCount = map[int32]int32{}
		pendAdds  = 0
		k         = c.loc.NumShards()
	)

	resolveAddr := func(v graph.NodeID) (Key, bool) {
		if key, ok := pendPlace[v]; ok {
			return key, true
		}
		sh, l, ok := c.loc.TryLocate(v)
		return Key{sh, l}, ok
	}

	// seedRow loads a row's entries into the tentative state on first touch.
	seedRow := func(key Key) (*pendRow, error) {
		pr := pendRows[key]
		if pr == nil {
			pr = &pendRow{}
			pendRows[key] = pr
		}
		if pr.haveEntries {
			return pr, nil
		}
		if locals, shards, weights, wdeg, ok := c.store.CurrentRow(key); ok {
			pr.seed(locals, shards, weights)
			if _, have := pendWDeg[key]; !have {
				pendWDeg[key] = wdeg
			}
		} else if c.fetch != nil {
			rr, err := c.fetch(ctx, key.Shard, key.Local, c.store.Epoch())
			if err != nil {
				return nil, fmt.Errorf("fetch row (%d,%d): %w", key.Shard, key.Local, err)
			}
			pr.seed(rr.Locals, rr.Shards, rr.Weights)
			if _, have := pendWDeg[key]; !have {
				pendWDeg[key] = rr.WDeg
			}
		} else {
			return nil, fmt.Errorf("row (%d,%d) not resolvable locally and no fetcher", key.Shard, key.Local)
		}
		return pr, nil
	}

	curWDeg := func(key Key) (float32, error) {
		if w, ok := pendWDeg[key]; ok {
			return w, nil
		}
		if w, ok := c.store.CurrentWDeg(key); ok {
			pendWDeg[key] = w
			return w, nil
		}
		// Fall back to a row read (its header carries the degree).
		if _, err := seedRow(key); err != nil {
			return 0, err
		}
		return pendWDeg[key], nil
	}

	batch := &wire.MutationBatch{Epoch: epoch, Ops: make([]wire.MutOp, 0, len(muts))}
	for i, m := range muts {
		switch m.Op {
		case OpAddVertex:
			next := graph.NodeID(c.loc.NumNodes() + pendAdds)
			if m.Src != next {
				return nil, fmt.Errorf("mutation %d: add-vertex %d out of order (next dense ID is %d)", i, m.Src, next)
			}
			sh := c.placeVertexLocked(m.Src, muts, pendPlace, pendCount, pendAdds, k)
			local := c.loc.CoreCount(sh) + pendCount[sh]
			key := Key{sh, local}
			pendPlace[m.Src] = key
			pendCount[sh]++
			pendAdds++
			pendWDeg[key] = 0
			pendRows[key] = &pendRow{haveEntries: true}
			batch.Ops = append(batch.Ops, wire.MutOp{
				Kind: wire.MutAddVertex, SrcShard: sh, SrcLocal: local, Global: int32(m.Src),
			})

		case OpAddEdge:
			if m.Weight <= 0 {
				return nil, fmt.Errorf("mutation %d: add-edge weight %g must be positive", i, m.Weight)
			}
			src, ok := resolveAddr(m.Src)
			if !ok {
				return nil, fmt.Errorf("mutation %d: unknown source %d", i, m.Src)
			}
			dst, ok := resolveAddr(m.Dst)
			if !ok {
				return nil, fmt.Errorf("mutation %d: unknown target %d", i, m.Dst)
			}
			srcW, err := curWDeg(src)
			if err != nil {
				return nil, fmt.Errorf("mutation %d: %w", i, err)
			}
			dstW, err := curWDeg(dst)
			if err != nil {
				return nil, fmt.Errorf("mutation %d: %w", i, err)
			}
			batch.Ops = append(batch.Ops, wire.MutOp{
				Kind:     wire.MutAddEdge,
				SrcShard: src.Shard, SrcLocal: src.Local,
				DstShard: dst.Shard, DstLocal: dst.Local,
				Weight: m.Weight, SrcWDeg: srcW, DstWDeg: dstW,
			})
			pendWDeg[src] = srcW + m.Weight
			// Recorded whether or not the row is seeded yet, so a later
			// delete of this edge in the same batch finds it.
			pr := pendRows[src]
			if pr == nil {
				pr = &pendRow{}
				pendRows[src] = pr
			}
			pr.locals = append(pr.locals, dst.Local)
			pr.shards = append(pr.shards, dst.Shard)
			pr.weights = append(pr.weights, m.Weight)

		case OpDelEdge:
			src, ok := resolveAddr(m.Src)
			if !ok {
				return nil, fmt.Errorf("mutation %d: unknown source %d", i, m.Src)
			}
			dst, ok := resolveAddr(m.Dst)
			if !ok {
				return nil, fmt.Errorf("mutation %d: unknown target %d", i, m.Dst)
			}
			pr, err := seedRow(src)
			if err != nil {
				return nil, fmt.Errorf("mutation %d: %w", i, err)
			}
			j := -1
			for idx := range pr.locals {
				if pr.shards[idx] == dst.Shard && pr.locals[idx] == dst.Local {
					j = idx
					break
				}
			}
			if j < 0 {
				return nil, fmt.Errorf("mutation %d: edge %d->%d not present", i, m.Src, m.Dst)
			}
			w := pr.weights[j]
			srcW, err := curWDeg(src)
			if err != nil {
				return nil, fmt.Errorf("mutation %d: %w", i, err)
			}
			batch.Ops = append(batch.Ops, wire.MutOp{
				Kind:     wire.MutDelEdge,
				SrcShard: src.Shard, SrcLocal: src.Local,
				DstShard: dst.Shard, DstLocal: dst.Local,
				Weight: w, SrcWDeg: srcW,
			})
			pendWDeg[src] = srcW - w
			pr.locals = append(pr.locals[:j], pr.locals[j+1:]...)
			pr.shards = append(pr.shards[:j], pr.shards[j+1:]...)
			pr.weights = append(pr.weights[:j], pr.weights[j+1:]...)

		default:
			return nil, fmt.Errorf("mutation %d: unknown op %d", i, m.Op)
		}
	}
	return batch, nil
}

// placeVertexLocked chooses a shard for a new vertex with the LDG streaming
// rule (partition.LDGPartition): most already-placed neighbors, discounted by
// a load penalty, ties toward the lightest shard. Neighbors are the other
// endpoints of this batch's edges that touch the new vertex.
func (c *Coordinator) placeVertexLocked(v graph.NodeID, muts []Mutation,
	pendPlace map[graph.NodeID]Key, pendCount map[int32]int32, pendAdds, k int) int32 {

	score := make([]float64, k)
	for _, m := range muts {
		if m.Op != OpAddEdge && m.Op != OpDelEdge {
			continue
		}
		var other graph.NodeID
		switch v {
		case m.Src:
			other = m.Dst
		case m.Dst:
			other = m.Src
		default:
			continue
		}
		if key, ok := pendPlace[other]; ok {
			score[key.Shard]++
		} else if sh, _, ok := c.loc.TryLocate(other); ok {
			score[sh]++
		}
	}
	total := float64(c.loc.NumNodes() + pendAdds + 1)
	capacity := total/float64(k)*(1+c.imbalance) + 1
	load := func(sh int32) float64 {
		return float64(c.loc.CoreCount(sh) + pendCount[sh])
	}
	best, bestScore := int32(0), -1.0
	for sh := int32(0); int(sh) < k; sh++ {
		s := score[sh] * (1 - load(sh)/capacity)
		if s > bestScore || (s == bestScore && load(sh) < load(best)) {
			bestScore = s
			best = sh
		}
	}
	return best
}
