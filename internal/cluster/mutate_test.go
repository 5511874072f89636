package cluster

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"pprengine/internal/chaos"
	"pprengine/internal/core"
	"pprengine/internal/delta"
	"pprengine/internal/graph"
	"pprengine/internal/partition"
	"pprengine/internal/ppr"
	"pprengine/internal/shard"
)

// mutableCluster builds a mutable cluster over prebuilt shards, failing the
// test on error.
func mutableCluster(t *testing.T, shards []*shard.Shard, loc *shard.Locator, q partition.Quality, opts Options) *Cluster {
	t.Helper()
	opts.Mutable = true
	c, err := NewFromShards(shards, loc, opts, q)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// twoComponentGraph builds a graph of two disconnected halves (ring + chord
// in each), so mutations confined to one component are guaranteed disjoint
// from the push footprint of a query sourced in the other. Dyadic weights
// keep incremental weighted-degree arithmetic exact.
func twoComponentGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	h := n / 2
	var edges []graph.Edge
	addRing := func(lo, size int) {
		for i := 0; i < size; i++ {
			v := int32(lo + i)
			edges = append(edges,
				graph.Edge{Src: v, Dst: int32(lo + (i+1)%size), Weight: 1},
				graph.Edge{Src: v, Dst: int32(lo + (i+7)%size), Weight: 0.5},
			)
		}
	}
	addRing(0, h)
	addRing(h, n-h)
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return graph.MakeUndirected(g)
}

// TestMutableClusterEpochReads is the wiring smoke test: a mutation routed
// through the coordinator lands on every machine at the same epoch, and an
// epoch-pinned query sees the new edge while the static (epoch-0) read path
// still serves the base CSR.
func TestMutableClusterEpochReads(t *testing.T) {
	g := testGraph(31, 300, 1800)
	shards, loc, quality := haTestShards(t, g, 2)
	c := mutableCluster(t, shards, loc, quality, Options{NumMachines: 2, ProcsPerMachine: 1})
	defer c.Close()

	epoch, err := c.Mutate(context.Background(), []delta.Mutation{
		{Op: delta.OpAddEdge, Src: 0, Dst: 5, Weight: 0.5},
		{Op: delta.OpAddEdge, Src: 7, Dst: 0, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("first batch landed at epoch %d, want 1", epoch)
	}
	for m, snap := range c.DeltaStats() {
		if snap.Epoch != epoch {
			t.Fatalf("machine %d at epoch %d, want %d (mirror lost?)", m, snap.Epoch, epoch)
		}
		if snap.OpsApplied == 0 {
			t.Fatalf("machine %d applied no ops", m)
		}
	}
	// A pinned query runs against the overlay without error; the same query
	// with the cluster's delta store detached from the epoch (PinnedEpoch
	// left 0 on a non-mutable cluster) is covered by every other test file.
	sh, local := loc.Locate(0)
	st := c.Storages[sh][0]
	cfg := detConfig()
	if _, _, err := core.RunSSPPRTopK(context.Background(), st, local, 5, cfg, nil); err != nil {
		t.Fatalf("epoch-pinned query failed: %v", err)
	}
}

// TestMutationBurstMidStream is the liveness half of the acceptance
// scenario: on a 4-machine R=2 cluster, a mutation burst lands through the
// coordinator while a query stream is in flight on every machine. Every
// query must complete, and after the burst every machine's store must sit
// at the same epoch.
func TestMutationBurstMidStream(t *testing.T) {
	g := testGraph(32, 500, 3000)
	shards, loc, quality := haTestShards(t, g, 4)
	c := mutableCluster(t, shards, loc, quality, Options{
		NumMachines: 4, ProcsPerMachine: 2, Replicas: 2,
		ProbeInterval: 50 * time.Millisecond,
	})
	defer c.Close()

	const batches = 12
	var wg sync.WaitGroup
	wg.Add(1)
	mutErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 0; i < batches; i++ {
			_, err := c.Mutate(context.Background(), []delta.Mutation{
				{Op: delta.OpAddEdge, Src: graph.NodeID(i * 3 % 500), Dst: graph.NodeID((i*11 + 7) % 500), Weight: 0.5},
				{Op: delta.OpAddEdge, Src: graph.NodeID((i*17 + 1) % 500), Dst: graph.NodeID(i * 5 % 500), Weight: 0.25},
			})
			if err != nil {
				mutErr <- err
				return
			}
		}
	}()

	qs := c.EvenQuerySet(8, 17)
	res, err := c.RunSSPPRBatch(context.Background(), qs, detConfig(), EngineMap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d queries failed during the mutation burst: %v", res.Failed, res.Errors[0])
	}
	wg.Wait()
	select {
	case err := <-mutErr:
		t.Fatalf("mutation batch failed: %v", err)
	default:
	}
	for m, snap := range c.DeltaStats() {
		if snap.Epoch != batches {
			t.Fatalf("machine %d at epoch %d after the burst, want %d", m, snap.Epoch, batches)
		}
		if len(snap.PinnedEpochs) != 0 {
			t.Fatalf("machine %d left pins behind: %v", m, snap.PinnedEpochs)
		}
	}
}

// TestIncrementalTopKBitwise anchors the incremental SSPPR acceptance
// criterion: when the mutations since a cached run don't touch the query's
// push footprint — and likewise under Config.IncrementalExact when they do —
// the incremental top-K must be bitwise identical to a fresh full run at the
// same epoch. The default re-push path is checked against the full run at
// approximation level.
func TestIncrementalTopKBitwise(t *testing.T) {
	g := twoComponentGraph(t, 200)
	a := partition.HashPartition(g.NumNodes, 2)
	shards, loc, err := shard.Build(g, a, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := mutableCluster(t, shards, loc, partition.Evaluate(g, a), Options{NumMachines: 2, ProcsPerMachine: 1})
	defer c.Close()

	cfg := detConfig()
	const k = 10
	ctx := context.Background()
	sh, local := loc.Locate(0) // source in component A ([0, 100))
	st := c.Storages[sh][0]
	cache := core.NewResidCache(4)

	fresh := func() []core.ScoredNode {
		top, _, err := core.RunSSPPRTopK(ctx, st, local, k, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return top
	}
	bitwise := func(phase string, want, got []core.ScoredNode) {
		t.Helper()
		if len(want) != len(got) {
			t.Fatalf("%s: top-K lengths differ: %d vs %d", phase, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: rank %d differs: %+v vs %+v", phase, i, want[i], got[i])
			}
		}
	}

	// First run seeds the cache.
	top0, _, ic, err := core.RunSSPPRIncrementalTopK(ctx, st, cache, local, k, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ic.Mode != "full" {
		t.Fatalf("cold cache ran in mode %q, want full", ic.Mode)
	}
	bitwise("cold", fresh(), top0)

	// Mutations confined to component B: disjoint from the footprint, so the
	// cached state must be served bitwise-unchanged — and must equal a fresh
	// full run at the new epoch.
	if _, err := c.Mutate(ctx, []delta.Mutation{
		{Op: delta.OpAddEdge, Src: 150, Dst: 160, Weight: 0.25},
		{Op: delta.OpDelEdge, Src: 120, Dst: 121},
		{Op: delta.OpAddVertex, Src: graph.NodeID(g.NumNodes)},
	}); err != nil {
		t.Fatal(err)
	}
	top1, _, ic, err := runIncremental(ctx, st, cache, local, k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ic.Mode != "hit" {
		t.Fatalf("disjoint mutations ran in mode %q (mutated=%d), want hit", ic.Mode, ic.Mutated)
	}
	bitwise("disjoint", fresh(), top1)

	// Overlapping mutation (the source's own row) under IncrementalExact:
	// falls back to a full run, so bitwise identity again holds.
	if _, err := c.Mutate(ctx, []delta.Mutation{
		{Op: delta.OpAddEdge, Src: 0, Dst: 50, Weight: 0.5},
	}); err != nil {
		t.Fatal(err)
	}
	exact := cfg
	exact.IncrementalExact = true
	top2, _, ic, err := core.RunSSPPRIncrementalTopK(ctx, st, cache, local, k, exact, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ic.Mode != "full" {
		t.Fatalf("IncrementalExact overlap ran in mode %q, want full", ic.Mode)
	}
	bitwise("exact-overlap", fresh2(ctx, t, st, local, k, exact), top2)

	// Overlapping mutation on the default path: seeded re-push. Both it and
	// the fresh run are eps-approximations of the same exact PPR, so scores
	// agree to approximation level.
	if _, err := c.Mutate(ctx, []delta.Mutation{
		{Op: delta.OpAddEdge, Src: 3, Dst: 40, Weight: 0.5},
	}); err != nil {
		t.Fatal(err)
	}
	top3, _, ic, err := core.RunSSPPRIncrementalTopK(ctx, st, cache, local, k, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ic.Mode != "repush" {
		t.Fatalf("overlap ran in mode %q, want repush", ic.Mode)
	}
	want := fresh()
	wantBy := map[int64]float64{}
	for _, sn := range want {
		wantBy[int64(sn.Key.Shard)<<32|int64(sn.Key.Local)] = sn.Score
	}
	for _, sn := range top3 {
		w, ok := wantBy[int64(sn.Key.Shard)<<32|int64(sn.Key.Local)]
		if !ok {
			continue // tail membership may differ at approximation level
		}
		if math.Abs(w-sn.Score) > 1e-3 {
			t.Fatalf("repush diverged on %+v: %g vs %g", sn.Key, sn.Score, w)
		}
	}
	if top3[0].Key != want[0].Key {
		t.Fatalf("repush top-1 %+v, fresh top-1 %+v", top3[0].Key, want[0].Key)
	}
}

// runIncremental is a small indirection so the test reads uniformly.
func runIncremental(ctx context.Context, st *core.DistGraphStorage, cache *core.ResidCache, local int32, k int, cfg core.Config) ([]core.ScoredNode, core.QueryStats, core.IncStats, error) {
	return core.RunSSPPRIncrementalTopK(ctx, st, cache, local, k, cfg, nil)
}

// fresh2 runs a fresh full top-K with the given config (used where the
// incremental call carried a non-default config).
func fresh2(ctx context.Context, t *testing.T, st *core.DistGraphStorage, local int32, k int, cfg core.Config) []core.ScoredNode {
	t.Helper()
	cfg.IncrementalExact = false
	top, _, err := core.RunSSPPRTopK(ctx, st, local, k, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// TestKillPrimaryDuringCompaction is the durability half of the acceptance
// scenario: after a mutation stream, a replicated cluster loses a primary
// mid-query-stream while every machine's compactor folds the deltas — and
// every query still completes with scores identical to a fault-free mutable
// cluster at the same epoch, proving replicas apply mirrored batches to the
// same state and compaction preserves pinned views.
func TestKillPrimaryDuringCompaction(t *testing.T) {
	g := testGraph(33, 500, 3000)
	const victim = 1
	// Two independent shard/locator builds of the same partition: add-vertex
	// extends the locator in place (machine-shared state), so the baseline
	// and faulted clusters each need their own copy.
	shards, loc, quality := haTestShards(t, g, 4)
	shards2, loc2, _ := haTestShards(t, g, 4)
	cfg := detConfig()
	muts := [][]delta.Mutation{
		{{Op: delta.OpAddEdge, Src: 10, Dst: 480, Weight: 0.5}, {Op: delta.OpAddEdge, Src: 301, Dst: 17, Weight: 1}},
		{{Op: delta.OpDelEdge, Src: 10, Dst: 480}, {Op: delta.OpAddEdge, Src: 77, Dst: 402, Weight: 0.25}},
		{{Op: delta.OpAddVertex, Src: 500}, {Op: delta.OpAddEdge, Src: 500, Dst: 3, Weight: 1}},
	}
	applyAll := func(c *Cluster) uint64 {
		var last uint64
		for _, b := range muts {
			e, err := c.Mutate(context.Background(), b)
			if err != nil {
				t.Fatal(err)
			}
			last = e
		}
		return last
	}

	// Baseline: mutable, unreplicated, fault-free.
	base := mutableCluster(t, shards, loc, quality, Options{NumMachines: 4, ProcsPerMachine: 1})
	baseEpoch := applyAll(base)
	qs := base.EvenQuerySet(6, 19)
	wantScores, errs := streamScores(base, qs, cfg)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	base.Close()

	// Faulted run: same shards and mutations, R=2; machine 1 crashes after
	// its 40th response write while a compaction races the stream on every
	// machine.
	inj := chaos.New(4321)
	inj.SetPlan(victim, chaos.Plan{KillAfterWrites: 40})
	c := mutableCluster(t, shards2, loc2, quality, Options{
		NumMachines: 4, ProcsPerMachine: 1, Replicas: 2,
		ProbeInterval:    20 * time.Millisecond,
		ProbeTimeout:     time.Second,
		BreakerThreshold: 2,
		FailoverTimeout:  2 * time.Second,
		Chaos:            inj,
	})
	defer c.Close()
	if e := applyAll(c); e != baseEpoch {
		t.Fatalf("faulted cluster at epoch %d after mutations, baseline at %d", e, baseEpoch)
	}

	compacted := make(chan delta.CompactStats, len(c.Deltas))
	var cwg sync.WaitGroup
	for _, st := range c.Deltas {
		cwg.Add(1)
		go func(st *delta.Store) {
			defer cwg.Done()
			// Let the stream get going so the fold races live pins.
			time.Sleep(5 * time.Millisecond)
			compacted <- st.Compact()
		}(st)
	}

	gotScores, errs := streamScores(c, qs, cfg)
	cwg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d failed despite replication: %v", i, err)
		}
	}
	if st := inj.Stats(victim); st.Kills != 1 {
		t.Fatalf("injector kills = %d, want 1 (stream too short to trigger the crash?)", st.Kills)
	}
	assertSameScores(t, wantScores, gotScores)
	close(compacted)
	ran := 0
	for cs := range compacted {
		if cs.RowsBaked > 0 || cs.EpochsRetired > 0 {
			ran++
		}
	}
	if ran == 0 {
		t.Fatal("no machine's compaction folded anything")
	}
}

// TestAppendedVertexReadableAfterCompact: a compaction bakes an appended
// vertex into its shard's base CSR and drops its version chain; the vertex
// must stay readable at the current epoch — through an epoch-pinned local
// read on its owner, and through the epoch-pinned remote fetch from another
// machine — with the row the mutations gave it.
func TestAppendedVertexReadableAfterCompact(t *testing.T) {
	g := testGraph(33, 300, 1800)
	shards, loc, quality := haTestShards(t, g, 2)
	c := mutableCluster(t, shards, loc, quality, Options{NumMachines: 2, ProcsPerMachine: 1})
	defer c.Close()
	ctx := context.Background()

	v := graph.NodeID(g.NumNodes)
	epoch, err := c.Mutate(ctx, []delta.Mutation{
		{Op: delta.OpAddVertex, Src: v},
		{Op: delta.OpAddEdge, Src: v, Dst: 0, Weight: 1},
		{Op: delta.OpAddEdge, Src: v, Dst: 5, Weight: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	sh, local := loc.Locate(v)
	for m, st := range c.Deltas {
		if cs := st.Compact(); cs.Boundary != epoch {
			t.Fatalf("machine %d compacted to boundary %d, want %d", m, cs.Boundary, epoch)
		}
	}
	cfg := core.DefaultConfig()
	cfg.PinnedEpoch = epoch
	for _, reader := range []int32{sh, 1 - sh} { // owner: shared memory; peer: GetNeighborInfosAt
		fut := c.Storages[reader][0].GetNeighborInfos(ctx, sh, []int32{local}, cfg)
		batch, err := fut.WaitCtx(ctx)
		if err != nil {
			t.Fatalf("machine %d reading the baked vertex at epoch %d: %v", reader, epoch, err)
		}
		nl, ns, nw, _, wdeg := batch.Row(0)
		if len(nl) != 2 || wdeg != 1.5 {
			t.Fatalf("machine %d: row has %d neighbors, wdeg %v; want 2, 1.5", reader, len(nl), wdeg)
		}
		for i, dst := range []graph.NodeID{0, 5} {
			if got := loc.Global(ns[i], nl[i]); got != dst || nw[i] != []float32{1, 0.5}[i] {
				t.Fatalf("machine %d: neighbor %d = node %d weight %v", reader, i, got, nw[i])
			}
		}
		fut.Release()
	}
	if err := c.Deltas[sh].CheckLocalAt(sh, local, epoch); err != nil {
		t.Fatalf("CheckLocalAt on the baked vertex: %v", err)
	}
}

// TestHaloRowFreshAfterCompact settles whether a halo row survives a
// compaction. With R=2 a machine's store bases its own shard and the replica
// it hosts, so a compaction bakes a mutated vertex of the replica shard into
// the rebuilt bases — including the rebuilt halo rows of the own shard — and
// drops its version chain. An epoch-pinned query that diverts that vertex to
// the halo path must then read the rebuilt row, not the static shard's
// pre-mutation copy: its scores must match power iteration on the graph
// rebuilt from the write history.
func TestHaloRowFreshAfterCompact(t *testing.T) {
	g := testGraph(34, 300, 1800)
	a, err := partition.Partition(g, 2, partition.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	shards, loc, err := shard.BuildWithOptions(g, a, 2, shard.BuildOptions{CacheHaloRows: true})
	if err != nil {
		t.Fatal(err)
	}
	c := mutableCluster(t, shards, loc, partition.Evaluate(g, a), Options{NumMachines: 2, ProcsPerMachine: 1, Replicas: 2})
	defer c.Close()

	// A source on shard 0 with a neighbor v on shard 1: v is a halo row of
	// shard 0, and machine 0's store bases shard 1 through its replica.
	var src, v graph.NodeID = -1, -1
	for u := graph.NodeID(0); u < graph.NodeID(g.NumNodes) && v < 0; u++ {
		if a[u] != 0 {
			continue
		}
		for _, n := range g.Neighbors(u) {
			if a[n] == 1 && g.Degree(n) >= 2 {
				src, v = u, n
				break
			}
		}
	}
	if v < 0 {
		t.Fatal("no shard-0 vertex with a shard-1 neighbor")
	}
	if !c.Deltas[0].HasBase(1) {
		t.Fatal("machine 0's store does not base the replica shard")
	}
	// Rewire v: drop one edge, add a heavy one to a vertex it did not reach.
	drop := g.Neighbors(v)[0]
	far := graph.NodeID(-1)
	for w := graph.NodeID(0); far < 0; w++ {
		if w != v && !slices.Contains(g.Neighbors(v), w) {
			far = w
		}
	}
	muts := []delta.Mutation{
		{Op: delta.OpDelEdge, Src: v, Dst: drop},
		{Op: delta.OpAddEdge, Src: v, Dst: far, Weight: 4},
	}
	ctx := context.Background()
	if _, err := c.Mutate(ctx, muts); err != nil {
		t.Fatal(err)
	}
	for m, st := range c.Deltas {
		if cs := st.Compact(); cs.RowsBaked == 0 {
			t.Fatalf("machine %d: compaction baked no rows", m)
		}
	}

	// The graph the writes describe, rebuilt from scratch.
	var edges []graph.Edge
	for u := graph.NodeID(0); u < graph.NodeID(g.NumNodes); u++ {
		for i, n := range g.Neighbors(u) {
			if u != v || n != drop {
				edges = append(edges, graph.Edge{Src: u, Dst: n, Weight: g.EdgeWeights(u)[i]})
			}
		}
	}
	edges = append(edges, graph.Edge{Src: v, Dst: far, Weight: 4})
	g2, err := graph.FromEdges(g.NumNodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	cfg := detConfig()
	cfg.Eps = 1e-10
	exact, _ := ppr.PowerIteration(g2, src, cfg.Alpha, 1e-13, 100000)

	st := c.Storages[0][0]
	_, local := loc.Locate(src)
	m, stats, err := core.RunSSPPR(ctx, st, local, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if stats.HaloRows == 0 {
		t.Fatal("the query read no halo rows")
	}
	got := core.ScoresGlobal(st, m)
	for u, want := range exact {
		if d := math.Abs(got[graph.NodeID(u)] - want); d > 1e-6 {
			t.Fatalf("node %d: score %.9g, rebuilt graph %.9g (v=%d, far=%d)", u, got[graph.NodeID(u)], want, v, far)
		}
	}
}
