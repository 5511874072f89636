package delta

import (
	"context"
	"fmt"
	"testing"

	"pprengine/internal/graph"
	"pprengine/internal/partition"
	"pprengine/internal/shard"
	"pprengine/internal/wire"
)

// testGraph builds a small directed graph plus its sharding. Weights are
// dyadic rationals so incremental weighted-degree arithmetic is exact and the
// delta-vs-rebuild oracle can compare float columns bitwise.
func testGraph(t *testing.T, k int) ([]graph.Edge, *graph.Graph, []*shard.Shard, *shard.Locator, partition.Assignment) {
	t.Helper()
	const n = 12
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		edges = append(edges,
			graph.Edge{Src: int32(v), Dst: int32((v + 1) % n), Weight: 1},
			graph.Edge{Src: int32(v), Dst: int32((v + 5) % n), Weight: 0.5},
		)
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	a := partition.HashPartition(n, k)
	shards, loc, err := shard.BuildWithOptions(g, a, k, shard.BuildOptions{CacheHaloRows: true})
	if err != nil {
		t.Fatal(err)
	}
	return edges, g, shards, loc, a
}

func allBases(shards []*shard.Shard) map[int32]*shard.Shard {
	m := make(map[int32]*shard.Shard, len(shards))
	for _, s := range shards {
		m[s.ShardID] = s
	}
	return m
}

// applyEdits mirrors the mutation stream onto a plain edge list, the oracle
// for from-scratch rebuilds.
func applyEdits(edges []graph.Edge, muts []Mutation) []graph.Edge {
	out := append([]graph.Edge(nil), edges...)
	for _, m := range muts {
		switch m.Op {
		case OpAddEdge:
			out = append(out, graph.Edge{Src: m.Src, Dst: m.Dst, Weight: m.Weight})
		case OpDelEdge:
			for i, e := range out {
				if e.Src == m.Src && e.Dst == m.Dst {
					out = append(out[:i], out[i+1:]...)
					break
				}
			}
		}
	}
	return out
}

// TestDeltaMatchesRebuild is the package's semantic anchor: after a mutation
// stream (edge adds, deletes, an appended vertex), every row read through the
// delta store at the final epoch must equal, array for array, the row of a
// from-scratch Build of the mutated graph with the same assignment.
func TestDeltaMatchesRebuild(t *testing.T) {
	const k = 2
	edges, _, shards, loc, a := testGraph(t, k)
	store := NewStore(loc, allBases(shards))
	coord := NewCoordinator(store, nil, nil)

	muts := []Mutation{
		{Op: OpAddEdge, Src: 0, Dst: 7, Weight: 2},
		{Op: OpAddEdge, Src: 3, Dst: 0, Weight: 0.25},
		{Op: OpDelEdge, Src: 5, Dst: 6},
		{Op: OpAddVertex, Src: 12},
		{Op: OpAddEdge, Src: 12, Dst: 4, Weight: 1},
		{Op: OpAddEdge, Src: 2, Dst: 12, Weight: 0.5},
	}
	// Apply in two batches to exercise multi-epoch chains.
	if _, err := coord.Apply(context.Background(), muts[:3]); err != nil {
		t.Fatal(err)
	}
	epoch, err := coord.Apply(context.Background(), muts[3:])
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("epoch = %d, want 2", epoch)
	}

	// From-scratch rebuild of the mutated graph. The new vertex keeps the
	// shard the coordinator chose.
	newSh, newLocal, ok := loc.TryLocate(12)
	if !ok {
		t.Fatal("appended vertex not in locator")
	}
	if want := loc.CoreCount(newSh) - 1; newLocal != want {
		t.Fatalf("appended local = %d, want %d", newLocal, want)
	}
	a2 := append(append(partition.Assignment{}, a...), newSh)
	loc2 := matchesRebuild(t, store, 13, applyEdits(edges, muts), a2, k, epoch)
	// Locator agreement on the appended vertex.
	if s2, l2 := loc2.Locate(12); s2 != newSh || l2 != newLocal {
		t.Fatalf("rebuilt locator placed 12 at (%d,%d), delta at (%d,%d)", s2, l2, newSh, newLocal)
	}
}

// matchesRebuild checks every row store serves at epoch against a
// from-scratch Build of the n-vertex graph with the given edges and
// assignment, and returns the rebuild's locator.
func matchesRebuild(t *testing.T, store *Store, n int, edges []graph.Edge, a partition.Assignment, k int, epoch uint64) *shard.Locator {
	t.Helper()
	g2, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	fresh, loc2, err := shard.Build(g2, a, k)
	if err != nil {
		t.Fatal(err)
	}
	loc := store.Locator()
	for sh := int32(0); int(sh) < k; sh++ {
		n := int(loc.CoreCount(sh))
		if n != fresh[sh].NumCore() {
			t.Fatalf("shard %d: core count %d, want %d", sh, n, fresh[sh].NumCore())
		}
		locals := make([]int32, n)
		for i := range locals {
			locals[i] = int32(i)
		}
		got, err := store.VertexProps(sh, locals, epoch)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < n; l++ {
			want := fresh[sh].VertexProp(int32(l))
			if err := sameVP(got[l], want); err != nil {
				t.Errorf("shard %d local %d: %v", sh, l, err)
			}
		}
	}
	return loc2
}

// TestInsertThenDeleteInOneBatch: a batch may delete an edge it inserted
// earlier, whether the coordinator reads the source's row from its own store
// or through its RowFetcher. (The insert used to be dropped from the
// tentative row when the row had not been loaded yet, and the delete then
// failed as "not present".)
func TestInsertThenDeleteInOneBatch(t *testing.T) {
	const k = 2
	ctx := context.Background()
	muts := []Mutation{
		{Op: OpAddEdge, Src: 1, Dst: 8, Weight: 2},
		{Op: OpAddEdge, Src: 1, Dst: 4, Weight: 0.5},
		{Op: OpDelEdge, Src: 1, Dst: 8},
		{Op: OpAddEdge, Src: 6, Dst: 1, Weight: 0.25},
	}

	t.Run("source based locally", func(t *testing.T) {
		edges, _, shards, loc, a := testGraph(t, k)
		store := NewStore(loc, allBases(shards))
		epoch, err := NewCoordinator(store, nil, nil).Apply(ctx, muts)
		if err != nil {
			t.Fatal(err)
		}
		matchesRebuild(t, store, 12, applyEdits(edges, muts), a, k, epoch)
	})

	t.Run("source fetched", func(t *testing.T) {
		// The coordinator bases shard 0 only and keeps no halo rows, so it
		// reads vertex 1 (shard 1) from the machine that owns it.
		edges, g, _, _, a := testGraph(t, k)
		shards, loc, err := shard.Build(g, a, k)
		if err != nil {
			t.Fatal(err)
		}
		owner := NewStore(loc, allBases(shards))
		fetched := 0
		fetch := func(_ context.Context, sh, local int32, epoch uint64) (RemoteRow, error) {
			fetched++
			vps, err := owner.VertexProps(sh, []int32{local}, epoch)
			if err != nil {
				return RemoteRow{}, err
			}
			return RemoteRow{Locals: vps[0].Locals, Shards: vps[0].Shards, Weights: vps[0].Weights, WDeg: vps[0].WDeg}, nil
		}
		coord := NewCoordinator(NewStore(loc, map[int32]*shard.Shard{0: shards[0]}), []Applier{mirrorTo(owner)}, fetch)
		epoch, err := coord.Apply(ctx, muts)
		if err != nil {
			t.Fatal(err)
		}
		if fetched == 0 {
			t.Fatal("the source's row was not read through the fetcher")
		}
		matchesRebuild(t, owner, 12, applyEdits(edges, muts), a, k, epoch)
	})
}

func sameVP(got, want shard.VertexProp) error {
	if got.WDeg != want.WDeg {
		return fmt.Errorf("WDeg %g != %g", got.WDeg, want.WDeg)
	}
	if len(got.Locals) != len(want.Locals) {
		return fmt.Errorf("degree %d != %d", len(got.Locals), len(want.Locals))
	}
	for j := range got.Locals {
		if got.Locals[j] != want.Locals[j] || got.Shards[j] != want.Shards[j] ||
			got.Weights[j] != want.Weights[j] || got.WDegs[j] != want.WDegs[j] {
			return fmt.Errorf("entry %d: (%d,%d,%g,%g) != (%d,%d,%g,%g)", j,
				got.Shards[j], got.Locals[j], got.Weights[j], got.WDegs[j],
				want.Shards[j], want.Locals[j], want.Weights[j], want.WDegs[j])
		}
	}
	return nil
}

// TestEpochIsolation: a pinned epoch's reads are immune to later mutations
// and to compaction while pinned; compaction after release retires it.
func TestEpochIsolation(t *testing.T) {
	_, _, shards, loc, _ := testGraph(t, 2)
	store := NewStore(loc, allBases(shards))
	coord := NewCoordinator(store, nil, nil)
	ctx := context.Background()

	if _, err := coord.Apply(ctx, []Mutation{{Op: OpAddEdge, Src: 0, Dst: 3, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	e1 := store.PinCurrent()
	if e1 != 1 {
		t.Fatalf("pinned %d, want 1", e1)
	}
	sh0, l0 := loc.Locate(0)
	before, err := store.VertexProps(sh0, []int32{l0}, e1)
	if err != nil {
		t.Fatal(err)
	}
	degAt1 := len(before[0].Locals)

	if _, err := coord.Apply(ctx, []Mutation{{Op: OpAddEdge, Src: 0, Dst: 4, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	// Pinned view unchanged; current view sees the new edge.
	at1, _ := store.VertexProps(sh0, []int32{l0}, e1)
	if len(at1[0].Locals) != degAt1 {
		t.Fatalf("pinned view changed: %d -> %d", degAt1, len(at1[0].Locals))
	}
	at2, _ := store.VertexProps(sh0, []int32{l0}, 2)
	if len(at2[0].Locals) != degAt1+1 {
		t.Fatalf("current view degree %d, want %d", len(at2[0].Locals), degAt1+1)
	}

	// Compaction can only fold up to the pin.
	st := store.Compact()
	if st.Boundary != e1 {
		t.Fatalf("boundary %d, want %d", st.Boundary, e1)
	}
	again, err := store.VertexProps(sh0, []int32{l0}, e1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameVP(again[0], before[0]); err != nil {
		t.Fatalf("pinned view changed across compaction: %v", err)
	}

	store.Unpin(e1)
	st = store.Compact()
	if st.Boundary != 2 {
		t.Fatalf("post-release boundary %d, want 2", st.Boundary)
	}
	if _, err := store.VertexProps(sh0, []int32{l0}, e1); err == nil {
		t.Fatal("retired epoch still readable")
	}
	// The compacted base itself must serve the newest epoch.
	final, err := store.VertexProps(sh0, []int32{l0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(final[0].Locals) != degAt1+1 {
		t.Fatalf("post-compact degree %d, want %d", len(final[0].Locals), degAt1+1)
	}
}

// TestCompactionPreservesViews: reads at a pinned epoch are identical before
// and after a compaction that rebuilds the base CSR under them, across every
// row of every shard.
func TestCompactionPreservesViews(t *testing.T) {
	_, _, shards, loc, _ := testGraph(t, 2)
	store := NewStore(loc, allBases(shards))
	coord := NewCoordinator(store, nil, nil)
	ctx := context.Background()

	if _, err := coord.Apply(ctx, []Mutation{
		{Op: OpAddEdge, Src: 1, Dst: 8, Weight: 1},
		{Op: OpDelEdge, Src: 2, Dst: 3},
	}); err != nil {
		t.Fatal(err)
	}
	e := store.PinCurrent()
	if _, err := coord.Apply(ctx, []Mutation{{Op: OpAddEdge, Src: 8, Dst: 1, Weight: 2}}); err != nil {
		t.Fatal(err)
	}

	type rowKey struct{ sh, l int32 }
	snap := map[rowKey]shard.VertexProp{}
	for sh := int32(0); sh < 2; sh++ {
		for l := int32(0); l < loc.CoreCount(sh); l++ {
			vps, err := store.VertexProps(sh, []int32{l}, e)
			if err != nil {
				t.Fatal(err)
			}
			snap[rowKey{sh, l}] = vps[0]
		}
	}
	if st := store.Compact(); st.Boundary != e {
		t.Fatalf("boundary %d, want %d", st.Boundary, e)
	}
	for k, want := range snap {
		vps, err := store.VertexProps(k.sh, []int32{k.l}, e)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameVP(vps[0], want); err != nil {
			t.Errorf("shard %d local %d changed across compaction: %v", k.sh, k.l, err)
		}
	}
}

func TestMutatedSinceAndEpochGap(t *testing.T) {
	_, _, shards, loc, _ := testGraph(t, 2)
	store := NewStore(loc, allBases(shards))
	coord := NewCoordinator(store, nil, nil)
	ctx := context.Background()

	if _, err := coord.Apply(ctx, []Mutation{{Op: OpAddEdge, Src: 0, Dst: 2, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Apply(ctx, []Mutation{{Op: OpAddEdge, Src: 7, Dst: 2, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	keys, ok := store.MutatedSince(1, 2)
	if !ok || len(keys) != 1 {
		t.Fatalf("MutatedSince(1,2) = %v, %v; want one key", keys, ok)
	}
	sh7, l7 := loc.Locate(7)
	if keys[0] != (Key{sh7, l7}) {
		t.Fatalf("mutated key %v, want vertex 7 at (%d,%d)", keys[0], sh7, l7)
	}
	if keys, ok := store.MutatedSince(0, 2); !ok || len(keys) != 2 {
		t.Fatalf("MutatedSince(0,2) = %v, %v; want two keys", keys, ok)
	}
	if _, ok := store.MutatedSince(1, 99); ok {
		t.Fatal("future asOf should be unavailable")
	}

	// Replay is a no-op; a gap is refused.
	replay := &wire.MutationBatch{Epoch: 1}
	if err := store.Apply(replay); err != nil {
		t.Fatalf("replay: %v", err)
	}
	gap := &wire.MutationBatch{Epoch: 9}
	if err := store.Apply(gap); err == nil {
		t.Fatal("epoch gap not refused")
	}

	store.Compact()
	if _, ok := store.MutatedSince(1, 2); ok {
		t.Fatal("retired since should be unavailable")
	}
}

// TestMirrorDeterminism: two stores basing different shards, fed the same
// resolved batches, must agree on every row either can serve — the property
// that keeps replica failover score-identical.
func TestMirrorDeterminism(t *testing.T) {
	const k = 2
	_, _, shards, loc, _ := testGraph(t, k)
	// Machine A bases shard 0, machine B bases both (as a replica host would).
	a := NewStore(loc, map[int32]*shard.Shard{0: shards[0]})
	b := NewStore(loc, allBases(shards))
	coord := NewCoordinator(b, []Applier{
		func(_ context.Context, payload []byte) error {
			mb, err := wire.DecodeMutationBatch(payload)
			if err != nil {
				return err
			}
			return a.Apply(mb)
		},
	}, nil)
	ctx := context.Background()
	if _, err := coord.Apply(ctx, []Mutation{
		{Op: OpAddEdge, Src: 0, Dst: 9, Weight: 1},
		{Op: OpAddEdge, Src: 4, Dst: 0, Weight: 0.5},
		{Op: OpDelEdge, Src: 0, Dst: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if a.Epoch() != b.Epoch() {
		t.Fatalf("epochs diverged: %d vs %d", a.Epoch(), b.Epoch())
	}
	locals := make([]int32, loc.CoreCount(0))
	for i := range locals {
		locals[i] = int32(i)
	}
	va, err := a.VertexProps(0, locals, 1)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := b.VertexProps(0, locals, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range va {
		if err := sameVP(va[i], vb[i]); err != nil {
			t.Errorf("local %d: %v", i, err)
		}
	}
}
