package core

import (
	"context"
	"sort"
	"testing"

	"pprengine/internal/graph"
	"pprengine/internal/partition"
	"pprengine/internal/pmap"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
)

func TestSampleNeighborsLocalBasics(t *testing.T) {
	// Node 0 with 5 neighbors, fanout 3.
	edges := []graph.Edge{}
	for i := 1; i <= 5; i++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.NodeID(i), Weight: float32(i)})
	}
	g, _ := graph.FromEdges(6, edges)
	shards, loc, err := shard.Build(g, partition.Assignment{0, 0, 0, 0, 0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := SampleNeighborsLocal(shards[0], loc, []int32{0}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	locals, _, globals := resp.Row(0)
	if len(locals) != 3 {
		t.Fatalf("sampled %d, want 3", len(locals))
	}
	// Without replacement: all distinct.
	seen := map[int32]bool{}
	for _, gl := range globals {
		if seen[gl] {
			t.Fatalf("duplicate sample %d", gl)
		}
		seen[gl] = true
		if gl < 1 || gl > 5 {
			t.Fatalf("sampled non-neighbor %d", gl)
		}
	}
	// Degree <= fanout: all neighbors returned.
	resp, err = SampleNeighborsLocal(shards[0], loc, []int32{0}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	locals, _, _ = resp.Row(0)
	if len(locals) != 5 {
		t.Fatalf("full row: got %d", len(locals))
	}
	// Degree 0: empty row.
	resp, err = SampleNeighborsLocal(shards[0], loc, []int32{1}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l, _, _ := resp.Row(0); len(l) != 0 {
		t.Fatalf("dangling row not empty: %v", l)
	}
	// Bad fanout.
	if _, err := SampleNeighborsLocal(shards[0], loc, []int32{0}, 0, 1); err == nil {
		t.Fatal("fanout 0 should error")
	}
}

func TestSampleNeighborsWeightBias(t *testing.T) {
	// Weight 96 to node 1, weight 1 to nodes 2..5. Fanout 1 picks node 1
	// the overwhelming majority of the time.
	edges := []graph.Edge{{Src: 0, Dst: 1, Weight: 96}}
	for i := 2; i <= 5; i++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.NodeID(i), Weight: 1})
	}
	g, _ := graph.FromEdges(6, edges)
	shards, loc, _ := shard.Build(g, partition.Assignment{0, 0, 0, 0, 0, 0}, 1)
	hits := 0
	for seed := int64(0); seed < 100; seed++ {
		resp, err := SampleNeighborsLocal(shards[0], loc, []int32{0}, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		_, _, globals := resp.Row(0)
		if globals[0] == 1 {
			hits++
		}
	}
	if hits < 85 {
		t.Fatalf("weighted bias broken: %d/100", hits)
	}
}

func TestRunKHopSampleDistributed(t *testing.T) {
	g := testGraph(31, 300, 2000)
	storages, _, loc, cleanup := testDeployment(t, g, 3)
	defer cleanup()
	fanouts := []int{4, 3}
	res, err := RunKHopSample(context.Background(), storages[0], []int32{0, 1}, fanouts, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Roots) != 2 || res.Nodes[0] != res.Roots[0] || res.Nodes[1] != res.Roots[1] {
		t.Fatalf("roots wrong: %v / %v", res.Roots, res.Nodes[:2])
	}
	if len(res.EdgeSrc) == 0 || len(res.EdgeSrc) != len(res.EdgeDst) {
		t.Fatalf("edges: %d/%d", len(res.EdgeSrc), len(res.EdgeDst))
	}
	// Every sampled edge (child->parent) must be a real graph edge
	// parent->child (child is an out-neighbor of parent).
	for i := range res.EdgeSrc {
		child := res.Nodes[res.EdgeSrc[i]]
		parent := res.Nodes[res.EdgeDst[i]]
		found := false
		for _, u := range g.Neighbors(graph.NodeID(parent)) {
			if int32(u) == child {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("edge %d: %d is not a neighbor of %d", i, child, parent)
		}
	}
	// Hop labels are consistent: every node except roots first appears one
	// hop after some parent.
	if res.HopOf[0] != 0 || res.HopOf[1] != 0 {
		t.Fatal("root hops wrong")
	}
	maxHop := int32(0)
	for _, h := range res.HopOf {
		if h > maxHop {
			maxHop = h
		}
	}
	if maxHop > int32(len(fanouts)) {
		t.Fatalf("hop %d exceeds %d", maxHop, len(fanouts))
	}
	// Fanout bound: each parent samples at most fanout children per hop.
	children := map[int32]int{}
	for i := range res.EdgeDst {
		children[res.EdgeDst[i]]++
	}
	for parent, n := range children {
		hop := res.HopOf[parent]
		if int(hop) < len(fanouts) && n > fanouts[hop] {
			t.Fatalf("parent %d at hop %d sampled %d > fanout %d", parent, hop, n, fanouts[hop])
		}
	}
	// Nodes are unique.
	sorted := append([]int32(nil), res.Nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			t.Fatalf("duplicate node %d", sorted[i])
		}
	}
	// Subgraph conversion.
	sub, err := res.Subgraph()
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumNodes != len(res.Nodes) || sub.NumEdges() != int64(len(res.EdgeSrc)) {
		t.Fatal("subgraph size mismatch")
	}
	_ = loc
}

func TestRunKHopDeterministicSeed(t *testing.T) {
	g := testGraph(32, 200, 1200)
	storages, _, _, cleanup := testDeployment(t, g, 2)
	defer cleanup()
	a, err := RunKHopSample(context.Background(), storages[0], []int32{0}, []int{3, 3}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunKHopSample(context.Background(), storages[0], []int32{0}, []int{3, 3}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatal("nondeterministic size")
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatal("nondeterministic nodes")
		}
	}
}

func TestSampleNeighborsRemoteError(t *testing.T) {
	g := testGraph(33, 100, 600)
	storages, _, _, cleanup := testDeployment(t, g, 2)
	defer cleanup()
	if _, err := storages[0].SampleNeighbors(context.Background(), 1, []int32{1 << 20}, 3, 1).Wait(); err == nil {
		t.Fatal("expected remote validation error")
	}
}

func TestTopK(t *testing.T) {
	m := NewSSPPR(0, 0, DefaultConfig())
	m.st.p.Set(pmap.Key{Local: 1, Shard: 0}, 0.5)
	m.st.p.Set(pmap.Key{Local: 2, Shard: 0}, 0.9)
	m.st.p.Set(pmap.Key{Local: 3, Shard: 1}, 0.1)
	m.st.p.Set(pmap.Key{Local: 4, Shard: 1}, 0.9)
	top := m.TopK(2)
	if len(top) != 2 {
		t.Fatalf("len = %d", len(top))
	}
	// Ties break toward lower (shard, local).
	if top[0].Key != (pmap.Key{Local: 2, Shard: 0}) || top[1].Key != (pmap.Key{Local: 4, Shard: 1}) {
		t.Fatalf("top = %+v", top)
	}
	if top[0].Score != 0.9 || top[1].Score != 0.9 {
		t.Fatalf("scores = %+v", top)
	}
	all := m.TopK(100)
	if len(all) != 4 || all[3].Key != (pmap.Key{Local: 3, Shard: 1}) {
		t.Fatalf("all = %+v", all)
	}
	if m.TopK(0) != nil {
		t.Fatal("TopK(0) should be nil")
	}
}

func TestRunSSPPRTopKMatchesFull(t *testing.T) {
	g := testGraph(34, 250, 1500)
	storages, _, loc, cleanup := testDeployment(t, g, 2)
	defer cleanup()
	sh, lc := loc.Locate(4)
	top, _, err := RunSSPPRTopK(context.Background(), storages[sh], lc, 10, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 10 {
		t.Fatalf("top = %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatal("not descending")
		}
	}
	// The source is its own top-1 (pi(s,s) >= alpha).
	if top[0].Key != (pmap.Key{Local: lc, Shard: sh}) {
		t.Fatalf("top-1 = %+v, want source", top[0])
	}
	_ = rpc.LatencyModel{}
}
