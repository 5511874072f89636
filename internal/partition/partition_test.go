package partition

import (
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"

	"pprengine/internal/datasets"
	"pprengine/internal/graph"
)

func testGraph(seed int64) *graph.Graph {
	g := graph.RMAT(graph.RMATConfig{
		NumNodes: 2000, NumEdges: 12000, A: 0.55, B: 0.2, C: 0.15, Seed: seed,
	})
	return graph.MakeUndirected(g)
}

func TestPartitionValidAssignment(t *testing.T) {
	g := testGraph(1)
	for _, k := range []int{2, 4, 8} {
		a, err := Partition(g, k, Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != g.NumNodes {
			t.Fatalf("k=%d: assignment length %d != %d", k, len(a), g.NumNodes)
		}
		for v, p := range a {
			if p < 0 || int(p) >= k {
				t.Fatalf("k=%d: node %d assigned to invalid part %d", k, v, p)
			}
		}
		if a.NumParts() != k {
			t.Fatalf("k=%d: only %d parts used", k, a.NumParts())
		}
	}
}

func TestPartitionBalance(t *testing.T) {
	g := testGraph(2)
	for _, k := range []int{2, 4, 8} {
		a, err := Partition(g, k, Options{Imbalance: 0.05, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		q := Evaluate(g, a)
		// Allow some slack beyond the constraint because boundary FM is
		// heuristic, but gross imbalance indicates a bug.
		if q.Balance > 1.30 {
			t.Fatalf("k=%d: balance %.3f too high (sizes %v)", k, q.Balance, q.PartSizes)
		}
	}
}

func TestPartitionBeatsHash(t *testing.T) {
	g := testGraph(3)
	k := 4
	a, err := Partition(g, k, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	qMin := Evaluate(g, a)
	qHash := Evaluate(g, HashPartition(g.NumNodes, k))
	if qMin.EdgeCut >= qHash.EdgeCut {
		t.Fatalf("min-cut (%d) should beat hash (%d)", qMin.EdgeCut, qHash.EdgeCut)
	}
	// A community-free R-MAT graph still admits substantial improvement.
	if float64(qMin.EdgeCut) > 0.95*float64(qHash.EdgeCut) {
		t.Fatalf("min-cut %d barely beats hash %d", qMin.EdgeCut, qHash.EdgeCut)
	}
}

func TestPartitionOnClusteredGraph(t *testing.T) {
	// Two dense clusters joined by a single bridge: the partitioner must
	// find the obvious cut.
	var edges []graph.Edge
	n := 60
	for c := 0; c < 2; c++ {
		base := graph.NodeID(c * n / 2)
		for i := 0; i < n/2; i++ {
			for j := i + 1; j < n/2; j++ {
				if (i+j)%3 == 0 { // sparse-ish clique
					edges = append(edges,
						graph.Edge{Src: base + graph.NodeID(i), Dst: base + graph.NodeID(j), Weight: 1},
						graph.Edge{Src: base + graph.NodeID(j), Dst: base + graph.NodeID(i), Weight: 1})
				}
			}
		}
	}
	edges = append(edges,
		graph.Edge{Src: 0, Dst: graph.NodeID(n / 2), Weight: 1},
		graph.Edge{Src: graph.NodeID(n / 2), Dst: 0, Weight: 1})
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Partition(g, 2, Options{Seed: 5, CoarsenTo: 16})
	if err != nil {
		t.Fatal(err)
	}
	q := Evaluate(g, a)
	// Ideal cut = 2 directed edges (the bridge). Accept a small multiple.
	if q.EdgeCut > 8 {
		t.Fatalf("clustered graph cut = %d, want <= 8 (sizes %v)", q.EdgeCut, q.PartSizes)
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	g := testGraph(4)
	if _, err := Partition(g, 0, Options{}); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := Partition(g, g.NumNodes+1, Options{}); err == nil {
		t.Fatal("k>n should error")
	}
	a, err := Partition(g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range a {
		if p != 0 {
			t.Fatal("k=1 must assign everything to part 0")
		}
	}
	empty := &graph.Graph{NumNodes: 0, Indptr: []int64{0}}
	if a, err := Partition(empty, 3, Options{}); err != nil || len(a) != 0 {
		t.Fatalf("empty graph: %v %v", a, err)
	}
}

func TestPartitionStarGraph(t *testing.T) {
	// Star graphs defeat matching (hub can match only once); the
	// partitioner must still terminate and balance.
	g := graph.Star(1001)
	a, err := Partition(g, 4, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := Evaluate(g, a)
	if q.Balance > 1.5 {
		t.Fatalf("star balance %.2f (sizes %v)", q.Balance, q.PartSizes)
	}
}

func TestPartitionDeterministicForSeed(t *testing.T) {
	g := testGraph(5)
	a1, _ := Partition(g, 4, Options{Seed: 9})
	a2, _ := Partition(g, 4, Options{Seed: 9})
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("partition not deterministic for fixed seed")
		}
	}
}

func TestHashPartition(t *testing.T) {
	a := HashPartition(10, 3)
	if len(a) != 10 {
		t.Fatal("length")
	}
	for v, p := range a {
		if p != int32(v%3) {
			t.Fatalf("node %d -> %d", v, p)
		}
	}
}

func TestLDGPartition(t *testing.T) {
	g := testGraph(6)
	k := 4
	a := LDGPartition(g, k, 0.05)
	for _, p := range a {
		if p < 0 || int(p) >= k {
			t.Fatalf("invalid part %d", p)
		}
	}
	qLDG := Evaluate(g, a)
	qHash := Evaluate(g, HashPartition(g.NumNodes, k))
	if qLDG.EdgeCut >= qHash.EdgeCut {
		t.Fatalf("LDG (%d) should beat hash (%d)", qLDG.EdgeCut, qHash.EdgeCut)
	}
	if qLDG.Balance > 1.5 {
		t.Fatalf("LDG balance %.2f", qLDG.Balance)
	}
}

func TestEvaluateKnownCut(t *testing.T) {
	// 4-cycle split into {0,1} and {2,3}: cut = 4 directed edges
	// (1<->2 and 3<->0).
	g := graph.MakeUndirected(graph.Ring(4))
	q := Evaluate(g, Assignment{0, 0, 1, 1})
	if q.EdgeCut != 4 {
		t.Fatalf("EdgeCut = %d, want 4", q.EdgeCut)
	}
	if q.Balance != 1.0 {
		t.Fatalf("Balance = %v, want 1", q.Balance)
	}
	if q.CutRatio != 0.5 {
		t.Fatalf("CutRatio = %v, want 0.5", q.CutRatio)
	}
}

// Property: every valid input yields a complete in-range assignment, and cut
// is symmetric (counted once per direction, so always even on undirected
// graphs).
func TestQuickPartitionInvariants(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(150) + 20
		m := int64(rng.Intn(600) + 20)
		k := int(kRaw%4) + 2
		if k > n {
			k = n
		}
		g := graph.MakeUndirected(graph.ErdosRenyi(n, m, seed))
		a, err := Partition(g, k, Options{Seed: seed})
		if err != nil {
			return false
		}
		if len(a) != n {
			return false
		}
		for _, p := range a {
			if p < 0 || int(p) >= k {
				return false
			}
		}
		q := Evaluate(g, a)
		return q.EdgeCut%2 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionKEqualsN(t *testing.T) {
	g := graph.MakeUndirected(graph.Ring(8))
	a, err := Partition(g, 8, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]int{}
	for _, p := range a {
		seen[p]++
	}
	// Every part must be non-empty (8 nodes, 8 parts).
	if len(seen) != 8 {
		t.Fatalf("only %d parts populated: %v", len(seen), seen)
	}
}

func TestPartitionDisconnectedGraph(t *testing.T) {
	// Two disjoint rings: the partitioner must handle multiple components.
	var edges []graph.Edge
	for i := 0; i < 10; i++ {
		edges = append(edges, graph.Edge{Src: graph.NodeID(i), Dst: graph.NodeID((i + 1) % 10), Weight: 1})
		edges = append(edges, graph.Edge{Src: graph.NodeID(10 + i), Dst: graph.NodeID(10 + (i+1)%10), Weight: 1})
	}
	g, _ := graph.FromEdges(20, edges)
	g = graph.MakeUndirected(g)
	a, err := Partition(g, 2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := Evaluate(g, a)
	// Ideal: one ring per part, zero cut.
	if q.EdgeCut > 8 {
		t.Fatalf("disconnected graph cut = %d", q.EdgeCut)
	}
}

// assignmentHash is FNV-1a over the assignment, one byte per vertex.
func assignmentHash(a Assignment) uint64 {
	h := fnv.New64a()
	for _, p := range a {
		h.Write([]byte{byte(p)})
	}
	return h.Sum64()
}

// TestPartitionGolden pins Partition's output — every vertex's part and the
// edge cut — on the four stand-in datasets (1/16 scale, k=4) at seeds 1–3 to
// what the sort.Slice-based coarsener produced, so a change to how edge lists
// are sorted and merged (the order float weights are summed in) cannot move a
// single vertex unnoticed.
func TestPartitionGolden(t *testing.T) {
	golden := map[string][3]struct {
		hash uint64
		cut  int64
	}{
		"products-sim":   {{0x13265700dd7cd76d, 127354}, {0x16c564349698ed6f, 124088}, {0x4111e6f568f33ca3, 125830}},
		"twitter-sim":    {{0x8a02e683ff83f9bf, 237272}, {0x4a6a0c4518a36811, 235342}, {0x3c40eb84334969db, 240990}},
		"friendster-sim": {{0xe8600c426c8d375, 317288}, {0xd79e6f7e8eefb9b9, 317168}, {0x3ea392cf593a909, 316476}},
		"papers-sim":     {{0x6b45e0db43ae5657, 134978}, {0xaa39b8264119cf39, 136534}, {0x5480842fd02c74af, 134156}},
	}
	for _, spec := range datasets.Specs {
		g := spec.Scaled(16).Generate()
		for seed := int64(1); seed <= 3; seed++ {
			a, err := Partition(g, 4, Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			got, cut := assignmentHash(a), Evaluate(g, a).EdgeCut
			want := golden[spec.Name][seed-1]
			if got != want.hash || cut != want.cut {
				t.Errorf("%s seed %d: assignment %#x, edge cut %d; golden %#x, %d", spec.Name, seed, got, cut, want.hash, want.cut)
			}
		}
	}
}
