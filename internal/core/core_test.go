package core

import (
	"context"
	"math"
	"testing"

	"pprengine/internal/graph"
	"pprengine/internal/metrics"
	"pprengine/internal/partition"
	"pprengine/internal/pmap"
	"pprengine/internal/ppr"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
)

// testDeployment builds a K-shard deployment around graph g with real RPC
// servers, returning one DistGraphStorage per shard plus a cleanup func.
func testDeployment(t *testing.T, g *graph.Graph, k int) ([]*DistGraphStorage, []*shard.Shard, *shard.Locator, func()) {
	t.Helper()
	assign, err := partition.Partition(g, k, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	shards, loc, err := shard.Build(g, assign, k)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*StorageServer, k)
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		servers[i] = NewStorageServer(shards[i], loc)
		addrs[i], err = servers[i].Start()
		if err != nil {
			t.Fatal(err)
		}
	}
	var allClients []*rpc.Client
	storages := make([]*DistGraphStorage, k)
	for i := 0; i < k; i++ {
		clients := make([]*rpc.Client, k)
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			c, err := rpc.Dial(addrs[j], rpc.LatencyModel{})
			if err != nil {
				t.Fatal(err)
			}
			clients[j] = c
			allClients = append(allClients, c)
		}
		storages[i] = NewDistGraphStorage(int32(i), shards[i], loc, clients)
	}
	cleanup := func() {
		for _, c := range allClients {
			c.Close()
		}
		for _, s := range servers {
			s.Close()
		}
	}
	return storages, shards, loc, cleanup
}

func testGraph(seed int64, n int, m int64) *graph.Graph {
	return graph.MakeUndirected(graph.RMAT(graph.RMATConfig{
		NumNodes: n, NumEdges: m, A: 0.55, B: 0.2, C: 0.15, Seed: seed,
	}))
}

const alpha = 0.462

func TestDistributedMatchesSingleMachine(t *testing.T) {
	g := testGraph(1, 300, 1800)
	storages, _, loc, cleanup := testDeployment(t, g, 3)
	defer cleanup()
	exact, _ := ppr.PowerIteration(g, 5, alpha, 1e-12, 100000)
	cfg := DefaultConfig()
	cfg.Eps = 1e-7
	sh, lc := loc.Locate(5)
	m, stats, err := RunSSPPR(context.Background(), storages[sh], lc, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pushes == 0 || stats.Iterations == 0 {
		t.Fatal("no work recorded")
	}
	scores := ScoresGlobal(storages[sh], m)
	// Same eps-approximation bound as the single-machine kernel.
	l1 := 0.0
	for v, ev := range exact {
		l1 += math.Abs(scores[int32(v)] - ev)
	}
	var sumDW float64
	for _, d := range g.WeightedDegree {
		sumDW += float64(d)
	}
	if l1 > cfg.Eps*sumDW {
		t.Fatalf("L1 error %v exceeds bound %v", l1, cfg.Eps*sumDW)
	}
	// Cross-check against the sequential single-machine forward push.
	seq := ppr.ForwardPush(g, 5, alpha, 1e-7)
	for v, sv := range seq.Scores {
		if math.Abs(scores[int32(v)]-sv) > 1e-4 {
			t.Fatalf("node %d: distributed %v vs sequential %v", v, scores[int32(v)], sv)
		}
	}
}

func TestAllFetchModesAgree(t *testing.T) {
	g := testGraph(2, 200, 1200)
	storages, _, loc, cleanup := testDeployment(t, g, 2)
	defer cleanup()
	sh, lc := loc.Locate(9)
	var ref map[int32]float64
	for _, mode := range []FetchMode{FetchSingle, FetchBatch, FetchBatchCompress} {
		for _, overlap := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.Overlap = overlap
			cfg.Eps = 1e-6
			m, _, err := RunSSPPR(context.Background(), storages[sh], lc, cfg, nil)
			if err != nil {
				t.Fatalf("mode=%v overlap=%v: %v", mode, overlap, err)
			}
			scores := ScoresGlobal(storages[sh], m)
			if ref == nil {
				ref = scores
				continue
			}
			if len(scores) < len(ref)*9/10 || len(scores) > len(ref)*11/10 {
				t.Fatalf("mode=%v overlap=%v: touched %d vs %d", mode, overlap, len(scores), len(ref))
			}
			for v, rv := range ref {
				// eps-approximations differ per push order by up to
				// ~alpha*eps*dw per node plus downstream effects.
				if math.Abs(scores[v]-rv) > 5e-4 {
					t.Fatalf("mode=%v overlap=%v node %d: %v vs %v", mode, overlap, v, scores[v], rv)
				}
			}
		}
	}
}

func TestPushVariantsAgree(t *testing.T) {
	g := testGraph(3, 250, 1600)
	storages, _, loc, cleanup := testDeployment(t, g, 2)
	defer cleanup()
	sh, lc := loc.Locate(3)
	// The interleaved push, then the claims-first one (the forked schemes of
	// the baseline engine are checked in internal/baseline).
	configs := []Config{
		DefaultConfig(),
		func() Config { c := DefaultConfig(); c.DeterministicPop = true; return c }(),
	}
	var ref map[int32]float64
	for i, cfg := range configs {
		cfg.Eps = 1e-6
		m, _, err := RunSSPPR(context.Background(), storages[sh], lc, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		scores := ScoresGlobal(storages[sh], m)
		if ref == nil {
			ref = scores
			continue
		}
		for v, rv := range ref {
			if math.Abs(scores[v]-rv) > 5e-4 {
				t.Fatalf("config %d node %d: %v vs %v", i, v, scores[v], rv)
			}
		}
	}
}

func TestTensorBaselineMatchesEngine(t *testing.T) {
	g := testGraph(4, 200, 1200)
	storages, _, loc, cleanup := testDeployment(t, g, 2)
	defer cleanup()
	sh, lc := loc.Locate(7)
	cfg := DefaultConfig()
	cfg.Eps = 1e-6
	m, _, err := RunSSPPR(context.Background(), storages[sh], lc, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	engineScores := ScoresGlobal(storages[sh], m)
	p, stats, err := RunTensorSSPPR(context.Background(), storages[sh], lc, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pushes == 0 {
		t.Fatal("tensor baseline did no work")
	}
	for v, ev := range engineScores {
		if math.Abs(p[v]-ev) > 5e-4 {
			t.Fatalf("node %d: tensor %v vs engine %v", v, p[v], ev)
		}
	}
	// The touched sets agree modulo threshold noise.
	touched := 0
	for _, x := range p {
		if x > 0 {
			touched++
		}
	}
	if touched < len(engineScores)*9/10 || touched > len(engineScores)*11/10 {
		t.Fatalf("tensor touched %d, engine %d", touched, len(engineScores))
	}
}

func TestBreakdownIsPopulated(t *testing.T) {
	g := testGraph(5, 300, 2000)
	storages, _, loc, cleanup := testDeployment(t, g, 2)
	defer cleanup()
	sh, lc := loc.Locate(11)
	bd := metrics.NewBreakdown()
	cfg := DefaultConfig()
	if _, _, err := RunSSPPR(context.Background(), storages[sh], lc, cfg, bd); err != nil {
		t.Fatal(err)
	}
	if bd.Count(metrics.PhasePop) == 0 || bd.Count(metrics.PhasePush) == 0 {
		t.Fatalf("breakdown not populated: %v", bd)
	}
	if bd.Get(metrics.PhaseRemoteFetch) == 0 {
		t.Fatalf("expected remote fetch time on a 2-shard run: %v", bd)
	}
}

func TestQueryStatsRemoteLocalSplit(t *testing.T) {
	g := testGraph(6, 300, 2000)
	storages, _, loc, cleanup := testDeployment(t, g, 3)
	defer cleanup()
	sh, lc := loc.Locate(0)
	_, stats, err := RunSSPPR(context.Background(), storages[sh], lc, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LocalRows == 0 {
		t.Fatal("no local rows")
	}
	if stats.RemoteRows == 0 {
		t.Fatal("no remote rows on a 3-shard run")
	}
	if stats.TouchedNodes == 0 {
		t.Fatal("no touched nodes")
	}
}

func TestSSPPRPopClearsSet(t *testing.T) {
	m := NewSSPPR(4, 0, DefaultConfig())
	locals, shards := m.Pop()
	if len(locals) != 1 || locals[0] != 4 || shards[0] != 0 {
		t.Fatalf("pop = %v %v", locals, shards)
	}
	locals, _ = m.Pop()
	if len(locals) != 0 {
		t.Fatal("second pop should be empty")
	}
}

func TestPushMismatchedSizesPanics(t *testing.T) {
	m := NewSSPPR(0, 0, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b, _ := BuildInfos(mustShard(t), []int32{0})
	m.Push(InfosBatch(b), []int32{0, 1}, []int32{0, 0})
}

func mustShard(t *testing.T) *shard.Shard {
	t.Helper()
	g := graph.Ring(4)
	shards, _, err := shard.Build(g, partition.Assignment{0, 0, 0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return shards[0]
}

func TestBuildInfosValidation(t *testing.T) {
	s := mustShard(t)
	if _, err := BuildInfos(s, []int32{99}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	infos, err := BuildInfos(s, nil)
	if err != nil || infos.NumRows() != 0 {
		t.Fatalf("empty batch: %v %v", infos, err)
	}
}

func TestLocalBatchZeroCopy(t *testing.T) {
	s := mustShard(t)
	b := LocalBatch(s, []int32{1, 2})
	if b.NumRows() != 2 {
		t.Fatal("rows")
	}
	locals, shards, weights, wdegs, rowWDeg := b.Row(0)
	if len(locals) != 1 || locals[0] != 2 || shards[0] != 0 {
		t.Fatalf("row 0: %v %v", locals, shards)
	}
	if weights[0] != 1 || wdegs[0] != 1 || rowWDeg != 1 {
		t.Fatalf("weights: %v %v %v", weights, wdegs, rowWDeg)
	}
	// Zero copy: slices alias the shard arrays.
	if &locals[0] != &s.NbrLocal[s.Indptr[1]] {
		t.Fatal("local batch copied data")
	}
}

func TestGetNeighborInfosLocalValidation(t *testing.T) {
	g := testGraph(7, 100, 500)
	storages, _, _, cleanup := testDeployment(t, g, 2)
	defer cleanup()
	if _, err := storages[0].GetNeighborInfos(context.Background(), 0, []int32{1 << 20}, Config{Mode: FetchBatchCompress}).Wait(); err == nil {
		t.Fatal("expected validation error for bad local id")
	}
}

func TestGetNeighborInfosRemoteError(t *testing.T) {
	g := testGraph(8, 100, 500)
	storages, _, _, cleanup := testDeployment(t, g, 2)
	defer cleanup()
	if _, err := storages[0].GetNeighborInfos(context.Background(), 1, []int32{1 << 20}, Config{Mode: FetchBatchCompress}).Wait(); err == nil {
		t.Fatal("expected remote validation error")
	}
}

func TestRandomWalkDistributed(t *testing.T) {
	g := testGraph(9, 200, 1400)
	storages, _, loc, cleanup := testDeployment(t, g, 2)
	defer cleanup()
	roots := []int32{0, 1, 2, 3}
	walkLen := 8
	sum, err := RunRandomWalk(context.Background(), storages[0], roots, walkLen, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum) != len(roots) {
		t.Fatalf("walks = %d", len(sum))
	}
	for i, w := range sum {
		if len(w) != walkLen+1 {
			t.Fatalf("walk %d length %d", i, len(w))
		}
		if w[0] != int32(loc.Global(0, roots[i])) {
			t.Fatalf("walk %d does not start at root", i)
		}
		// Every consecutive pair must be an edge of g (unless frozen at a
		// dead end, which repeats the same ID).
		for s := 0; s < walkLen; s++ {
			if w[s] == w[s+1] {
				continue // dead end padding (no self loops in g)
			}
			found := false
			for _, u := range g.Neighbors(graph.NodeID(w[s])) {
				if int32(u) == w[s+1] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("walk %d step %d: %d -> %d is not an edge", i, s, w[s], w[s+1])
			}
		}
	}
}

func TestRandomWalkDeterministicSeed(t *testing.T) {
	g := testGraph(10, 150, 900)
	storages, _, _, cleanup := testDeployment(t, g, 2)
	defer cleanup()
	a, err := RunRandomWalk(context.Background(), storages[0], []int32{0, 1}, 6, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRandomWalk(context.Background(), storages[0], []int32{0, 1}, 6, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("random walk not deterministic for fixed seed")
			}
		}
	}
}

func TestRandomWalkDeadEnd(t *testing.T) {
	// Path 0->1->2, node 2 dangling. One shard.
	g, _ := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}})
	shards, loc, err := shard.Build(g, partition.Assignment{0, 0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := NewDistGraphStorage(0, shards[0], loc, make([]*rpc.Client, 1))
	sum, err := RunRandomWalk(context.Background(), st, []int32{0}, 5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := sum[0]
	if w[0] != 0 || w[1] != 1 || w[2] != 2 {
		t.Fatalf("walk = %v", w)
	}
	for s := 2; s <= 5; s++ {
		if w[s] != 2 {
			t.Fatalf("dead end not frozen: %v", w)
		}
	}
}

func TestSampleOneNeighborWeighted(t *testing.T) {
	// Node 0 has neighbors 1 (weight 99) and 2 (weight 1): samples should
	// overwhelmingly pick 1.
	g, _ := graph.FromEdges(3, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 99}, {Src: 0, Dst: 2, Weight: 1},
	})
	shards, loc, err := shard.Build(g, partition.Assignment{0, 0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	picks := map[int32]int{}
	for seed := int64(0); seed < 200; seed++ {
		resp, err := SampleOneNeighborLocal(shards[0], loc, []int32{0}, seed)
		if err != nil {
			t.Fatal(err)
		}
		picks[resp.Globals[0]]++
	}
	if picks[1] < 180 {
		t.Fatalf("weighted sampling broken: %v", picks)
	}
}

func TestScoresAndResidualMass(t *testing.T) {
	g := testGraph(11, 200, 1200)
	storages, _, loc, cleanup := testDeployment(t, g, 2)
	defer cleanup()
	sh, lc := loc.Locate(1)
	m, _, err := RunSSPPR(context.Background(), storages[sh], lc, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range m.Scores() {
		sum += v
	}
	resid := m.ResidualMass()
	// Conservation: captured + residual ≈ 1 on graphs without dangling
	// nodes reachable from the source.
	if math.Abs(sum+resid-1) > 1e-6 {
		t.Fatalf("mass: scores %v + residual %v != 1", sum, resid)
	}
}

func TestFetchModeStrings(t *testing.T) {
	if FetchSingle.String() != "Single" || FetchBatch.String() != "+Batch" || FetchBatchCompress.String() != "+Compress" {
		t.Fatal("labels wrong")
	}
}

func TestConfigDefaults(t *testing.T) {
	d := DefaultConfig()
	if d.Alpha != 0.462 || d.Eps != 1e-6 || d.Mode != FetchBatchCompress || !d.Overlap {
		t.Fatalf("paper defaults wrong: %+v", d)
	}
}

func TestSSPPRKeyedByShard(t *testing.T) {
	// Two vertices with the same local ID in different shards must not
	// collide in the maps.
	m := NewSSPPR(0, 0, DefaultConfig())
	m.st.r.Set(pmap.Key{Local: 0, Shard: 1}, 0.5)
	if v, _ := m.st.r.Get(pmap.Key{Local: 0, Shard: 0}); v != 1 {
		t.Fatalf("source residual = %v", v)
	}
	if v, _ := m.st.r.Get(pmap.Key{Local: 0, Shard: 1}); v != 0.5 {
		t.Fatalf("other residual = %v", v)
	}
}
