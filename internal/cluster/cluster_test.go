package cluster

import (
	"context"
	"slices"
	"sync"
	"testing"

	"pprengine/internal/core"
	"pprengine/internal/graph"
	"pprengine/internal/metrics"
	"pprengine/internal/ppr"
)

func testGraph(seed int64, n int, m int64) *graph.Graph {
	return graph.MakeUndirected(graph.RMAT(graph.RMATConfig{
		NumNodes: n, NumEdges: m, A: 0.55, B: 0.2, C: 0.15, Seed: seed,
	}))
}

func TestNewClusterBasics(t *testing.T) {
	g := testGraph(1, 400, 2400)
	c, err := New(g, Options{NumMachines: 4, ProcsPerMachine: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(c.Shards) != 4 || len(c.Servers) != 4 || len(c.Storages) != 4 {
		t.Fatal("wrong machine count")
	}
	for m := range c.Storages {
		if len(c.Storages[m]) != 2 {
			t.Fatal("wrong proc count")
		}
		for _, st := range c.Storages[m] {
			if st.ShardID != int32(m) || st.Local != c.Shards[m] {
				t.Fatal("storage wiring wrong")
			}
		}
	}
	total := 0
	for _, s := range c.Shards {
		total += s.NumCore()
	}
	if total != g.NumNodes {
		t.Fatalf("shards cover %d of %d nodes", total, g.NumNodes)
	}
	if c.Quality.EdgeCut <= 0 || c.Quality.Balance <= 0 {
		t.Fatalf("quality not computed: %+v", c.Quality)
	}
}

func TestClusterErrors(t *testing.T) {
	g := testGraph(2, 100, 500)
	if _, err := New(g, Options{NumMachines: 0}); err == nil {
		t.Fatal("expected error for 0 machines")
	}
}

func TestEvenQuerySet(t *testing.T) {
	g := testGraph(3, 300, 1500)
	c, err := New(g, Options{NumMachines: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	qs := c.EvenQuerySet(10, 7)
	if len(qs) != 3 {
		t.Fatal("machines")
	}
	for m, q := range qs {
		if len(q) != 10 {
			t.Fatalf("machine %d: %d queries", m, len(q))
		}
		for _, l := range q {
			if int(l) >= c.Shards[m].NumCore() || l < 0 {
				t.Fatalf("query id out of range")
			}
		}
	}
	// Determinism.
	qs2 := c.EvenQuerySet(10, 7)
	for m := range qs {
		for i := range qs[m] {
			if qs[m][i] != qs2[m][i] {
				t.Fatal("query set not deterministic")
			}
		}
	}
}

func TestRunSSPPRBatchBothEngines(t *testing.T) {
	g := testGraph(4, 400, 2400)
	c, err := New(g, Options{NumMachines: 2, ProcsPerMachine: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	qs := c.EvenQuerySet(4, 11)
	cfg := core.DefaultConfig()
	for _, kind := range []EngineKind{EngineMap, EngineTensor} {
		res, err := c.RunSSPPRBatch(context.Background(), qs, cfg, kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Queries != 8 {
			t.Fatalf("%v: queries = %d", kind, res.Queries)
		}
		if res.Throughput <= 0 || res.Wall <= 0 {
			t.Fatalf("%v: no throughput", kind)
		}
		if res.Pushes == 0 {
			t.Fatalf("%v: no pushes", kind)
		}
		if res.Breakdown.Count(metrics.PhasePush) == 0 {
			t.Fatalf("%v: empty breakdown", kind)
		}
		if res.RemoteFraction() <= 0 || res.RemoteFraction() >= 1 {
			t.Fatalf("%v: remote fraction = %v", kind, res.RemoteFraction())
		}
	}
}

func TestClusterResultsMatchGroundTruth(t *testing.T) {
	g := testGraph(5, 300, 1800)
	c, err := New(g, Options{NumMachines: 2, ProcsPerMachine: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Run one query directly through a cluster storage handle and compare
	// to power iteration.
	src := c.Shards[0].CoreGlobal[3]
	exact, _ := ppr.PowerIteration(g, src, 0.462, 1e-12, 100000)
	m, _, err := core.RunSSPPR(context.Background(), c.Storages[0][0], 3, core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	scores := core.ScoresGlobal(c.Storages[0][0], m)
	prec := 0
	top := 50
	exactTop := ppr.TopKOfMap(mapFromVec(exact), top)
	approxSet := map[graph.NodeID]bool{}
	for _, v := range ppr.TopKOfMap(mapFromScores(scores), top) {
		approxSet[v] = true
	}
	for _, v := range exactTop {
		if approxSet[v] {
			prec++
		}
	}
	if float64(prec)/float64(top) < 0.9 {
		t.Fatalf("top-%d precision = %d/%d", top, prec, top)
	}
}

func mapFromVec(v []float64) map[graph.NodeID]float64 {
	m := make(map[graph.NodeID]float64, len(v))
	for i, x := range v {
		if x > 0 {
			m[graph.NodeID(i)] = x
		}
	}
	return m
}

func mapFromScores(s map[int32]float64) map[graph.NodeID]float64 {
	m := make(map[graph.NodeID]float64, len(s))
	for k, v := range s {
		m[graph.NodeID(k)] = v
	}
	return m
}

func TestHashPartitionHasMoreRemoteTraffic(t *testing.T) {
	g := testGraph(6, 500, 3000)
	qs := [][]int32{}
	var fracMinCut, fracHash float64
	for _, pk := range []PartitionKind{PartitionMinCut, PartitionHash} {
		c, err := New(g, Options{NumMachines: 4, ProcsPerMachine: 1, Partitioner: pk, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		qs = c.EvenQuerySet(4, 13)
		res, err := c.RunSSPPRBatch(context.Background(), qs, core.DefaultConfig(), EngineMap)
		if err != nil {
			t.Fatal(err)
		}
		if pk == PartitionMinCut {
			fracMinCut = res.RemoteFraction()
		} else {
			fracHash = res.RemoteFraction()
		}
		c.Close()
	}
	if fracMinCut >= fracHash {
		t.Fatalf("min-cut remote fraction %v should beat hash %v", fracMinCut, fracHash)
	}
}

func TestRunRandomWalkBatch(t *testing.T) {
	g := testGraph(7, 300, 2000)
	c, err := New(g, Options{NumMachines: 2, ProcsPerMachine: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, summaries, err := c.RunRandomWalkBatch(context.Background(), 6, 5, 17)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 12 {
		t.Fatalf("queries = %d", res.Queries)
	}
	for m := range summaries {
		if len(summaries[m]) != 6 {
			t.Fatalf("machine %d walks = %d", m, len(summaries[m]))
		}
		for i, w := range summaries[m] {
			if len(w) != 6 {
				t.Fatalf("machine %d walk %d len = %d", m, i, len(w))
			}
			if w[0] < 0 || int(w[0]) >= g.NumNodes {
				t.Fatal("bad walk start")
			}
		}
	}
}

func TestLDGPartitionOption(t *testing.T) {
	g := testGraph(8, 200, 1200)
	c, err := New(g, Options{NumMachines: 2, Partitioner: PartitionLDG, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	qs := c.EvenQuerySet(2, 1)
	if _, err := c.RunSSPPRBatch(context.Background(), qs, core.DefaultConfig(), EngineMap); err != nil {
		t.Fatal(err)
	}
}

func TestEngineKindString(t *testing.T) {
	if EngineMap.String() != "PPR Engine" || EngineTensor.String() != "PyTorch Tensor" {
		t.Fatal("labels")
	}
}

// TestProcsPerMachineSameTopK: spreading a machine's queries over 4 compute
// processes instead of 1 changes who runs a query, never its answer. How much
// faster the 4-process batch is belongs to the bench harness, not to tier-1:
// `pprbench -exp fig5b` reports the strong-scaling times per process count.
func TestProcsPerMachineSameTopK(t *testing.T) {
	g := testGraph(9, 2000, 16000)
	cfg := core.DefaultConfig()
	cfg.DeterministicPop = true
	var ref [][]core.ScoredNode
	for _, procs := range []int{1, 4} {
		c, err := New(g, Options{NumMachines: 2, ProcsPerMachine: procs, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		qs := c.EvenQuerySet(16, 3)
		res, err := c.RunSSPPRBatch(context.Background(), qs, cfg, EngineMap)
		if err != nil || res.Failed != 0 {
			t.Fatalf("%d procs: batch failed: %v (%d of %d)", procs, err, res.Failed, res.Queries)
		}
		// The same queries again, one goroutine per process as the batch runs
		// them, keeping each top-K.
		tops := make([][]core.ScoredNode, 2*len(qs[0]))
		var wg sync.WaitGroup
		for m := range qs {
			for p := 0; p < procs; p++ {
				wg.Add(1)
				go func(m, p int) {
					defer wg.Done()
					for i := p; i < len(qs[m]); i += procs {
						top, _, err := core.RunSSPPRTopK(context.Background(), c.Storages[m][p], qs[m][i], 32, cfg, nil)
						if err != nil {
							t.Errorf("%d procs: machine %d source %d: %v", procs, m, qs[m][i], err)
							return
						}
						tops[m*len(qs[m])+i] = top
					}
				}(m, p)
			}
		}
		wg.Wait()
		c.Close()
		if t.Failed() {
			t.FailNow()
		}
		if ref == nil {
			ref = tops
			continue
		}
		for q := range ref {
			if !slices.Equal(ref[q], tops[q]) {
				t.Fatalf("query %d: top-K differs between 1 and %d procs:\n%v\n%v", q, procs, ref[q], tops[q])
			}
		}
	}
}

func TestClusterHaloOption(t *testing.T) {
	g := testGraph(10, 300, 2000)
	c, err := New(g, Options{NumMachines: 2, ProcsPerMachine: 1, CacheHaloRows: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, s := range c.Shards {
		if !s.HasHaloRows() {
			t.Fatal("halo rows not built")
		}
	}
	qs := c.EvenQuerySet(4, 9)
	res, err := c.RunSSPPRBatch(context.Background(), qs, core.DefaultConfig(), EngineMap)
	if err != nil {
		t.Fatal(err)
	}
	if res.HaloRows == 0 {
		t.Fatal("halo rows not used at query time")
	}
}

func TestSingleMachineCluster(t *testing.T) {
	// k=1: everything is local; the engine must work without any RPC.
	g := testGraph(11, 200, 1200)
	c, err := New(g, Options{NumMachines: 1, ProcsPerMachine: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	qs := c.EvenQuerySet(4, 3)
	res, err := c.RunSSPPRBatch(context.Background(), qs, core.DefaultConfig(), EngineMap)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteRows != 0 {
		t.Fatalf("single machine produced remote rows: %d", res.RemoteRows)
	}
	if res.LocalRows == 0 || res.Pushes == 0 {
		t.Fatal("no work done")
	}
}
