package baseline_test

import (
	"context"
	"math"
	"testing"

	"pprengine/internal/baseline"
	"pprengine/internal/cluster"
	"pprengine/internal/core"
	"pprengine/internal/graph"
	"pprengine/internal/pmap"
)

func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	g := graph.MakeUndirected(graph.RMAT(graph.RMATConfig{
		NumNodes: 250, NumEdges: 1600, A: 0.55, B: 0.2, C: 0.15, Seed: 3,
	}))
	c, err := cluster.New(g, cluster.Options{NumMachines: 2, ProcsPerMachine: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

var (
	sequential = baseline.Options{Workers: 1}
	owned      = baseline.Options{Workers: 4, Threshold: 1}
	locked     = baseline.Options{Workers: 4, Threshold: 1, Locked: true}
)

func scoresOf(t *testing.T, c *cluster.Cluster, cfg core.Config, opt baseline.Options) map[int32]float64 {
	t.Helper()
	m, stats, err := baseline.RunSSPPR(context.Background(), c.Storages[0][0], 3, cfg, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pushes == 0 || stats.Iterations == 0 || stats.TouchedNodes != m.ScoreCount() {
		t.Fatalf("stats not populated: %+v", stats)
	}
	if rm := m.ResidualMass(); rm < 0 || rm > 0.1 {
		t.Fatalf("residual mass %v left after convergence", rm)
	}
	return core.ScoresGlobal(c.Storages[0][0], m)
}

// The three push schemes are eps-approximations of the same vector.
func TestPushSchemesAgree(t *testing.T) {
	c := testCluster(t)
	cfg := core.DefaultConfig()
	ref := scoresOf(t, c, cfg, sequential)
	for name, opt := range map[string]baseline.Options{"owner-compute": owned, "locked": locked} {
		got := scoresOf(t, c, cfg, opt)
		for v, rv := range ref {
			if math.Abs(got[v]-rv) > 5e-4 {
				t.Fatalf("%s: node %d: %v vs sequential %v", name, v, got[v], rv)
			}
		}
	}
}

// Under DeterministicPop the sequential and owner-compute schemes claim
// before they apply, in row order: bitwise equal scores.
func TestDeterministicSchemesBitwiseEqual(t *testing.T) {
	c := testCluster(t)
	cfg := core.DefaultConfig()
	cfg.DeterministicPop = true
	ref := scoresOf(t, c, cfg, sequential)
	got := scoresOf(t, c, cfg, owned)
	if len(got) != len(ref) {
		t.Fatalf("touched %d nodes owner-compute, %d sequential", len(got), len(ref))
	}
	for v, rv := range ref {
		if math.Float64bits(got[v]) != math.Float64bits(rv) {
			t.Fatalf("node %d: owner-compute %v, sequential %v", v, got[v], rv)
		}
	}
}

// The served engine against this one: sources A, B, A through the served
// engine's recycled state (one goroutine, so each query draws the state the
// last one released) score bitwise like three baseline runs. internal/core's
// tests hold the same sequence against fresh served states.
func TestServedEngineRecycledMatchesBaseline(t *testing.T) {
	c := testCluster(t)
	cfg := core.DefaultConfig()
	cfg.DeterministicPop = true
	st := c.Storages[0][0]
	for i, src := range []int32{3, 41, 3} {
		want, _, err := baseline.RunSSPPR(context.Background(), st, src, cfg, sequential, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := core.RunSSPPR(context.Background(), st, src, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.ScoreCount() != want.ScoreCount() {
			t.Fatalf("query %d: served engine scored %d nodes, baseline %d", i, got.ScoreCount(), want.ScoreCount())
		}
		want.RangeScores(func(k pmap.Key, w float64) bool {
			if g := got.Score(k); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("query %d node %v: served engine %v, baseline %v", i, k, g, w)
			}
			return true
		})
		got.Release()
	}
}

func TestPopClearsSetAndPushChecksSizes(t *testing.T) {
	m := baseline.NewStriped(4, 0, core.DefaultConfig(), baseline.Options{})
	locals, shards := m.Pop()
	if len(locals) != 1 || locals[0] != 4 || shards[0] != 0 {
		t.Fatalf("pop = %v %v", locals, shards)
	}
	if locals, _ = m.Pop(); len(locals) != 0 {
		t.Fatal("second pop should be empty")
	}
	n := 0
	m.RangeScores(func(pmap.Key, float64) bool { n++; return true })
	if n != 0 || m.ScoreCount() != 0 {
		t.Fatalf("fresh state holds %d scores", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic on mismatched batch sizes")
		}
	}()
	m.Push(core.VPBatch(nil), []int32{0, 1}, []int32{0})
}
