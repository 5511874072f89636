package gnn

// End-to-end serving-pipeline tests (§4.5): SSPPR → top-K subgraph +
// cross-machine feature slice → GraphSAGE forward. These cover the feature
// tier's correctness properties — failover transparency, pooled-buffer
// hygiene, trace unity, cache savings — and ConvertBatch's edge cases.

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"pprengine/internal/chaos"
	"pprengine/internal/cluster"
	"pprengine/internal/core"
	"pprengine/internal/graph"
	"pprengine/internal/metrics"
	"pprengine/internal/partition"
	"pprengine/internal/pmap"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
)

// detPPR pins the engine for bitwise-reproducible scores: deterministic
// frontier pops on a single push worker.
func detPPR() core.Config {
	cfg := core.DefaultConfig()
	cfg.Eps = 1e-4
	cfg.DeterministicPop = true
	return cfg
}

// inferOnce runs the serving pipeline once from st and returns the logits.
func inferOnce(t *testing.T, st *core.DistGraphStorage, model *SAGE, src int32, cfg core.Config, topK, classes int) []float32 {
	t.Helper()
	q, _, err := core.RunSSPPR(context.Background(), st, src, cfg, nil)
	if err != nil {
		t.Fatalf("ssppr source %d: %v", src, err)
	}
	b, err := ConvertBatch(context.Background(), st, q, src, topK, classes)
	if err != nil {
		t.Fatalf("convert source %d: %v", src, err)
	}
	return model.Forward(b)
}

func wantBitwise(t *testing.T, want, got []float32, what string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d logits vs %d", what, len(want), len(got))
	}
	for j := range want {
		if math.Float32bits(want[j]) != math.Float32bits(got[j]) {
			t.Fatalf("%s: logit %d = %v, want %v (not bitwise identical)", what, j, got[j], want[j])
		}
	}
}

// TestServeSurvivesPrimaryKill is the failover-transparency bar for the
// serving path: killing a primary mid-inference-stream (so some ConvertBatch
// feature fetch lands on a dead machine and fails over) must not change a
// single logit bit. The reference run and the chaos run share the same
// shards, features, and model; only the fault plan differs.
func TestServeSurvivesPrimaryKill(t *testing.T) {
	const (
		machines = 3
		topK     = 32
		classes  = 4
	)
	g := graph.MakeUndirected(graph.RMAT(graph.RMATConfig{
		NumNodes: 600, NumEdges: 4000, A: 0.5, B: 0.22, C: 0.22, Seed: 21,
	}))
	a, err := partition.Partition(g, machines, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	shards, loc, err := shard.Build(g, a, machines)
	if err != nil {
		t.Fatal(err)
	}
	quality := partition.Evaluate(g, a)
	opts := cluster.Options{
		NumMachines: machines, ProcsPerMachine: 1,
		Replicas:      2,
		ProbeInterval: 20 * time.Millisecond, ProbeTimeout: time.Second,
		BreakerThreshold: 2, FailoverTimeout: 2 * time.Second,
	}
	cfg := detPPR()
	tc := DefaultTrainConfig()
	sources := []int32{1, 2, 3, 5, 8, 13, 21, 34}

	runAll := func(c *cluster.Cluster) [][]float32 {
		t.Helper()
		if _, err := Setup(c, tc); err != nil {
			t.Fatal(err)
		}
		model := NewSAGE(tc.FeatureDim, tc.Hidden, tc.NumClasses, 7)
		out := make([][]float32, len(sources))
		for i, src := range sources {
			out[i] = inferOnce(t, c.Storages[0][0], model, src, cfg, topK, classes)
		}
		return out
	}

	ref, err2 := func() (out [][]float32, err error) {
		c, err := cluster.NewFromShards(shards, loc, opts, quality)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		return runAll(c), nil
	}()
	if err2 != nil {
		t.Fatal(err2)
	}

	// Chaos run: machine 1's listener dies after its first handful of
	// response writes — deep inside the inference stream, possibly mid-way
	// through a ConvertBatch's fetches — and stays dead. Every later fetch
	// for shard 1 must fail over to its replica.
	inj := chaos.New(7)
	const victim = 1
	inj.SetPlan(victim, chaos.Plan{KillAfterWrites: 40})
	haOpts := opts
	haOpts.Chaos = inj
	c, err := cluster.NewFromShards(shards, loc, haOpts, quality)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := runAll(c)

	if kills := inj.Stats(victim).Kills; kills == 0 {
		t.Fatal("fault plan never fired: the kill must land mid-stream for this test to mean anything")
	}
	if c.HAStats().Failovers == 0 {
		t.Fatal("no failovers recorded despite a killed primary")
	}
	for i := range sources {
		wantBitwise(t, ref[i], got[i], "source "+string(rune('0'+i)))
	}
}

// TestConvertBatchReleasesPooledBuffers asserts the serving path's buffer
// hygiene on the zero-copy profile: after the batches are assembled and
// their futures released, every pooled response frame checked out for
// feature and neighbor fetches must be back in its pool.
func TestConvertBatchReleasesPooledBuffers(t *testing.T) {
	g := graph.MakeUndirected(graph.RMAT(graph.RMATConfig{
		NumNodes: 600, NumEdges: 4000, A: 0.5, B: 0.22, C: 0.22, Seed: 21,
	}))
	c, err := cluster.New(g, cluster.Options{NumMachines: 2, ProcsPerMachine: 1, Seed: 5, ZeroCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tc := DefaultTrainConfig()
	if _, err := Setup(c, tc); err != nil {
		t.Fatal(err)
	}
	cfg := detPPR()
	cfg.ZeroCopy = true

	baseline := metrics.PoolLiveBytes.Load()
	st := c.Storages[0][0]
	for _, src := range []int32{1, 2, 3, 4, 5} {
		q, _, err := core.RunSSPPR(context.Background(), st, src, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ConvertBatch(context.Background(), st, q, src, tc.TopK, tc.NumClasses); err != nil {
			t.Fatal(err)
		}
	}
	// Server-side response buffers are released asynchronously after the
	// write completes; give them a moment to drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if live := metrics.PoolLiveBytes.Load(); live == baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pooled bytes leaked by the serving path: live %d, want baseline %d",
				metrics.PoolLiveBytes.Load(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestInferSingleTrace asserts the observability contract of satellite 3:
// one inference yields exactly one trace — a single "infer" root whose
// descendants (the SSPPR query, the convert-phase fetches, and the remote
// feature RPC's server-side span) all carry the root's trace ID.
func TestInferSingleTrace(t *testing.T) {
	g := graph.MakeUndirected(graph.RMAT(graph.RMATConfig{
		NumNodes: 600, NumEdges: 4000, A: 0.5, B: 0.22, C: 0.22, Seed: 21,
	}))
	c, err := cluster.New(g, cluster.Options{NumMachines: 2, ProcsPerMachine: 1, Seed: 5, TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tc := DefaultTrainConfig()
	if _, err := Setup(c, tc); err != nil {
		t.Fatal(err)
	}
	svc := &InferService{
		G:          c.Storages[0][0],
		Model:      NewSAGE(tc.FeatureDim, tc.Hidden, tc.NumClasses, 7),
		TopK:       tc.TopK,
		NumClasses: tc.NumClasses,
		PPR:        detPPR(),
	}
	if _, err := svc.Infer(context.Background(), 3); err != nil {
		t.Fatal(err)
	}

	spans := c.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded at TraceSample 1")
	}
	var trace uint64
	roots, featRPCs := 0, 0
	for _, s := range spans {
		if s.Name == "infer" {
			if s.Parent != 0 {
				t.Fatalf("infer span has parent %d, want root", s.Parent)
			}
			roots++
			trace = s.Trace
		}
	}
	if roots != 1 {
		t.Fatalf("got %d infer root spans, want exactly 1", roots)
	}
	for _, s := range spans {
		if s.Trace != trace {
			t.Fatalf("span %q on trace %x, want every span on the infer trace %x", s.Name, s.Trace, trace)
		}
		if s.Name == "rpc:FetchFeatures" {
			featRPCs++
		}
	}
	if featRPCs == 0 {
		t.Fatal("no rpc:FetchFeatures span joined the trace — feature fetches lost their trace context")
	}
}

// TestFeatureCacheCutsServeRPCs re-checks the bench's acceptance bar in
// miniature: with the feature cache and fetch aggregation on, repeating an
// inference set must at least halve the feature wire requests (the working
// set is resident after round one) at bitwise-identical logits.
func TestFeatureCacheCutsServeRPCs(t *testing.T) {
	g := graph.MakeUndirected(graph.RMAT(graph.RMATConfig{
		NumNodes: 600, NumEdges: 4000, A: 0.5, B: 0.22, C: 0.22, Seed: 21,
	}))
	c, err := cluster.New(g, cluster.Options{
		NumMachines: 2, ProcsPerMachine: 1, Seed: 5,
		FeatCacheBytes: 8 << 20,
		AggWindow:      200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tc := DefaultTrainConfig()
	if _, err := Setup(c, tc); err != nil {
		t.Fatal(err)
	}
	model := NewSAGE(tc.FeatureDim, tc.Hidden, tc.NumClasses, 7)
	cfg := detPPR()
	sources := []int32{1, 2, 3, 4, 5, 6}
	st := c.Storages[0][0]

	featRPCs := func() int64 {
		var n int64
		for _, s := range c.Servers {
			n += s.RPCStats().Requests[rpc.MethodFetchFeatures]
		}
		return n
	}
	round := func() [][]float32 {
		out := make([][]float32, len(sources))
		for i, src := range sources {
			out[i] = inferOnce(t, st, model, src, cfg, tc.TopK, tc.NumClasses)
		}
		return out
	}

	n0 := featRPCs()
	first := round()
	n1 := featRPCs()
	second := round()
	n2 := featRPCs()

	cold, warm := n1-n0, n2-n1
	if cold == 0 {
		t.Fatal("no feature RPCs at all: batches never crossed a machine boundary")
	}
	if 2*warm > cold {
		t.Fatalf("feature cache saved too little: %d RPCs cold round vs %d warm (want >= 2x fewer)", cold, warm)
	}
	for i := range sources {
		wantBitwise(t, first[i], second[i], "warm round")
	}
	if c.FeatCacheStats().Hits == 0 {
		t.Fatal("feature cache recorded no hits")
	}
}

// TestConvertBatchForcesEgo covers the top-K edge case: when the ego scores
// below the cut and the ranked list already fills topK slots, the ego
// replaces the last slot instead of growing the batch past topK.
func TestConvertBatchForcesEgo(t *testing.T) {
	c := trainCluster(t)
	tc := DefaultTrainConfig()
	if _, err := Setup(c, tc); err != nil {
		t.Fatal(err)
	}
	st := c.Storages[0][0]
	cfg := detPPR()
	q, _, err := core.RunSSPPR(context.Background(), st, 3, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	scores := q.Scores()
	const topK = 8
	if len(scores) <= topK {
		t.Fatalf("need more than %d scored vertices to force the ego out, got %d", topK, len(scores))
	}
	// Pick a shard-0 core vertex the walk never reached: score zero, so it
	// cannot be in the top-8, and ConvertBatch must force it in.
	ego := int32(-1)
	for v := int32(0); v < int32(c.Shards[0].NumCore()); v++ {
		if _, ok := scores[pmap.Key{Local: v, Shard: 0}]; !ok {
			ego = v
			break
		}
	}
	if ego < 0 {
		t.Skip("every shard-0 vertex was scored; cannot build the edge case")
	}
	b, err := ConvertBatch(context.Background(), st, q, ego, topK, tc.NumClasses)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != topK {
		t.Fatalf("batch size %d, want exactly topK=%d (ego replaces the last slot)", b.N, topK)
	}
	if b.EgoIdx != topK-1 {
		t.Fatalf("ego index %d, want %d (the replaced last slot)", b.EgoIdx, topK-1)
	}
	if w := b.PPRWeights[b.EgoIdx]; w != 0 {
		t.Fatalf("forced ego's PPR weight = %v, want 0 (it was never scored)", w)
	}
}

// TestConvertBatchNoFeatureStore asserts the typed error for a cluster that
// never attached features — both when the ego's own shard lacks them (local
// path) and when only a remote shard lacks them (error crosses the wire and
// is remapped to the sentinel).
func TestConvertBatchNoFeatureStore(t *testing.T) {
	c := trainCluster(t)
	st := c.Storages[0][0]
	cfg := detPPR()
	q, _, err := core.RunSSPPR(context.Background(), st, 3, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := DefaultTrainConfig()
	if _, err := ConvertBatch(context.Background(), st, q, 3, tc.TopK, tc.NumClasses); !errors.Is(err, core.ErrNoFeatureStore) {
		t.Fatalf("local: err = %v, want errors.Is ErrNoFeatureStore", err)
	}

	// Attach features on machine 0 only: the local slice succeeds, the
	// remote fetch must surface the same sentinel through the RPC error.
	feats := MakeFeatures(c.Shards[0], tc.FeatureDim, tc.NumClasses, 1)
	if err := c.Servers[0].AttachFeatures(tc.FeatureDim, feats); err != nil {
		t.Fatal(err)
	}
	st.AttachLocalFeatures(tc.FeatureDim, feats)
	if _, err := ConvertBatch(context.Background(), st, q, 3, tc.TopK, tc.NumClasses); !errors.Is(err, core.ErrNoFeatureStore) {
		t.Fatalf("remote: err = %v, want errors.Is ErrNoFeatureStore", err)
	}
}

// TestConvertBatchDimMismatch asserts the typed error when shards disagree
// on the feature dimension.
func TestConvertBatchDimMismatch(t *testing.T) {
	c := trainCluster(t)
	tc := DefaultTrainConfig()
	feats0 := MakeFeatures(c.Shards[0], 8, tc.NumClasses, 1)
	if err := c.Servers[0].AttachFeatures(8, feats0); err != nil {
		t.Fatal(err)
	}
	c.Storages[0][0].AttachLocalFeatures(8, feats0)
	feats1 := MakeFeatures(c.Shards[1], 16, tc.NumClasses, 2)
	if err := c.Servers[1].AttachFeatures(16, feats1); err != nil {
		t.Fatal(err)
	}

	st := c.Storages[0][0]
	cfg := detPPR()
	q, _, err := core.RunSSPPR(context.Background(), st, 3, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ConvertBatch(context.Background(), st, q, 3, tc.TopK, tc.NumClasses); !errors.Is(err, ErrFeatureDimMismatch) {
		t.Fatalf("err = %v, want errors.Is ErrFeatureDimMismatch", err)
	}
}
