// Root-level benchmarks: one testing.B benchmark per table/figure of the
// paper's evaluation section, each delegating to the shared experiment
// implementations in internal/experiments. Reported custom metrics carry
// the experiment's headline numbers (throughput, speedups, precision) so
// `go test -bench=. -benchmem` regenerates the whole evaluation.
//
// Benchmarks run at a reduced dataset scale (BENCH_SCALE, default 16) so
// the suite completes in minutes; run cmd/pprbench -scale 1 for the full
// stand-in sizes.
package main

import (
	"context"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"pprengine/internal/baseline"
	"pprengine/internal/cluster"
	"pprengine/internal/core"
	"pprengine/internal/delta"
	"pprengine/internal/experiments"
	"pprengine/internal/gnn"
	"pprengine/internal/graph"
	"pprengine/internal/partition"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
)

func benchParams() experiments.Params {
	p := experiments.DefaultParams()
	p.Scale = 16
	if s := os.Getenv("BENCH_SCALE"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			p.Scale = v
		}
	}
	p.Warmup = 0
	p.Repeats = 1
	p.Queries = 8
	return p
}

// BenchmarkTable1Datasets regenerates the dataset statistics (Table 1).
func BenchmarkTable1Datasets(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		_, rows := experiments.Table1(p)
		if len(rows) != 4 {
			b.Fatal("missing datasets")
		}
		b.ReportMetric(float64(rows[len(rows)-1].DMax), "dmax_largest")
	}
}

// BenchmarkTable2Throughput regenerates the headline throughput comparison
// (Table 2): DGL SpMM vs PyTorch Tensor vs PPR Engine.
func BenchmarkTable2Throughput(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Table2(p)
		if err != nil {
			b.Fatal(err)
		}
		// Report the products row like the paper's headline.
		b.ReportMetric(rows[0].PPREngine, "engine_qps")
		b.ReportMetric(rows[0].PyTorchTensor, "tensor_qps")
		b.ReportMetric(rows[0].PPREngine/rows[0].PyTorchTensor, "speedup_x")
	}
}

// BenchmarkAggThroughput measures cross-query RPC fetch aggregation: the
// same concurrent query batch with aggregation off and on, reporting the
// wire-request reduction factor and the aggregated pass's throughput.
func BenchmarkAggThroughput(b *testing.B) {
	p := benchParams()
	p.Queries = 16
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.AggBench(p, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 || rows[1].RequestsSent == 0 {
			b.Fatal("aggregated pass sent no requests")
		}
		b.ReportMetric(float64(rows[0].RequestsSent)/float64(rows[1].RequestsSent), "req_reduction_x")
		b.ReportMetric(float64(rows[1].SharedFetches), "shared_fetches")
		b.ReportMetric(rows[1].Throughput, "agg_qps")
	}
}

// BenchmarkAccuracyTop100 regenerates the §4.2 accuracy claim.
func BenchmarkAccuracyTop100(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Accuracy(p, 3)
		if err != nil {
			b.Fatal(err)
		}
		minPrec := 1.0
		for _, r := range rows {
			if r.Top100 < minPrec {
				minPrec = r.Top100
			}
		}
		b.ReportMetric(minPrec, "min_top100_precision")
	}
}

// BenchmarkFig5aMachines regenerates the machine-scalability curve
// (Figure 5a).
func BenchmarkFig5aMachines(b *testing.B) {
	p := benchParams()
	p.Queries = 4
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Fig5a(p)
		if err != nil {
			b.Fatal(err)
		}
		// Speedup of 8 machines over 2 on the first dataset.
		b.ReportMetric(rows[2].Throughput/rows[0].Throughput, "speedup_8v2_x")
		b.ReportMetric(rows[2].RemoteFrac, "remote_frac_8")
	}
}

// BenchmarkFig5bProcs regenerates the inter-SSPPR parallelism study
// (Figure 5b).
func BenchmarkFig5bProcs(b *testing.B) {
	p := benchParams()
	p.Queries = 8
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Fig5b(p)
		if err != nil {
			b.Fatal(err)
		}
		// Strong-scaling time ratio procs=1 / procs=8 on the first dataset.
		var t1, t8 float64
		for _, r := range rows {
			if r.Dataset == rows[0].Dataset && !r.Weak {
				if r.Procs == 1 {
					t1 = r.Seconds
				}
				if r.Procs == 8 {
					t8 = r.Seconds
				}
			}
		}
		if t8 > 0 {
			b.ReportMetric(t1/t8, "strong_speedup_8_x")
		}
	}
}

// BenchmarkTable3Ablation regenerates the RPC optimization ladder (Table 3).
func BenchmarkTable3Ablation(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Table3(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].Speedup, "batch_speedup_x")
		b.ReportMetric(rows[2].Speedup, "compress_speedup_x")
		b.ReportMetric(rows[3].Speedup, "overlap_speedup_x")
	}
}

// BenchmarkFig6Breakdown regenerates the runtime breakdown comparison
// (Figure 6).
func BenchmarkFig6Breakdown(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Fig6(p)
		if err != nil {
			b.Fatal(err)
		}
		// Tensor push time over engine push time on the first dataset
		// (the paper reports 5-16x).
		tensorPush := rows[0].Push.Seconds()
		enginePush := rows[1].Push.Seconds()
		if enginePush > 0 {
			b.ReportMetric(tensorPush/enginePush, "push_speedup_x")
		}
	}
}

// BenchmarkFig7GNNEpoch regenerates the GNN training case study (Figure 7):
// one epoch of distributed ShaDow-SAGE with PPR subgraph construction.
func BenchmarkFig7GNNEpoch(b *testing.B) {
	g := graph.MakeUndirected(graph.RMAT(graph.RMATConfig{
		NumNodes: 2000, NumEdges: 14000, A: 0.5, B: 0.22, C: 0.22, Seed: 21,
	}))
	c, err := cluster.New(g, cluster.Options{NumMachines: 2, ProcsPerMachine: 1, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	cfg := gnn.DefaultTrainConfig()
	cfg.Epochs = 1
	cfg.BatchesPerEpc = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, _, err := gnn.TrainDistributed(context.Background(), c, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(stats[0].MeanLoss), "epoch_loss")
	}
}

// BenchmarkIntroSpeedups regenerates the introduction's products-sim
// comparison (1.7x RW / 83x FP in the paper).
func BenchmarkIntroSpeedups(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Intro(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].EngineSpeedup, "fp_speedup_x")
		b.ReportMetric(rows[1].EngineSpeedup, "rw_speedup_x")
	}
}

// BenchmarkPartitionQuality regenerates the partitioner ablation
// (DESIGN.md §5).
func BenchmarkPartitionQuality(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.PartQuality(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].RemoteFrac, "mincut_remote_frac")
		b.ReportMetric(rows[2].RemoteFrac, "hash_remote_frac")
	}
}

// BenchmarkSSPPRSingleQuery measures one engine query end to end on a
// mid-size deployment — the per-query latency behind all throughput tables.
func BenchmarkSSPPRSingleQuery(b *testing.B) {
	p := benchParams()
	spec, err := p.Spec("products-sim")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.GenerateCached()
	c, err := cluster.New(g, cluster.Options{NumMachines: 4, ProcsPerMachine: 1, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	cfg := core.DefaultConfig()
	st := c.Storages[0][0]
	n := int32(c.Shards[0].NumCore())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _, err := core.RunSSPPR(context.Background(), st, int32(i)%n, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}

// BenchmarkPushThreshold ablates the multi-threaded push threshold (§3.3's
// "simple strategy") on the baseline engine (the served engine never forks a
// push).
func BenchmarkPushThreshold(b *testing.B) {
	p := benchParams()
	spec, err := p.Spec("twitter-sim")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.GenerateCached()
	c, err := cluster.New(g, cluster.Options{NumMachines: 2, ProcsPerMachine: 1, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	st := c.Storages[0][0]
	n := int32(c.Shards[0].NumCore())
	for _, threshold := range []int{1, 64, 1 << 20} {
		name := map[int]string{1: "always-mt", 64: "threshold-64", 1 << 20: "never-mt"}[threshold]
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			opt := baseline.Options{Workers: 4, Threshold: threshold}
			for i := 0; i < b.N; i++ {
				if _, _, err := baseline.RunSSPPR(context.Background(), st, int32(i)%n, cfg, opt, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPmapVariants ablates the push locking scheme on the baseline
// engine: owner-compute (lock-eliminated) vs per-submap locking.
func BenchmarkPmapVariants(b *testing.B) {
	p := benchParams()
	spec, err := p.Spec("friendster-sim")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.GenerateCached()
	c, err := cluster.New(g, cluster.Options{NumMachines: 2, ProcsPerMachine: 1, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	st := c.Storages[0][0]
	n := int32(c.Shards[0].NumCore())
	for _, locked := range []bool{false, true} {
		name := "owner-compute"
		if locked {
			name = "locked"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			opt := baseline.Options{Workers: 4, Threshold: 1, Locked: locked}
			for i := 0; i < b.N; i++ {
				if _, _, err := baseline.RunSSPPR(context.Background(), st, int32(i)%n, cfg, opt, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRandomWalk measures the distributed Random Walk primitive
// (16-step walks, one batch per machine).
func BenchmarkRandomWalk(b *testing.B) {
	p := benchParams()
	spec, err := p.Spec("products-sim")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.GenerateCached()
	c, err := cluster.New(g, cluster.Options{NumMachines: 2, ProcsPerMachine: 1, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := c.RunRandomWalkBatch(context.Background(), 32, 16, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Throughput, "walks_per_sec")
	}
}

// BenchmarkKHopSample measures GraphSAGE-style fanout sampling through the
// distributed storage.
func BenchmarkKHopSample(b *testing.B) {
	p := benchParams()
	spec, err := p.Spec("products-sim")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.GenerateCached()
	c, err := cluster.New(g, cluster.Options{NumMachines: 2, ProcsPerMachine: 1, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	st := c.Storages[0][0]
	roots := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunKHopSample(context.Background(), st, roots, []int{10, 10}, int64(i), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Nodes)), "sampled_nodes")
	}
}

// BenchmarkHaloCache compares SSPPR with and without halo-row caching.
func BenchmarkHaloCache(b *testing.B) {
	p := benchParams()
	spec, err := p.Spec("twitter-sim")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.GenerateCached()
	for _, halo := range []bool{false, true} {
		name := "cols-only"
		if halo {
			name = "halo-rows"
		}
		b.Run(name, func(b *testing.B) {
			c, err := cluster.New(g, cluster.Options{
				NumMachines: 2, ProcsPerMachine: 1, Seed: 3, CacheHaloRows: halo,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			st := c.Storages[0][0]
			n := int32(c.Shards[0].NumCore())
			cfg := core.DefaultConfig()
			b.ResetTimer()
			var remote, haloRows int64
			for i := 0; i < b.N; i++ {
				_, stats, err := core.RunSSPPR(context.Background(), st, int32(i)%n, cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				remote += stats.RemoteRows
				haloRows += stats.HaloRows
			}
			b.ReportMetric(float64(remote)/float64(b.N), "remote_rows")
			b.ReportMetric(float64(haloRows)/float64(b.N), "halo_rows")
		})
	}
}

// BenchmarkQueryService measures end-to-end owner-compute query dispatch
// (thin client -> owner server -> distributed SSPPR -> ranked response).
func BenchmarkQueryService(b *testing.B) {
	p := benchParams()
	spec, err := p.Spec("products-sim")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.GenerateCached()
	c, err := cluster.New(g, cluster.Options{NumMachines: 2, ProcsPerMachine: 1, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for i, srv := range c.Servers {
		if err := srv.EnableQueryService(c.Storages[i][0], core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
	thin := make([]*rpc.Client, 2)
	for i, addr := range c.Addrs {
		cl, err := rpc.Dial(addr, rpc.LatencyModel{})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		thin[i] = cl
	}
	qc := core.NewQueryClient(thin, c.Locator.Locate)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := c.Shards[i%2].CoreGlobal[i%c.Shards[i%2].NumCore()]
		if _, err := qc.Query(context.Background(), src, 10, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFetchRoundTrip measures one 20-row neighbor fetch through the
// benchmark-default chain (cache + aggregation + R=2 with hedging, zero-copy)
// over loopback TCP: issue, wait, release. The cache is kept smaller than the
// rows the loop cycles through, so every fetch takes the miss path — reserve,
// flush, hedged call, decode, fulfil, insert — and none is served from memory.
func BenchmarkFetchRoundTrip(b *testing.B) {
	const rows = 20
	g := graph.ErdosRenyi(16000, 16000*16, 7)
	c, err := cluster.New(g, cluster.Options{
		NumMachines: 4, ProcsPerMachine: 1, Seed: 3,
		CacheBytes: 64 << 10, AggWindow: 200 * time.Microsecond, ZeroCopy: true,
		Replicas: 2, Hedge: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	st, dst, cfg := c.Storages[0][0], int32(1), core.DefaultConfig()
	n := int32(c.Shards[dst].NumCore()) / rows * rows
	ids := make([]int32, rows)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ids {
			ids[j] = (int32(i*rows) + int32(j)) % n
		}
		fut := st.GetNeighborInfos(ctx, dst, ids, cfg)
		batch, err := fut.WaitCtx(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if batch.NumRows() != rows {
			b.Fatalf("fetch returned %d rows, want %d", batch.NumRows(), rows)
		}
		fut.Release()
	}
	b.StopTimer()
	if hits := c.Machines[0].Cache.Stats().Hits; hits != 0 {
		b.Fatalf("%d cache hits: the loop must stay on the miss path", hits)
	}
}

// mutatedStore is the twitter-sim stand-in at the front-door benchmark's
// scale (32k vertices, 4 shards of ~450k neighbor entries) under one delta
// store that bases all four shards, plus a source of write rounds: 20 batches
// of 32 edge inserts on random sources, which is what the mixed workload
// sends in one 2-second compaction interval (640 dirty rows).
func mutatedStore(b *testing.B) (store *delta.Store, round func()) {
	p := benchParams()
	p.Scale = 4
	spec, err := p.Spec("twitter-sim")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.GenerateCached()
	const k = 4
	shards, loc, err := shard.Build(g, partition.HashPartition(g.NumNodes, k), k)
	if err != nil {
		b.Fatal(err)
	}
	bases := make(map[int32]*shard.Shard, k)
	for _, s := range shards {
		bases[s.ShardID] = s
	}
	store = delta.NewStore(loc, bases)
	coord := delta.NewCoordinator(store, nil, nil)
	rng := rand.New(rand.NewSource(15))
	return store, func() {
		for batch := 0; batch < 20; batch++ {
			muts := make([]delta.Mutation, 32)
			for i := range muts {
				src := rng.Intn(g.NumNodes)
				muts[i] = delta.Mutation{
					Op:  delta.OpAddEdge,
					Src: graph.NodeID(src), Dst: graph.NodeID((src + 1 + rng.Intn(g.NumNodes-1)) % g.NumNodes),
					Weight: 0.5,
				}
			}
			if _, err := coord.Apply(context.Background(), muts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCompact measures one compaction pass over the four shards after
// one interval's writes: ns/op and B/op are the whole pass, lock-us/op the
// part of it spent holding the store's write lock (what a reader waits for).
func BenchmarkCompact(b *testing.B) {
	store, round := mutatedStore(b)
	var held time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		round()
		b.StartTimer()
		cs := store.Compact()
		if cs.EpochsRetired != 20 {
			b.Fatalf("retired %d epochs, want 20", cs.EpochsRetired)
		}
		held += cs.Pause
	}
	b.ReportMetric(float64(held.Microseconds())/float64(b.N), "lock-us/op")
}

// BenchmarkVertexPropsPatched measures an epoch-pinned read of rows that
// resolve to the base CSR while degree overrides are present: 256 rows of
// shard 0 per op, after four write rounds and a compaction (so every mutated
// vertex keeps an override entry and no row keeps a version).
func BenchmarkVertexPropsPatched(b *testing.B) {
	store, round := mutatedStore(b)
	for i := 0; i < 4; i++ {
		round()
	}
	store.Compact()
	e := store.PinCurrent()
	defer store.Unpin(e)
	rng := rand.New(rand.NewSource(16))
	rows := make([]int32, 256)
	for i := range rows {
		rows[i] = int32(rng.Intn(store.Base(0).NumCore()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vps, err := store.VertexProps(0, rows, e)
		if err != nil {
			b.Fatal(err)
		}
		if len(vps) != len(rows) {
			b.Fatalf("%d rows, want %d", len(vps), len(rows))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rows)), "ns/row")
}
