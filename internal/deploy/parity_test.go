package deploy

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pprengine/internal/cluster"
	"pprengine/internal/core"
	"pprengine/internal/delta"
	"pprengine/internal/gnn"
	"pprengine/internal/graph"
	"pprengine/internal/ha"
	"pprengine/internal/rpc"
	"pprengine/internal/stack"
)

// TestStackParity: the in-process cluster harness and the file-based
// bootstrap build a machine from the same stack.Config through the same
// stack.Build, so machine 0 of a cluster and a pprserve-style owner of shard
// 0 must come up with the same stages in the same order and answer
// bitwise-identically — DeterministicPop scores, /infer logits, and both
// again after a mutation batch — whichever stages are on.
func TestStackParity(t *testing.T) {
	const (
		k                = 3
		dim, hid, nclass = 8, 8, 4
		seed             = 1
	)
	g := graph.MakeUndirected(graph.RMAT(graph.RMATConfig{
		NumNodes: 400, NumEdges: 2600, A: 0.55, B: 0.2, C: 0.15, Seed: 21,
	}))
	dir := writeDeployment(t, g, k)
	locPath := filepath.Join(dir, "locator.bin")
	shardPath := func(i int) string { return filepath.Join(dir, fmt.Sprintf("shard-%d.bin", i)) }

	cache := stack.Config{CacheBytes: 1 << 20}
	agg := stack.Config{AggWindow: 200 * time.Microsecond, ZeroCopy: true}
	bench := stack.Config{CacheBytes: 1 << 20, AggWindow: 200 * time.Microsecond, ZeroCopy: true,
		AdmitMaxInFlight: 4, AdmitMaxQueue: 16, Hedge: true}
	feat := bench
	feat.FeatCacheBytes, feat.FeatAdmitMass = 1<<20, 1e-3
	for _, tc := range []struct {
		name     string
		cfg      stack.Config
		replicas int
		features bool
		mutable  bool // file-based replicas are separate processes the coordinator does not mirror to, so mutable cases run unreplicated
		stages   []string
	}{
		{name: "bare", stages: []string{"rpc"}},
		{name: "cache", cfg: cache, stages: []string{"cache", "rpc"}},
		{name: "agg", cfg: agg, stages: []string{"agg", "rpc"}},
		{name: "replicas", replicas: 2, stages: []string{"route", "rpc"}},
		{name: "hedge", cfg: stack.Config{Hedge: true}, replicas: 2, stages: []string{"hedge", "route", "rpc"}},
		{name: "hedge-unreplicated", cfg: stack.Config{Hedge: true}, stages: []string{"rpc"}},
		{name: "bench-default", cfg: bench, replicas: 2, stages: []string{"admit", "cache", "agg", "hedge", "route", "rpc"}},
		{name: "bench-default+features", cfg: feat, replicas: 2, features: true,
			stages: []string{"admit", "cache", "featcache", "agg", "hedge", "route", "rpc"}},
		{name: "features-bare", features: true, stages: []string{"rpc"}},
		{name: "mutable", mutable: true, stages: []string{"rpc"}},
		{name: "mutable+cache+agg+features", cfg: feat, features: true, mutable: true,
			stages: []string{"admit", "cache", "featcache", "agg", "rpc"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			// --- the cluster harness
			c, err := cluster.New(g, cluster.Options{
				NumMachines: k, ProcsPerMachine: 1, Seed: 1, Replicas: tc.replicas, Mutable: tc.mutable,
				CacheBytes: tc.cfg.CacheBytes, AggWindow: tc.cfg.AggWindow, AggRows: tc.cfg.AggRows, ZeroCopy: tc.cfg.ZeroCopy,
				FeatCacheBytes: tc.cfg.FeatCacheBytes, FeatAdmitMass: tc.cfg.FeatAdmitMass,
				AdmitMaxInFlight: tc.cfg.AdmitMaxInFlight, AdmitMaxQueue: tc.cfg.AdmitMaxQueue,
				AdmitTenantRate: tc.cfg.AdmitTenantRate, AdmitTenantBurst: tc.cfg.AdmitTenantBurst,
				Hedge: tc.cfg.Hedge, HedgeDelay: tc.cfg.HedgeDelay,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// --- the file-based bootstrap: k primaries (+ one replica of every
			// remote shard), shard 0's made a query owner.
			servers := make([]*core.StorageServer, k)
			peers := map[int32][]string{}
			attach := func(srv *core.StorageServer) []float32 {
				if !tc.features {
					return nil
				}
				feats := gnn.MakeFeatures(srv.Shard, dim, nclass, seed+int64(srv.Shard.ShardID))
				if err := srv.AttachFeatures(dim, feats); err != nil {
					t.Fatal(err)
				}
				return feats
			}
			var feats0 []float32
			for i := 0; i < k; i++ {
				srv, addr, err := Serve(shardPath(i), locPath, "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				servers[i] = srv
				peers[int32(i)] = []string{addr}
				if f := attach(srv); i == 0 {
					feats0 = f
				}
				if tc.replicas >= 2 && i > 0 {
					rs, raddr, err := Serve(shardPath(i), locPath, "127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					defer rs.Close()
					attach(rs)
					peers[int32(i)] = append(peers[int32(i)], raddr)
				}
			}
			qcfg := core.DefaultConfig()
			qcfg.DeterministicPop = true
			qcfg.Eps = 1e-5
			owner, err := EnableQueries(ctx, servers[0], peers, tc.cfg, qcfg, ha.Options{}, rpc.LatencyModel{})
			if err != nil {
				t.Fatal(err)
			}
			defer owner.Close()
			var mutate func([]delta.Mutation) uint64
			if tc.mutable {
				for i, srv := range servers {
					var compute *core.DistGraphStorage
					if i == 0 {
						compute = owner.Handles[0]
					}
					_, coord, cleanup, err := EnableMutations(ctx, srv, compute, PrimaryPeers(peers), MutateOptions{Coordinator: i == 0}, rpc.LatencyModel{})
					if err != nil {
						t.Fatal(err)
					}
					defer cleanup()
					if coord != nil {
						mutate = func(muts []delta.Mutation) uint64 {
							e, err := coord.Apply(ctx, muts)
							if err != nil {
								t.Fatal(err)
							}
							return e
						}
					}
				}
			}
			if tc.features {
				tcfg := gnn.DefaultTrainConfig()
				tcfg.FeatureDim, tcfg.Hidden, tcfg.NumClasses, tcfg.Seed = dim, hid, nclass, seed
				if _, err := gnn.Setup(c, tcfg); err != nil {
					t.Fatal(err)
				}
				owner.Handles[0].AttachLocalFeatures(dim, feats0)
			}

			// --- same stages, same order
			if got := c.Machines[0].Stages(); !reflect.DeepEqual(got, tc.stages) {
				t.Fatalf("cluster machine stages = %v, want %v", got, tc.stages)
			}
			if got := owner.Stages(); !reflect.DeepEqual(got, tc.stages) {
				t.Fatalf("deploy owner stages = %v, want %v", got, tc.stages)
			}
			// --- same answers, bit for bit
			handles := map[string]*core.DistGraphStorage{"cluster": c.Storages[0][0], "deploy": owner.Handles[0]}
			compare := func(when string) {
				t.Helper()
				for _, src := range []int32{0, 3, 11} {
					scores := map[string]map[int32]float64{}
					logits := map[string][]float32{}
					for side, st := range handles {
						for pass := 0; pass < 2; pass++ { // the second pass reads through warm caches
							m, _, err := core.RunSSPPR(ctx, st, src, qcfg, nil)
							if err != nil {
								t.Fatalf("%s %s source %d: %v", when, side, src, err)
							}
							scores[side] = core.ScoresGlobal(st, m)
							m.Release()
						}
						if tc.features {
							svc := &gnn.InferService{G: st, Model: gnn.NewSAGE(dim, hid, nclass, seed), TopK: 16, NumClasses: nclass, PPR: qcfg}
							res, err := svc.Infer(ctx, src)
							if err != nil {
								t.Fatalf("%s %s infer %d: %v", when, side, src, err)
							}
							logits[side] = res.Logits
						}
					}
					if !reflect.DeepEqual(scores["cluster"], scores["deploy"]) {
						t.Fatalf("%s: source %d scores differ between cluster and deploy stacks", when, src)
					}
					if !reflect.DeepEqual(logits["cluster"], logits["deploy"]) {
						t.Fatalf("%s: source %d logits differ: %v vs %v", when, src, logits["cluster"], logits["deploy"])
					}
				}
			}
			compare("static")
			if tc.mutable {
				muts := []delta.Mutation{
					{Op: delta.OpAddEdge, Src: 0, Dst: 5, Weight: 0.5},
					{Op: delta.OpAddEdge, Src: 7, Dst: 0, Weight: 1},
					{Op: delta.OpDelEdge, Src: 3, Dst: g.Neighbors(3)[0]},
				}
				ce, err := c.Mutate(ctx, muts)
				if err != nil {
					t.Fatal(err)
				}
				if de := mutate(muts); de != ce {
					t.Fatalf("mutation landed at epoch %d on the cluster, %d on the deployment", ce, de)
				}
				compare("mutated")
			}
		})
	}
}
