package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pprengine/internal/graph"
	"pprengine/internal/partition"
	"pprengine/internal/pmap"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
)

// TestHaloWithAllFetchModes combines the halo-row cache with every RPC
// strategy: results must agree and halo hits must occur in each mode.
func TestHaloWithAllFetchModes(t *testing.T) {
	g := testGraph(61, 250, 1500)
	assign, err := partition.Partition(g, 2, partition.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	shards, loc, err := shard.BuildWithOptions(g, assign, 2, shard.BuildOptions{CacheHaloRows: true})
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*StorageServer, 2)
	addrs := make([]string, 2)
	for i := range servers {
		servers[i] = NewStorageServer(shards[i], loc)
		addrs[i], err = servers[i].Start()
		if err != nil {
			t.Fatal(err)
		}
		defer servers[i].Close()
	}
	clients := make([]*rpc.Client, 2)
	c1, err := rpc.Dial(addrs[1], rpc.LatencyModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	clients[1] = c1
	st := NewDistGraphStorage(0, shards[0], loc, clients)

	var ref map[int32]float64
	for _, mode := range []FetchMode{FetchSingle, FetchBatch, FetchBatchCompress} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		m, stats, err := RunSSPPR(context.Background(), st, 1, cfg, nil)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if stats.HaloRows == 0 {
			t.Fatalf("mode %v: halo cache unused", mode)
		}
		scores := ScoresGlobal(st, m)
		if ref == nil {
			ref = scores
			continue
		}
		for v, rv := range ref {
			if math.Abs(scores[v]-rv) > 5e-4 {
				t.Fatalf("mode %v node %d: %v vs %v", mode, v, scores[v], rv)
			}
		}
	}
}

// Property: TopK equals sorting the full score set and truncating, for any
// random score map.
func TestQuickTopKMatchesSort(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewSSPPR(0, 0, DefaultConfig())
		n := rng.Intn(200)
		type kv struct {
			k pmap.Key
			v float64
		}
		var all []kv
		seen := map[pmap.Key]bool{}
		for i := 0; i < n; i++ {
			key := pmap.Key{Local: int32(rng.Intn(50)), Shard: int32(rng.Intn(3))}
			if seen[key] {
				continue
			}
			seen[key] = true
			v := rng.Float64()
			m.st.p.Set(key, v)
			all = append(all, kv{key, v})
		}
		k := int(kRaw%20) + 1
		got := m.TopK(k)
		sort.Slice(all, func(i, j int) bool {
			if all[i].v != all[j].v {
				return all[i].v > all[j].v
			}
			if all[i].k.Shard != all[j].k.Shard {
				return all[i].k.Shard < all[j].k.Shard
			}
			return all[i].k.Local < all[j].k.Local
		})
		want := k
		if want > len(all) {
			want = len(all)
		}
		if len(got) != want {
			return false
		}
		for i := range got {
			if got[i].Key != all[i].k || got[i].Score != all[i].v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTensorConfigDispatchBudget sanity-checks the dispatch spin: n ops at
// d duration cost at least n*d wall time.
func TestTensorConfigDispatchBudget(t *testing.T) {
	cfg := TensorBaselineConfig()
	if cfg.TensorDispatch <= 0 {
		t.Fatal("baseline config has no dispatch cost")
	}
	zero := DefaultConfig()
	if zero.TensorDispatch != 0 {
		t.Fatal("engine default must not pay dispatch cost")
	}
	// dispatch(0) and zero-duration dispatch are no-ops.
	zero.dispatch(100)
	cfg.dispatch(0)
}

func TestGetShardStatsLocalAndRemote(t *testing.T) {
	g := testGraph(62, 200, 1200)
	storages, shards, _, cleanup := testDeployment(t, g, 2)
	defer cleanup()
	local, err := storages[0].GetShardStats(0)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := storages[0].GetShardStats(1)
	if err != nil {
		t.Fatal(err)
	}
	if local.ShardID != 0 || remote.ShardID != 1 {
		t.Fatalf("ids: %d %d", local.ShardID, remote.ShardID)
	}
	if int(local.NumCore) != shards[0].NumCore() || int(remote.NumCore) != shards[1].NumCore() {
		t.Fatal("core counts wrong")
	}
	if local.NumEntries+remote.NumEntries != g.NumEdges() {
		t.Fatalf("entries %d + %d != %d", local.NumEntries, remote.NumEntries, g.NumEdges())
	}
	if remote.RemoteFrac <= 0 || remote.AvgOutDegree <= 0 || remote.MemoryBytes <= 0 {
		t.Fatalf("remote stats empty: %+v", remote)
	}
	if local.NumShards != 2 {
		t.Fatal("NumShards")
	}
}

func TestIsolatedSourceDistributed(t *testing.T) {
	// A source with no out-edges: the query ends after one iteration with
	// pi(source) = alpha.
	g, _ := graph.FromEdges(4, []graph.Edge{
		{Src: 1, Dst: 2, Weight: 1}, {Src: 2, Dst: 1, Weight: 1},
		{Src: 2, Dst: 3, Weight: 1}, {Src: 3, Dst: 2, Weight: 1},
	})
	shards, loc, err := shard.Build(g, partition.Assignment{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewStorageServer(shards[1], loc)
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := rpc.Dial(addr, rpc.LatencyModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	clients := make([]*rpc.Client, 2)
	clients[1] = cl
	st := NewDistGraphStorage(0, shards[0], loc, clients)
	// Global node 0 is isolated and lives on shard 0 with local ID 0.
	m, stats, err := RunSSPPR(context.Background(), st, 0, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	scores := ScoresGlobal(st, m)
	if len(scores) != 1 || math.Abs(scores[0]-0.462) > 1e-12 {
		t.Fatalf("scores = %v", scores)
	}
	if stats.Iterations != 1 {
		t.Fatalf("iterations = %d", stats.Iterations)
	}
}

func TestRunSSPPRTopKZero(t *testing.T) {
	g := testGraph(63, 100, 600)
	storages, _, _, cleanup := testDeployment(t, g, 2)
	defer cleanup()
	top, _, err := RunSSPPRTopK(context.Background(), storages[0], 0, 0, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if top != nil {
		t.Fatalf("topK(0) = %v", top)
	}
}
