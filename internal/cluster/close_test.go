package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"pprengine/internal/core"
	"pprengine/internal/mem"
	"pprengine/internal/metrics"
	"pprengine/internal/rpc"
)

// TestCloseReturnsPoolBuffers: on the benchmark's default stack (cache +
// aggregation + R=2 with hedging, then the feature tier), every pooled frame
// buffer the deployment checked out is back in its pool once Close returns —
// including those of fetches whose queries gave up mid-flight, which nobody
// is left to wait for. metrics.PoolLiveBytes must return to its pre-cluster
// value, also with poison mode scribbling over every released buffer.
func TestCloseReturnsPoolBuffers(t *testing.T) {
	g := testGraph(41, 600, 4800)
	shards, loc, quality := haTestShards(t, g, 4)
	for _, poison := range []bool{false, true} {
		mem.SetPoison(poison)
		base := metrics.PoolLiveBytes.Load()
		c, err := NewFromShards(shards, loc, Options{
			NumMachines: 4, ProcsPerMachine: 1,
			CacheBytes: 64 << 10, AggWindow: 200 * time.Microsecond, ZeroCopy: true,
			Replicas: 2, Hedge: true, FeatCacheBytes: 64 << 10,
			// The link latency keeps responses in flight long enough for the
			// abandoning queries below to leave some behind.
			Latency: rpc.LatencyModel{Base: time.Millisecond},
		}, quality)
		if err != nil {
			t.Fatal(err)
		}
		const dim = 8
		for m, srv := range c.Servers {
			feats := make([]float32, shards[m].NumCore()*dim)
			if err := srv.AttachFeatures(dim, feats); err != nil {
				t.Fatal(err)
			}
			c.Storages[m][0].AttachLocalFeatures(dim, feats)
			for _, rs := range c.ReplicaServers[m] {
				if err := rs.AttachFeatures(dim, make([]float32, rs.Shard.NumCore()*dim)); err != nil {
					t.Fatal(err)
				}
			}
		}
		cfg := core.DefaultConfig()
		cfg.Eps = 1e-6
		var wg sync.WaitGroup
		for m := 0; m < 4; m++ {
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(m, w int) {
					defer wg.Done()
					st := c.Storages[m][0]
					for i := 0; i < 12; i++ {
						qcfg := cfg
						if i%3 == w {
							qcfg.QueryTimeout = 1500 * time.Microsecond // gives up mid-fetch
						}
						q, _, err := core.RunSSPPR(context.Background(), st, int32((w*12+i)%shards[m].NumCore()), qcfg, nil)
						q.Release()
						if err != nil && qcfg.QueryTimeout == 0 {
							t.Errorf("machine %d query %d: %v", m, i, err)
						}
						// The feature tier: one fetch consumed and released, one
						// abandoned unread.
						dst := int32((m + 1) % 4)
						ids := []int32{int32(i % shards[dst].NumCore()), int32((i + 7) % shards[dst].NumCore())}
						fut := st.FetchFeatures(context.Background(), dst, ids, nil)
						if _, err := fut.Wait(); err != nil {
							t.Errorf("machine %d feature fetch %d: %v", m, i, err)
						}
						fut.Release()
						st.FetchFeatures(context.Background(), dst, []int32{int32((i + 3) % shards[dst].NumCore())}, nil)
					}
				}(m, w)
			}
		}
		wg.Wait()
		// Fetches nobody ever waits for, of rows no query touched: their
		// responses land in flights with no participant left to resolve them,
		// which is exactly what Close has to drain.
		for m := 0; m < 4; m++ {
			st, dst := c.Storages[m][0], int32((m+1)%4)
			st.GetNeighborInfos(context.Background(), dst, []int32{100, 101}, cfg)
			st.FetchFeatures(context.Background(), dst, []int32{102, 103}, nil)
		}
		time.Sleep(20 * time.Millisecond) // let the responses arrive (not required for the assertion to hold)
		c.Close()
		// Server handlers and client read loops unwind just after Close
		// returns their connections' errors; give them a moment.
		deadline := time.Now().Add(5 * time.Second)
		for metrics.PoolLiveBytes.Load() != base && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if live := metrics.PoolLiveBytes.Load(); live != base {
			t.Fatalf("poison=%v: PoolLiveBytes = %d after Close, want the pre-cluster %d", poison, live, base)
		}
	}
	mem.SetPoison(false)
}
