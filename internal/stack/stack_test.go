package stack

import (
	"context"
	"slices"
	"testing"
	"time"

	"pprengine/internal/core"
	"pprengine/internal/graph"
	"pprengine/internal/metrics"
	"pprengine/internal/partition"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
)

const featDim = 4

// testbed is two shards of a small graph and the storage servers a machine
// built for shard 0 reaches: one for shard 0 itself, two serving shard 1 (a
// primary and a replica), each with a feature block.
type testbed struct {
	shards  []*shard.Shard
	loc     *shard.Locator
	servers []*core.StorageServer
	addrs   []string // addrs[0] serves shard 0; addrs[1:] serve shard 1
}

func newTestbed(t *testing.T) *testbed {
	t.Helper()
	g := graph.ErdosRenyi(400, 400*8, 1)
	shards, loc, err := shard.Build(g, partition.HashPartition(g.NumNodes, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	tb := &testbed{shards: shards, loc: loc}
	for _, s := range []*shard.Shard{shards[0], shards[1], shards[1]} {
		srv := core.NewStorageServer(s, loc)
		feats := make([]float32, s.NumCore()*featDim)
		for i := range feats {
			feats[i] = float32(i)
		}
		if err := srv.AttachFeatures(featDim, feats); err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Start()
		if err != nil {
			t.Fatal(err)
		}
		tb.servers, tb.addrs = append(tb.servers, srv), append(tb.addrs, addr)
	}
	return tb
}

func (tb *testbed) close() {
	for _, s := range tb.servers {
		s.Close()
	}
}

// spec is machine 0's Spec with procs compute processes: direct clients to
// shard 1's primary, or — routed — all-nil client sets and both of shard 1's
// servers as its replicas.
func (tb *testbed) spec(t *testing.T, procs int, routed bool) Spec {
	t.Helper()
	sp := Spec{Local: tb.shards[0], Locator: tb.loc}
	for p := 0; p < procs; p++ {
		clients := make([]*rpc.Client, 2)
		if !routed {
			c, err := rpc.Dial(tb.addrs[1], rpc.LatencyModel{})
			if err != nil {
				t.Fatal(err)
			}
			clients[1] = c
		}
		sp.Clients = append(sp.Clients, clients)
	}
	if routed {
		sp.Serving = [][]Peer{nil, {{Machine: 1, Addr: tb.addrs[1]}, {Machine: 2, Addr: tb.addrs[2]}}}
		sp.HA.ProbeInterval = time.Hour // no probe traffic during the test
	}
	return sp
}

// TestBuildStages builds machine 0 for each stage on its own, all of them,
// and a hedge without replicas (ignored): the stage list names exactly the
// stages built, in chain order; every handle shares the machine's stages and
// nothing the config left out exists; a fetch through the stack reads the
// remote shard's true rows and features.
func TestBuildStages(t *testing.T) {
	tb := newTestbed(t)
	defer tb.close()
	all := Config{CacheBytes: 1 << 20, FeatCacheBytes: 1 << 20, AggWindow: 100 * time.Microsecond,
		ZeroCopy: true, AdmitMaxInFlight: 4, Hedge: true}
	for _, tc := range []struct {
		name   string
		cfg    Config
		routed bool
		want   []string
	}{
		{"bare", Config{}, false, []string{"rpc"}},
		{"cache", Config{CacheBytes: 1 << 20}, false, []string{"cache", "rpc"}},
		{"featcache", Config{FeatCacheBytes: 1 << 20, FeatAdmitMass: 0.5}, false, []string{"featcache", "rpc"}},
		{"agg", Config{AggRows: 64}, false, []string{"agg", "rpc"}},
		{"admit", Config{AdmitMaxInFlight: 2}, false, []string{"admit", "rpc"}},
		{"hedge without replicas", Config{Hedge: true}, false, []string{"rpc"}},
		{"routed", Config{}, true, []string{"route", "rpc"}},
		{"all", all, true, []string{"admit", "cache", "featcache", "agg", "hedge", "route", "rpc"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := Build(tc.cfg, tb.spec(t, 2, tc.routed))
			defer m.Close()
			if got := m.Stages(); !slices.Equal(got, tc.want) {
				t.Fatalf("Stages() = %v, want %v", got, tc.want)
			}
			if (m.Cache != nil) != (tc.cfg.CacheBytes > 0) || (m.FeatCache != nil) != (tc.cfg.FeatCacheBytes > 0) ||
				(m.Aggs != nil) != (m.FeatAggs != nil) || (m.Admit != nil) != (tc.cfg.AdmitMaxInFlight > 0) ||
				(m.Router != nil) != tc.routed || (m.Tracker != nil) != tc.routed || (m.Hedger != nil) != (tc.cfg.Hedge && tc.routed) {
				t.Fatalf("stages built do not match the config: %+v", m)
			}
			if m.Aggs != nil && (m.Aggs[0] != nil || m.Aggs[1] == nil || m.FeatAggs[0] != nil || m.FeatAggs[1] == nil) {
				t.Fatal("aggregators must exist for the remote shard only")
			}
			if n := len(m.Endpoints()); (n == 2) != tc.routed {
				t.Fatalf("%d router endpoints, routed=%v", n, tc.routed)
			}
			if len(m.Handles) != 2 {
				t.Fatalf("%d handles, want one per client set", len(m.Handles))
			}
			for _, g := range m.Handles {
				if g.Neighbors.Cache != m.Cache || g.Features.Cache != m.FeatCache || g.Admit != m.Admit ||
					!slices.Equal(g.Neighbors.Aggs, m.Aggs) || !slices.Equal(g.Features.Aggs, m.FeatAggs) {
					t.Fatal("a handle does not share the machine's stages")
				}
			}
			for round := 0; round < 2; round++ { // the second round hits a cache
				for _, g := range m.Handles {
					checkFetches(t, tb, g)
				}
			}
		})
	}
}

// checkFetches reads rows and features of shard 1 through g and compares
// them with the shard itself.
func checkFetches(t *testing.T, tb *testbed, g *core.DistGraphStorage) {
	t.Helper()
	ctx := context.Background()
	ids := []int32{3, 1, 4, 1, 5} // a duplicate rides its own flight
	fut := g.GetNeighborInfos(ctx, 1, ids, core.DefaultConfig())
	b, err := fut.WaitCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		vp := tb.shards[1].VertexProp(id)
		locals, shards, weights, wdegs, wdeg := b.Row(i)
		if !slices.Equal(locals, vp.Locals) || !slices.Equal(shards, vp.Shards) ||
			!slices.Equal(weights, vp.Weights) || !slices.Equal(wdegs, vp.WDegs) || wdeg != vp.WDeg {
			t.Fatalf("row %d (local %d) differs from the shard's", i, id)
		}
	}
	fut.Release()
	ff := g.FetchFeatures(ctx, 1, ids, []float64{1, 1, 1, 1, 1})
	fb, err := ff.WaitCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if fb.Data[i*featDim] != float32(int(id)*featDim) {
			t.Fatalf("feature row %d (local %d) = %v", i, id, fb.Data[i*featDim:(i+1)*featDim])
		}
	}
	ff.Release()
}

// TestCloseReturnsEveryPoolBuffer: after Close, every pooled frame buffer
// the machine and its peers checked out is back in its pool — the rows of
// fetches consumed and released, of fetches abandoned unread, and of fetches
// still in flight when Close began.
func TestCloseReturnsEveryPoolBuffer(t *testing.T) {
	base := metrics.PoolLiveBytes.Load()
	tb := newTestbed(t)
	for _, routed := range []bool{false, true} {
		cfg := Config{CacheBytes: 64 << 10, FeatCacheBytes: 64 << 10, AggWindow: 100 * time.Microsecond, ZeroCopy: true, Hedge: routed}
		m := Build(cfg, tb.spec(t, 1, routed))
		g := m.Handles[0]
		ctx := context.Background()
		for i := int32(0); i < 40; i++ {
			fut := g.GetNeighborInfos(ctx, 1, []int32{i, i + 40}, core.DefaultConfig())
			if _, err := fut.WaitCtx(ctx); err != nil {
				t.Fatal(err)
			}
			fut.Release()
			g.GetNeighborInfos(ctx, 1, []int32{i + 80}, core.DefaultConfig()) // never waited for
			g.FetchFeatures(ctx, 1, []int32{i}, nil)                          // nor this
		}
		m.Close()
	}
	tb.close()
	// Server handlers and client read loops unwind just after their
	// connections close; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for metrics.PoolLiveBytes.Load() != base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if live := metrics.PoolLiveBytes.Load(); live != base {
		t.Fatalf("PoolLiveBytes = %d after Close, want the pre-build %d", live, base)
	}
}
