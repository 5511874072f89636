package cluster

import (
	"context"
	"runtime"
	"testing"
	"time"

	"pprengine/internal/chaos"
	"pprengine/internal/core"
)

// TestFetchesInFlightHoldNoGoroutines extends internal/rpc's per-call leak
// check over the whole fetch chain: 1 000 fetches in flight through the
// benchmark's default stack (cache + aggregation + R=2 with hedging) against
// peers whose every socket IO is delayed cost pending-table entries, call
// state machines and timers — not goroutines. Completion is hook-driven from
// the socket to the flight, so nothing waits on behalf of a fetch. Both when
// the aggregator merges the fetches into a few flushes and when its row cap
// forces one hedged wire request per fetch.
func TestFetchesInFlightHoldNoGoroutines(t *testing.T) {
	const fetches, slack = 1000, 40
	g := testGraph(43, 6000, 36000)
	shards, loc, quality := haTestShards(t, g, 4)
	for _, tc := range []struct {
		name    string
		aggRows int
	}{{"merged flushes", 0}, {"one request per fetch", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			inj := chaos.New(7)
			c, err := NewFromShards(shards, loc, Options{
				NumMachines: 4, ProcsPerMachine: 1,
				CacheBytes: 4 << 20, AggWindow: 200 * time.Microsecond, AggRows: tc.aggRows, ZeroCopy: true,
				Replicas: 2, Hedge: true, Chaos: inj,
			}, quality)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			st, cfg, ctx := c.Storages[0][0], core.DefaultConfig(), context.Background()
			const dst = 1
			if n := shards[dst].NumCore(); n < fetches+1 {
				t.Fatalf("shard %d has %d rows, the test needs %d distinct ones", dst, n, fetches+1)
			}
			// Warm up: connect every endpoint of the destination shard (a cold
			// endpoint dials on a goroutine of its own) before taking the idle
			// baseline.
			for _, ep := range c.Machines[0].Router.Endpoints(dst) {
				if _, err := ep.Client(ctx); err != nil {
					t.Fatal(err)
				}
			}
			warm := st.GetNeighborInfos(ctx, dst, []int32{int32(fetches)}, cfg)
			if _, err := warm.Wait(); err != nil {
				t.Fatal(err)
			}
			warm.Release()
			time.Sleep(20 * time.Millisecond)
			runtime.GC()
			idle := runtime.NumGoroutine()

			// Every machine's servers delay each read and write — primary and
			// replica alike, wherever the replica is placed — so a hedge does
			// not rescue a fetch.
			for m := 0; m < 4; m++ {
				inj.SetPlan(m, chaos.Plan{Delay: 100 * time.Millisecond})
			}
			futs := make([]*core.InfoFuture, fetches)
			for i := range futs {
				futs[i] = st.GetNeighborInfos(ctx, dst, []int32{int32(i)}, cfg)
			}
			// Twice: before the cold hedger's 100ms delay fires, and after
			// the hedges went out.
			for _, after := range []time.Duration{30 * time.Millisecond, 150 * time.Millisecond} {
				time.Sleep(after)
				if n := runtime.NumGoroutine(); n > idle+slack {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d fetches in flight: %d goroutines, %d when idle (want within %d):\n%s",
						fetches, n, idle, slack, buf[:runtime.Stack(buf, true)])
				}
			}
			for m := 0; m < 4; m++ {
				inj.SetPlan(m, chaos.Plan{})
			}
			// Abandon half unresolved, consume the rest: Close must hand every
			// buffer back either way (TestCloseReturnsPoolBuffers holds it to that).
			for i, f := range futs {
				if i%2 == 0 {
					if _, err := f.Wait(); err != nil {
						t.Fatalf("fetch %d: %v", i, err)
					}
				}
				f.Release()
			}
		})
	}
}
