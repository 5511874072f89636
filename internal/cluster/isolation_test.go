package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"pprengine/internal/chaos"
	"pprengine/internal/core"
)

// TestBatchTimeoutIsolation is the isolation scenario: one machine's storage
// server stops answering (a chaos blackhole: its connections hang, they do
// not fail), so every query that needs its shard runs into the per-query
// deadline — while queries on that machine itself, which read its shard
// through shared memory and only fetch from the healthy peer, complete
// normally. One query's timeout must not abort the batch. The deadline only
// bounds how long the stuck queries take to give up; nothing here depends on
// how fast the healthy ones run.
func TestBatchTimeoutIsolation(t *testing.T) {
	for _, mode := range []core.FetchMode{core.FetchBatchCompress, core.FetchBatch, core.FetchSingle} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			inj := chaos.New(1)
			inj.SetPlan(1, chaos.Plan{Blackhole: true})
			c, err := New(testGraph(11, 300, 1800), Options{NumMachines: 2, ProcsPerMachine: 1, Seed: 1, Chaos: inj})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			inj.Kill(1)

			cfg := core.DefaultConfig()
			cfg.Mode = mode
			cfg.Eps = 1e-6 // enough work that machine 0 must fetch from shard 1
			cfg.QueryTimeout = time.Second
			res, err := c.RunSSPPRBatch(context.Background(), c.EvenQuerySet(1, 5), cfg, EngineMap)
			if err != nil {
				t.Fatalf("batch must not abort on per-query timeouts: %v", err)
			}
			if res.Queries != 2 || res.Failed != 1 || res.Timeouts != 1 {
				t.Fatalf("%d queries, %d failed, %d timeouts; want machine 0's one query timed out, machine 1's done", res.Queries, res.Failed, res.Timeouts)
			}
			if qe := res.Errors[0]; qe.Machine != 0 || !errors.Is(qe, context.DeadlineExceeded) {
				t.Fatalf("failure is not machine 0's deadline expiry: %v", qe)
			}
		})
	}
}

// TestBatchContextCancelled: when the batch context itself is cancelled,
// RunSSPPRBatch reports every query failed and returns the context error.
func TestBatchContextCancelled(t *testing.T) {
	g := testGraph(12, 200, 1200)
	c, err := New(g, Options{NumMachines: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := c.RunSSPPRBatch(ctx, c.EvenQuerySet(3, 9), core.DefaultConfig(), EngineMap)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if res.Failed != res.Queries || res.Queries == 0 {
		t.Fatalf("Failed = %d of %d, want all", res.Failed, res.Queries)
	}
}

// TestWalkBatchContextCancelled: same contract for the random-walk batch.
func TestWalkBatchContextCancelled(t *testing.T) {
	g := testGraph(13, 200, 1200)
	c, err := New(g, Options{NumMachines: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = c.RunRandomWalkBatch(ctx, 4, 10, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}
