package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"pprengine/internal/core"
	"pprengine/internal/partition"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
)

// TestAggregationScoresMatchAndRequestsDrop is the end-to-end check of
// cross-query fetch aggregation: 32 concurrent queries (4 machines x 8
// procs) run twice on identical shards, aggregation off then on. The
// aggregated run must produce bitwise-identical per-query scores (the
// engine runs in its deterministic configuration, so transport is the only
// variable) while sending at least 2x fewer wire requests. Run under -race
// this also hammers the aggregator's shared state from many procs.
func TestAggregationScoresMatchAndRequestsDrop(t *testing.T) {
	const machines = 4
	const procs = 8
	g := testGraph(11, 800, 4800)
	a, err := partition.Partition(g, machines, partition.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	shards, loc, err := shard.Build(g, a, machines)
	if err != nil {
		t.Fatal(err)
	}
	quality := partition.Evaluate(g, a)

	cfg := core.DefaultConfig()
	// Deterministic engine config: sorted pops make scores bitwise
	// reproducible, so any divergence indicts the aggregator.
	cfg.DeterministicPop = true
	// A looser eps keeps pushes light relative to fetches — the fetch-bound
	// regime aggregation targets — without shrinking the frontier to nothing.
	cfg.Eps = 1e-5

	type pass struct {
		scores   []map[int32]float64
		requests int64
		queryReq int64 // per-query accounting rollup
	}
	runPass := func(aggregated bool) pass {
		t.Helper()
		opts := Options{
			NumMachines:     machines,
			ProcsPerMachine: procs,
			// The link latency creates the in-flight windows during which
			// concurrent fetches pile up and merge.
			Latency: rpc.LatencyModel{Base: 5 * time.Millisecond},
		}
		if aggregated {
			opts.AggWindow = 10 * time.Millisecond
		}
		c, err := NewFromShards(shards, loc, opts, quality)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// Three queries per proc, round-robin like RunSSPPRBatch, so every
		// machine holds 8 concurrent queries for most of the pass instead of
		// just during a brief overlap.
		qs := c.EvenQuerySet(procs*3, 9)
		before := c.NetStats()
		out := make([]map[int32]float64, machines*len(qs[0]))
		var queryReq int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		for m := 0; m < machines; m++ {
			for p := 0; p < procs; p++ {
				wg.Add(1)
				go func(m, p int) {
					defer wg.Done()
					st := c.Storages[m][p]
					for i := p; i < len(qs[m]); i += procs {
						sp, stats, err := core.RunSSPPR(context.Background(), st, qs[m][i], cfg, nil)
						if err != nil {
							t.Errorf("machine %d proc %d: %v", m, p, err)
							return
						}
						out[m*len(qs[m])+i] = core.ScoresGlobal(st, sp)
						mu.Lock()
						queryReq += stats.RPCRequests
						mu.Unlock()
					}
				}(m, p)
			}
		}
		wg.Wait()
		after := c.NetStats()
		if aggregated {
			st := c.AggStats()
			if st.Flushes == 0 || st.Shared == 0 {
				t.Fatalf("aggregators idle: %+v", st)
			}
		}
		return pass{scores: out, requests: after.RequestsSent - before.RequestsSent, queryReq: queryReq}
	}

	plain := runPass(false)
	agg := runPass(true)
	if t.Failed() {
		t.FailNow()
	}

	for q := range plain.scores {
		want, got := plain.scores[q], agg.scores[q]
		if len(want) != len(got) {
			t.Fatalf("query %d touched %d nodes plain, %d aggregated", q, len(want), len(got))
		}
		for node, w := range want {
			if v, ok := got[node]; !ok || v != w {
				t.Fatalf("query %d node %d: plain %v aggregated %v", q, node, w, got[node])
			}
		}
	}
	if agg.requests*2 > plain.requests {
		t.Fatalf("aggregation saved too little: %d requests vs %d plain (want >= 2x fewer)",
			agg.requests, plain.requests)
	}
	// The per-query accounting must add up to the true wire totals on both
	// passes — a shared flush is charged exactly once.
	if plain.queryReq != plain.requests {
		t.Fatalf("plain pass accounting: queries report %d requests, wire saw %d", plain.queryReq, plain.requests)
	}
	if agg.queryReq != agg.requests {
		t.Fatalf("agg pass accounting: queries report %d requests, wire saw %d", agg.queryReq, agg.requests)
	}
}

// TestAggregationBatchAccounting runs the batch driver with aggregation on
// and checks the RunResult rollup mirrors the wire counters.
func TestAggregationBatchAccounting(t *testing.T) {
	g := testGraph(12, 500, 3000)
	c, err := New(g, Options{
		NumMachines:     3,
		ProcsPerMachine: 3,
		AggWindow:       time.Millisecond,
		Seed:            4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	qs := c.EvenQuerySet(6, 3)
	before := c.NetStats()
	res, err := c.RunSSPPRBatch(context.Background(), qs, core.DefaultConfig(), EngineMap)
	if err != nil {
		t.Fatal(err)
	}
	after := c.NetStats()
	wire := after.RequestsSent - before.RequestsSent
	if res.RPCRequests != wire {
		t.Fatalf("RunResult.RPCRequests = %d, wire counters saw %d", res.RPCRequests, wire)
	}
	wireBytes := after.BytesSent - before.BytesSent
	if res.RequestBytes != wireBytes {
		t.Fatalf("RunResult.RequestBytes = %d, wire counters saw %d", res.RequestBytes, wireBytes)
	}
	if res.Failed != 0 {
		t.Fatalf("%d queries failed: %v", res.Failed, res.Errors[0])
	}
}
