package cluster

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"pprengine/internal/core"
	"pprengine/internal/mem"
	"pprengine/internal/partition"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
)

// TestZeroCopyPoisonedScoresIdentical is the end-to-end aliasing-safety
// check of the zero-copy hot path. It runs the same concurrent query batch
// with copy decoding (the reference), then over the zero-copy path plain,
// with cross-query aggregation, and with the dynamic cache — all with buffer
// poisoning enabled, so any pooled payload released while a decoded view
// still reads it is overwritten with 0xDB bytes instead of staying
// plausibly intact. Under the deterministic engine config the passes must
// produce bitwise-identical scores; a single poisoned float anywhere in a
// result indicts a buffer released before its last reader. The cache pass
// runs its query set twice — the second round is served largely from cached
// rows that must have been copied out before their source buffers were
// recycled by the first round's churn.
func TestZeroCopyPoisonedScoresIdentical(t *testing.T) {
	mem.SetPoison(true)
	defer mem.SetPoison(false)

	const machines = 4
	const procs = 8
	g := testGraph(13, 800, 4800)
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
	cfg.DeterministicPop = true
	cfg.Eps = 1e-5

	runPass := func(zeroCopy, aggregated bool, cacheBytes int64, rounds int) []map[int32]float64 {
		t.Helper()
		passCfg := cfg
		passCfg.ZeroCopy = zeroCopy
		opts := Options{
			NumMachines:     machines,
			ProcsPerMachine: procs,
			ZeroCopy:        zeroCopy,
			CacheBytes:      cacheBytes,
			// The link latency creates in-flight windows so concurrent
			// fetches actually share flushes and single-flight fills.
			Latency: rpc.LatencyModel{Base: 2 * time.Millisecond},
		}
		if aggregated {
			opts.AggWindow = 5 * time.Millisecond
		}
		c, err := NewFromShards(shards, loc, opts, quality)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		qs := c.EvenQuerySet(procs*2, 9)
		var out []map[int32]float64
		for round := 0; round < rounds; round++ {
			out = make([]map[int32]float64, machines*len(qs[0]))
			var wg sync.WaitGroup
			for m := 0; m < machines; m++ {
				for p := 0; p < procs; p++ {
					wg.Add(1)
					go func(m, p int) {
						defer wg.Done()
						st := c.Storages[m][p]
						for i := p; i < len(qs[m]); i += procs {
							sp, _, err := core.RunSSPPR(context.Background(), st, qs[m][i], passCfg, nil)
							if err != nil {
								t.Errorf("machine %d proc %d: %v", m, p, err)
								return
							}
							out[m*len(qs[m])+i] = core.ScoresGlobal(st, sp)
						}
					}(m, p)
				}
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
		}
		return out
	}

	ref := runPass(false, false, 0, 1)
	for _, pass := range []struct {
		name       string
		aggregated bool
		cacheBytes int64
		rounds     int
	}{
		{"zerocopy", false, 0, 1},
		{"zerocopy+agg", true, 0, 1},
		{"zerocopy+cache", false, 16 << 20, 2},
	} {
		got := runPass(true, pass.aggregated, pass.cacheBytes, pass.rounds)
		for q := range ref {
			if len(ref[q]) != len(got[q]) {
				t.Fatalf("%s: query %d touched %d nodes copy-decoded, %d zero-copy",
					pass.name, q, len(ref[q]), len(got[q]))
			}
			for node, w := range ref[q] {
				v, ok := got[q][node]
				if !ok || math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("%s: query %d node %d: copy-decoded %v, zero-copy %v (poisoned view?)",
						pass.name, q, node, w, got[q][node])
				}
			}
		}
	}
}
