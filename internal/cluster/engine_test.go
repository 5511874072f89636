package cluster

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"pprengine/internal/baseline"
	"pprengine/internal/core"
	"pprengine/internal/partition"
	"pprengine/internal/shard"
)

// TestEngineScoresBitwiseIdentical is the correctness gate of the served
// compute engine. Under DeterministicPop every push claims all of a batch's
// row residuals before applying any neighbor delta, in global row order, so
// the engines are interchangeable at the bit level: the baseline on striped
// Go maps (internal/baseline), pushing sequentially or forking owner-compute
// workers for every batch, and the served engine on recycled flat tables must
// all produce identical float64 scores. Under -race this doubles as the
// data-race check on the free list the twelve query goroutines share.
func TestEngineScoresBitwiseIdentical(t *testing.T) {
	const machines = 3
	const procs = 4
	g := testGraph(17, 600, 3600)
	a, err := partition.Partition(g, machines, partition.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	shards, loc, err := shard.Build(g, a, machines)
	if err != nil {
		t.Fatal(err)
	}
	quality := partition.Evaluate(g, a)
	c, err := NewFromShards(shards, loc, Options{NumMachines: machines, ProcsPerMachine: procs}, quality)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	qs := c.EvenQuerySet(procs*2, 21)

	// runPass runs every query on the baseline engine with the given push
	// options, or on the served engine when opt is nil.
	runPass := func(opt *baseline.Options) []map[int32]float64 {
		t.Helper()
		cfg := core.DefaultConfig()
		cfg.Eps = 1e-5
		cfg.DeterministicPop = true
		out := make([]map[int32]float64, machines*len(qs[0]))
		var wg sync.WaitGroup
		for m := 0; m < machines; m++ {
			for p := 0; p < procs; p++ {
				wg.Add(1)
				go func(m, p int) {
					defer wg.Done()
					st := c.Storages[m][p]
					for i := p; i < len(qs[m]); i += procs {
						var sp core.Engine
						var q *core.SSPPR
						var err error
						if opt != nil {
							sp, _, err = baseline.RunSSPPR(context.Background(), st, qs[m][i], cfg, *opt, nil)
						} else {
							q, _, err = core.RunSSPPR(context.Background(), st, qs[m][i], cfg, nil)
							sp = q
						}
						if err != nil {
							t.Errorf("machine %d proc %d: %v", m, p, err)
							return
						}
						out[m*len(qs[m])+i] = core.ScoresGlobal(st, sp)
						q.Release() // nil-safe: the baseline has nothing to recycle
					}
				}(m, p)
			}
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		return out
	}

	ref := runPass(&baseline.Options{Workers: 1})
	for _, pass := range []struct {
		name string
		opt  *baseline.Options
	}{
		{"baseline owner-compute", &baseline.Options{Workers: 4, Threshold: 1}},
		{"served engine", nil},
	} {
		got := runPass(pass.opt)
		for q := range ref {
			if len(ref[q]) != len(got[q]) {
				t.Fatalf("%s: query %d touched %d nodes, sequential baseline %d",
					pass.name, q, len(got[q]), len(ref[q]))
			}
			for node, w := range ref[q] {
				v, ok := got[q][node]
				if !ok || math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("%s: query %d node %d: %v, sequential baseline %v",
						pass.name, q, node, got[q][node], w)
				}
			}
		}
	}
}

// TestCloseLeavesNoGoroutines: the served engine runs a query on the caller's
// goroutine and starts none of its own, so after Close the process is back to
// the goroutines it had before the cluster — the accounting internal/rpc's
// leak check applies to per-call watchers, extended over the compute path.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	c, err := New(testGraph(23, 400, 2400), Options{NumMachines: 2, ProcsPerMachine: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range c.EvenQuerySet(3, 7)[0] {
		if _, _, err := core.RunSSPPRTopK(context.Background(), c.Storages[0][0], src, 8, core.DefaultConfig(), nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	// Connection readers wind down asynchronously after Close.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines outlive Close (%d before the cluster):\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}
