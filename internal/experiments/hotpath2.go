package experiments

import (
	"context"
	"fmt"
	"reflect"
	"runtime"

	"pprengine/internal/baseline"
	"pprengine/internal/cluster"
	"pprengine/internal/core"
	"pprengine/internal/metrics"
	"pprengine/internal/partition"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
)

// Hotpath2Row is one pass of the hot-path round-two benchmark: either an
// SSPPR compute pass (Section A) or a k-hop sampling pass (Section B).
type Hotpath2Row struct {
	Section string // "ssppr" or "khop"
	Pass    string

	// Section A: pop/push-phase throughput of the compute engine.
	Pushes       int64
	PopPushSec   float64 // wall seconds spent in the Pop+Push phases
	PushesPerSec float64 // Pushes / PopPushSec

	// Section B: allocation cost of k-hop fanout sampling.
	SampledRows  int64   // frontier rows sampling was requested for
	AllocBytes   uint64  // MemStats.TotalAlloc delta over the measured batch
	BytesPerRow  float64 // AllocBytes / SampledRows
	AllocObjects uint64
}

// Hotpath2Bench measures the second round of hot-path work. Section A runs
// the same concurrent SSPPR batch on the baseline engine (internal/baseline:
// striped Go maps + fork-join pushOwned) and on the served engine (recycled
// flat probe tables, pushes on the query's goroutine), and reports
// pop/push-phase throughput — pushes per second spent inside the Pop and Push
// phases, so fetch time does not dilute the comparison. Correctness is the
// strictest kind: under DeterministicPop every push claims row residuals
// before applying any neighbor delta in global row order, so the served
// engine's scores must be BITWISE identical to the single-worker baseline's.
//
// Section B runs an identical k-hop fanout-sampling batch with the sampling
// zero-copy path off (heap-built responses, heap encode, copy decode, the
// PR 7 sampling baseline) and on (arena-built exact-size rows, pooled
// response buffers, aliasing view decode) and reports allocated bytes per
// sampled row. The samples themselves must be deep-equal across passes —
// the arena path consumes the rng draw for draw.
func Hotpath2Bench(p Params) (Report, []Hotpath2Row, error) {
	const machines = 4
	const procs = 8
	r := Report{Title: fmt.Sprintf("Hot path round two: flat-table compute + sampling views on twitter-sim (%d machines x %d procs)", machines, procs)}

	spec, err := p.Spec("twitter-sim")
	if err != nil {
		return r, nil, err
	}
	g := spec.GenerateCached()
	a, err := assignmentFor(spec.Name, g, machines, cluster.PartitionMinCut)
	if err != nil {
		return r, nil, err
	}
	shards, loc, err := shard.Build(g, a, machines)
	if err != nil {
		return r, nil, err
	}
	quality := partition.Evaluate(g, a)

	var rows []Hotpath2Row

	// --- Section A: SSPPR compute engines ---
	r.Lines = append(r.Lines, fmt.Sprintf("%-14s %12s %12s %14s",
		"SSPPR pass", "Pushes", "PopPush(s)", "Pushes/s"))
	cfg := core.DefaultConfig()
	var refScores []map[int32]float64
	for _, kind := range []cluster.EngineKind{cluster.EngineStriped, cluster.EngineMap} {
		pass := "striped-maps"
		if kind == cluster.EngineMap {
			pass = "flat-tables"
		}
		opts := cluster.Options{NumMachines: machines, ProcsPerMachine: procs, Latency: rpc.LatencyModel{}}
		c, err := cluster.NewFromShards(shards, loc, opts, quality)
		if err != nil {
			return r, nil, err
		}
		qs := c.EvenQuerySet(minInt(p.Queries, procs*2), 131)

		// Warm pools, connections, and the per-query table capacities, then
		// measure a clean window.
		if _, err := c.RunSSPPRBatch(context.Background(), qs, cfg, kind); err != nil {
			c.Close()
			return r, nil, err
		}
		runtime.GC()
		res, err := c.RunSSPPRBatch(context.Background(), qs, cfg, kind)
		if err != nil {
			c.Close()
			return r, nil, err
		}
		row := Hotpath2Row{
			Section:    "ssppr",
			Pass:       pass,
			Pushes:     res.Pushes,
			PopPushSec: (res.Breakdown.Get(metrics.PhasePop) + res.Breakdown.Get(metrics.PhasePush)).Seconds(),
		}
		if row.PopPushSec > 0 {
			row.PushesPerSec = float64(row.Pushes) / row.PopPushSec
		}
		rows = append(rows, row)
		r.Lines = append(r.Lines, fmt.Sprintf("%-14s %12d %12.4f %14.0f",
			row.Pass, row.Pushes, row.PopPushSec, row.PushesPerSec))

		// Bitwise score identity against the single-worker baseline:
		// claims-first push order makes the engines indistinguishable under
		// DeterministicPop.
		detCfg := cfg
		detCfg.DeterministicPop = true
		var scores []map[int32]float64
		if kind == cluster.EngineStriped {
			scores, err = concurrentScoresOf(c, qs, func(st *core.DistGraphStorage, src int32) (map[int32]float64, error) {
				sp, _, err := baseline.RunSSPPR(context.Background(), st, src, detCfg, baseline.Options{Workers: 1}, nil)
				if err != nil {
					return nil, err
				}
				return core.ScoresGlobal(st, sp), nil
			})
		} else {
			scores, err = concurrentScores(c, qs, detCfg)
		}
		if err != nil {
			c.Close()
			return r, nil, err
		}
		if refScores == nil {
			refScores = scores
		} else if err := compareScoresExact(refScores, scores); err != nil {
			c.Close()
			return r, nil, fmt.Errorf("hotpath2: pass %q: %w", pass, err)
		}
		c.Close()
	}
	if len(rows) == 2 && rows[0].PushesPerSec > 0 {
		r.Lines = append(r.Lines, fmt.Sprintf(
			"pop/push throughput: %.0f -> %.0f pushes/s (%.2fx), scores bitwise identical across engines",
			rows[0].PushesPerSec, rows[1].PushesPerSec,
			rows[1].PushesPerSec/rows[0].PushesPerSec))
	}

	// --- Section B: k-hop sampling allocations ---
	r.Lines = append(r.Lines, "")
	r.Lines = append(r.Lines, fmt.Sprintf("%-14s %12s %14s %12s %11s",
		"k-hop pass", "SampledRows", "AllocBytes", "AllocObjs", "Bytes/Row"))
	opts := cluster.Options{NumMachines: machines, ProcsPerMachine: procs, Latency: rpc.LatencyModel{}}
	c, err := cluster.NewFromShards(shards, loc, opts, quality)
	if err != nil {
		return r, nil, err
	}
	defer c.Close()
	fanouts := []int{10, 10}
	roots := c.EvenQuerySet(minInt(p.Queries, procs*2), 137)
	// One long-lived sampler per machine, like a training loop would hold:
	// the warm batch grows its dedup index and scratch once, and the measured
	// batch reuses them.
	samplers := make([]*core.KHopSampler, machines)
	for m := range samplers {
		samplers[m] = core.NewKHopSampler()
	}
	var refSamples []*core.KHopResult
	for _, pass := range []string{"views-off", "views-on"} {
		on := pass == "views-on"
		// The toggle is structural (the sampling path has no per-query
		// Config): flip it on every server and every compute handle so the
		// off pass exercises the legacy heap path end to end.
		for _, srv := range c.Servers {
			srv.SetSampleZeroCopy(on)
		}
		for _, machine := range c.ReplicaServers {
			for _, srv := range machine {
				srv.SetSampleZeroCopy(on)
			}
		}
		for _, machine := range c.Storages {
			for _, st := range machine {
				st.ZeroCopy = on
			}
		}

		runBatch := func() ([]*core.KHopResult, int64, error) {
			var out []*core.KHopResult
			var sampled int64
			for m := range roots {
				if len(roots[m]) == 0 {
					continue
				}
				res, err := samplers[m].Run(context.Background(), c.Storages[m][0], roots[m], fanouts, 977, nil)
				if err != nil {
					return nil, 0, err
				}
				// Every node that appeared before the last hop was in a
				// frontier exactly once — a row the samplers processed.
				for _, h := range res.HopOf {
					if int(h) < len(fanouts) {
						sampled++
					}
				}
				out = append(out, res)
			}
			return out, sampled, nil
		}
		if _, _, err := runBatch(); err != nil { // warm pools and scratch
			return r, nil, err
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		samples, sampled, err := runBatch()
		if err != nil {
			return r, nil, err
		}
		runtime.ReadMemStats(&after)
		row := Hotpath2Row{
			Section:      "khop",
			Pass:         pass,
			SampledRows:  sampled,
			AllocBytes:   after.TotalAlloc - before.TotalAlloc,
			AllocObjects: after.Mallocs - before.Mallocs,
		}
		if sampled > 0 {
			row.BytesPerRow = float64(row.AllocBytes) / float64(sampled)
		}
		rows = append(rows, row)
		r.Lines = append(r.Lines, fmt.Sprintf("%-14s %12d %14d %12d %11.1f",
			row.Pass, row.SampledRows, row.AllocBytes, row.AllocObjects, row.BytesPerRow))

		// Sample identity: the arena path consumes the rng draw for draw, so
		// the sampled computation graphs must match exactly.
		if refSamples == nil {
			refSamples = samples
		} else if err := compareKHop(refSamples, samples); err != nil {
			return r, nil, fmt.Errorf("hotpath2: pass %q: %w", pass, err)
		}
	}
	if n := len(rows); n >= 2 && rows[n-2].BytesPerRow > 0 && rows[n-1].BytesPerRow > 0 {
		r.Lines = append(r.Lines, fmt.Sprintf(
			"allocated bytes/sampled row: %.1f -> %.1f (%.2fx fewer), samples identical across passes",
			rows[n-2].BytesPerRow, rows[n-1].BytesPerRow,
			rows[n-2].BytesPerRow/rows[n-1].BytesPerRow))
	}
	return r, rows, nil
}

// compareKHop asserts two k-hop batches sampled identical computation graphs.
func compareKHop(want, got []*core.KHopResult) error {
	if len(want) != len(got) {
		return fmt.Errorf("khop result counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			return fmt.Errorf("khop batch %d sampled a different graph (%d vs %d nodes, %d vs %d edges)",
				i, len(want[i].Nodes), len(got[i].Nodes), len(want[i].EdgeSrc), len(got[i].EdgeSrc))
		}
	}
	return nil
}
