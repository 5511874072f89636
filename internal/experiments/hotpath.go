package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"pprengine/internal/cluster"
	"pprengine/internal/core"
	"pprengine/internal/metrics"
	"pprengine/internal/partition"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
)

// HotpathRow is one pass of the zero-copy hot-path benchmark.
type HotpathRow struct {
	Pass         string
	RemoteRows   int64   // rows fetched over RPC during the measured batch
	AllocBytes   uint64  // heap bytes allocated during the batch (MemStats.TotalAlloc delta)
	AllocObjects uint64  // heap objects allocated (MemStats.Mallocs delta)
	BytesPerRow  float64 // AllocBytes / RemoteRows
	PoolHits     int64   // frame-buffer pool hits during the batch
	PoolMisses   int64   // pool misses (fresh allocations) during the batch
	Throughput   float64 // queries per second
}

// HotpathBench measures what the zero-copy hot path saves: the same
// concurrent SSPPR batch runs on identical shards with ZeroCopy off (every
// response copy-decoded onto the heap — the pre-pooling profile), with
// ZeroCopy on, and with ZeroCopy on plus cross-query aggregation, and the
// report diffs heap allocation per remote row. Correctness is asserted the
// same way as the aggregation benchmark, but stricter: under DeterministicPop
// with a single push worker the decode path is the only difference between
// passes, so every query's scores must be BITWISE identical — any drift means
// a view exposed bytes it did not own.
//
// The allocation numbers are whole-process (the simulated storage servers
// encode responses in-process too), so the deltas understate the client-side
// saving; the acceptance bar of >= 2x fewer allocated bytes per remote row is
// conservative.
func HotpathBench(p Params) (Report, []HotpathRow, error) {
	const machines = 4
	const procs = 8
	cfg := core.DefaultConfig()
	cfg.Eps = 1e-5 // fetch-bound regime: remote rows dominate, like the agg bench
	r := Report{Title: fmt.Sprintf("Zero-copy hot path on twitter-sim (%d machines x %d procs)", machines, procs)}
	r.Lines = append(r.Lines, fmt.Sprintf("%-14s %10s %14s %12s %11s %9s %9s %11s",
		"Pass", "RemoteRows", "AllocBytes", "AllocObjs", "Bytes/Row", "PoolHits", "PoolMiss", "Queries/s"))

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

	var rows []HotpathRow
	var qs [][]int32
	var refScores []map[int32]float64
	for _, pass := range []string{"off", "zerocopy", "zerocopy+agg"} {
		cfg.ZeroCopy = pass != "off"
		opts := cluster.Options{NumMachines: machines, ProcsPerMachine: procs, Latency: rpc.LatencyModel{}}
		if pass == "zerocopy+agg" {
			opts.AggWindow = 200 * time.Microsecond
			opts.ZeroCopy = true
		}
		c, err := cluster.NewFromShards(shards, loc, opts, quality)
		if err != nil {
			return r, nil, err
		}
		if qs == nil {
			qs = c.EvenQuerySet(minInt(p.Queries, procs*2), 131)
		}

		// Warm the buffer pools and the connections, then measure a clean
		// window: GC first so the deltas are allocation, not collection noise.
		if _, err := c.RunSSPPRBatch(context.Background(), qs, cfg, cluster.EngineMap); err != nil {
			c.Close()
			return r, nil, err
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		hits0, misses0 := metrics.PoolHits.Load(), metrics.PoolMisses.Load()
		res, err := c.RunSSPPRBatch(context.Background(), qs, cfg, cluster.EngineMap)
		if err != nil {
			c.Close()
			return r, nil, err
		}
		runtime.ReadMemStats(&after)
		row := HotpathRow{
			Pass:         pass,
			RemoteRows:   res.RemoteRows,
			AllocBytes:   after.TotalAlloc - before.TotalAlloc,
			AllocObjects: after.Mallocs - before.Mallocs,
			PoolHits:     metrics.PoolHits.Load() - hits0,
			PoolMisses:   metrics.PoolMisses.Load() - misses0,
			Throughput:   res.Throughput,
		}
		if row.RemoteRows > 0 {
			row.BytesPerRow = float64(row.AllocBytes) / float64(row.RemoteRows)
		}
		rows = append(rows, row)
		r.Lines = append(r.Lines, fmt.Sprintf("%-14s %10d %14d %12d %11.1f %9d %9d %11.1f",
			row.Pass, row.RemoteRows, row.AllocBytes, row.AllocObjects, row.BytesPerRow,
			row.PoolHits, row.PoolMisses, row.Throughput))

		// Bitwise score identity: with Pop order pinned, the only difference
		// between passes is where the decoded bytes live.
		detCfg := cfg
		detCfg.DeterministicPop = true
		scores, err := concurrentScores(c, qs, detCfg)
		if err != nil {
			c.Close()
			return r, nil, err
		}
		if refScores == nil {
			refScores = scores
		} else if err := compareScoresExact(refScores, scores); err != nil {
			c.Close()
			return r, nil, fmt.Errorf("hotpath: pass %q: %w", pass, err)
		}
		c.Close()
	}
	if len(rows) >= 2 && rows[0].BytesPerRow > 0 && rows[1].BytesPerRow > 0 {
		r.Lines = append(r.Lines, fmt.Sprintf(
			"allocated bytes/remote row: %.1f -> %.1f (%.2fx fewer), scores bitwise identical across %d queries",
			rows[0].BytesPerRow, rows[1].BytesPerRow,
			rows[0].BytesPerRow/rows[1].BytesPerRow, countQueries(qs)))
	}
	return r, rows, nil
}

// compareScoresExact asserts two runs' per-query score maps are bitwise
// identical — no tolerance. The zero-copy passes change only where decoded
// bytes are stored, never the float values or accumulation order, so under a
// deterministic engine config any difference is a buffer-ownership bug.
func compareScoresExact(want, got []map[int32]float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("score sets differ in length: %d vs %d", len(want), len(got))
	}
	for q := range want {
		if len(want[q]) != len(got[q]) {
			return fmt.Errorf("query %d touched %d nodes in the reference pass, %d in this one", q, len(want[q]), len(got[q]))
		}
		for node, w := range want[q] {
			g, ok := got[q][node]
			if !ok {
				return fmt.Errorf("query %d: node %d missing", q, node)
			}
			if math.Float64bits(w) != math.Float64bits(g) {
				return fmt.Errorf("query %d node %d: score %v vs %v (not bitwise identical)", q, node, w, g)
			}
		}
	}
	return nil
}
