package experiments

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"pprengine/internal/cluster"
	"pprengine/internal/core"
	"pprengine/internal/partition"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
)

// AggRow is one pass of the cross-query fetch-aggregation benchmark.
type AggRow struct {
	Pass          string
	RequestsSent  int64 // wire requests during the pass (client counters)
	BytesSent     int64 // request bytes on the wire during the pass
	RPCRequests   int64 // per-query accounting rollup (must match the wire)
	RequestBytes  int64
	Flushes       int64 // merged requests sent by the aggregators
	SharedFetches int64 // fetches whose flush carried another query's fetch
	Throughput    float64
}

// AggBench measures cross-query RPC fetch aggregation on a concurrent query
// stream: twitter-sim on 4 machines with 8 compute processes each, so every
// machine runs 8 queries at a time. The same batch runs twice on identical
// shards — aggregation off (the seed behavior), then on — and the report
// diffs wire traffic. A link latency makes flushes overlap deterministically
// enough for concurrent fetches to coalesce; correctness is asserted by
// comparing every query's full score map between the two clusters (the
// aggregator only changes transport, so scores must agree to float64
// round-off, checked at 1e-9).
func AggBench(p Params, window time.Duration, maxRows int) (Report, []AggRow, error) {
	if window <= 0 {
		window = 10 * time.Millisecond
	}
	const machines = 4
	const procs = 16
	cfg := core.DefaultConfig()
	cfg.Eps = 1e-5 // lighter pushes keep the workload fetch-bound, the regime aggregation targets
	r := Report{Title: fmt.Sprintf("Cross-query fetch aggregation on twitter-sim (%d machines x %d procs, window=%v)", machines, procs, window)}
	r.Lines = append(r.Lines, fmt.Sprintf("%-10s %9s %12s %9s %12s %9s %8s %11s",
		"Pass", "RPCs", "ReqBytes", "QryRPCs", "QryBytes", "Flushes", "Shared", "Queries/s"))

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
	// The link latency is what makes aggregation visible at this scale: while
	// a flush's round trip is on the wire, the machine's other procs enqueue
	// behind it and merge into the next flush.
	lat := rpc.LatencyModel{Base: 5 * time.Millisecond}

	var rows []AggRow
	var qs [][]int32
	var plainScores []map[int32]float64
	for _, pass := range []string{"off", "agg"} {
		opts := cluster.Options{NumMachines: machines, ProcsPerMachine: procs, Latency: lat}
		if pass == "agg" {
			opts.AggWindow = window
			opts.AggRows = maxRows
		}
		c, err := cluster.NewFromShards(shards, loc, opts, quality)
		if err != nil {
			return r, nil, err
		}
		if qs == nil {
			qs = c.EvenQuerySet(minInt(p.Queries, procs*2), 97)
		}
		before := c.NetStats()
		res, err := c.RunSSPPRBatch(context.Background(), qs, cfg, cluster.EngineMap)
		if err != nil {
			c.Close()
			return r, nil, err
		}
		after := c.NetStats()
		st := c.AggStats()
		row := AggRow{
			Pass:          pass,
			RequestsSent:  after.RequestsSent - before.RequestsSent,
			BytesSent:     after.BytesSent - before.BytesSent,
			RPCRequests:   res.RPCRequests,
			RequestBytes:  res.RequestBytes,
			Flushes:       st.Flushes,
			SharedFetches: st.Shared,
			Throughput:    res.Throughput,
		}
		rows = append(rows, row)
		r.Lines = append(r.Lines, fmt.Sprintf("%-10s %9d %12d %9d %12d %9d %8d %11.1f",
			row.Pass, row.RequestsSent, row.BytesSent, row.RPCRequests, row.RequestBytes,
			row.Flushes, row.SharedFetches, row.Throughput))

		// Identity check under a deterministic engine config: Pop order is the
		// only float-order noise source, so with it pinned any score difference
		// is the aggregator's fault.
		detCfg := cfg
		detCfg.DeterministicPop = true
		scores, err := concurrentScores(c, qs, detCfg)
		if err != nil {
			c.Close()
			return r, nil, err
		}
		if plainScores == nil {
			plainScores = scores
		} else if err := compareScores(plainScores, scores); err != nil {
			c.Close()
			return r, nil, err
		}
		c.Close()
	}
	if len(rows) == 2 && rows[1].RequestsSent > 0 {
		r.Lines = append(r.Lines, fmt.Sprintf("requests: %d -> %d (%.2fx fewer), scores identical across %d queries",
			rows[0].RequestsSent, rows[1].RequestsSent,
			float64(rows[0].RequestsSent)/float64(rows[1].RequestsSent), countQueries(qs)))
	}
	return r, rows, nil
}

// concurrentScores runs every query of qs concurrently (machine m's queries
// round-robin over its procs, like RunSSPPRBatch) and returns each query's
// full global score map, in qs order flattened machine-major.
func concurrentScores(c *cluster.Cluster, qs [][]int32, cfg core.Config) ([]map[int32]float64, error) {
	return concurrentScoresOf(c, qs, func(st *core.DistGraphStorage, src int32) (map[int32]float64, error) {
		sp, _, err := core.RunSSPPR(context.Background(), st, src, cfg, nil)
		if err != nil {
			return nil, err
		}
		defer sp.Release()
		return core.ScoresGlobal(st, sp), nil
	})
}

// concurrentScoresOf is concurrentScores with the engine left to run.
func concurrentScoresOf(c *cluster.Cluster, qs [][]int32, run func(st *core.DistGraphStorage, src int32) (map[int32]float64, error)) ([]map[int32]float64, error) {
	procs := c.Opts.ProcsPerMachine
	out := make([]map[int32]float64, countQueries(qs))
	errs := make([]error, len(out))
	base := 0
	var wg sync.WaitGroup
	for m := range qs {
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(m, p, base int) {
				defer wg.Done()
				st := c.Storages[m][p]
				for i := p; i < len(qs[m]); i += procs {
					out[base+i], errs[base+i] = run(st, qs[m][i])
				}
			}(m, p, base)
		}
		base += len(qs[m])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// compareScores asserts two runs' per-query score maps agree within 1e-9.
func compareScores(want, got []map[int32]float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("agg: score sets differ in length: %d vs %d", len(want), len(got))
	}
	for q := range want {
		if len(want[q]) != len(got[q]) {
			return fmt.Errorf("agg: query %d touched %d nodes without aggregation, %d with", q, len(want[q]), len(got[q]))
		}
		for node, w := range want[q] {
			g, ok := got[q][node]
			if !ok {
				return fmt.Errorf("agg: query %d lost node %d under aggregation", q, node)
			}
			if math.Abs(w-g) > 1e-9 {
				return fmt.Errorf("agg: query %d node %d score %g vs %g", q, node, w, g)
			}
		}
	}
	return nil
}

func countQueries(qs [][]int32) int {
	n := 0
	for _, q := range qs {
		n += len(q)
	}
	return n
}
