package experiments

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"pprengine/internal/cluster"
	"pprengine/internal/core"
	"pprengine/internal/gnn"
	"pprengine/internal/partition"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
)

// ServeRow is one pass of the end-to-end GNN serving benchmark.
type ServeRow struct {
	Pass        string
	Inferences  int     // inferences served during the measured window
	FeatRPCs    int64   // MethodFetchFeatures wire requests (all servers)
	CacheHits   int64   // feature rows served from the feature cache
	CacheMisses int64   // feature rows that went to the wire (flight leaders)
	AggFlushes  int64   // merged feature flushes
	Throughput  float64 // inferences per second
}

// ServeBench measures what the feature tier saves on the end-to-end serving
// pipeline (§4.5: SSPPR → top-K subgraph → cross-machine feature slice →
// GraphSAGE forward). The same inference set runs three times per pass over
// identical shards, features, and model weights:
//
//	direct       every ConvertBatch issues per-shard feature RPCs
//	cached+agg   machine-wide feature cache (PPR-mass admission) plus
//	             cross-query feature-fetch aggregation
//	+zerocopy    the cached+aggregated path with view decoding — feature
//	             responses stay in pooled buffers
//
// Repeating the set makes the cache's steady state visible: after the first
// round the working set is resident, so the cached passes issue a fraction
// of the direct pass's feature RPCs. The engine runs DeterministicPop with
// one push worker, so the served logits must be BITWISE identical across
// passes — the feature tier moves bytes, it must never change them.
func ServeBench(p Params) (Report, []ServeRow, error) {
	const (
		machines = 4
		procs    = 2
		dim      = 32
		hidden   = 32
		classes  = 4
		topK     = 64
		rounds   = 3
	)
	r := Report{Title: fmt.Sprintf("GNN serving pipeline on twitter-sim (%d machines x %d procs, %d rounds)", machines, procs, rounds)}
	r.Lines = append(r.Lines, fmt.Sprintf("%-22s %8s %9s %10s %10s %9s %9s",
		"Pass", "Infers", "FeatRPCs", "CacheHits", "CacheMiss", "AggFlush", "Infer/s"))

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

	// Engine config pinned for bitwise reproducibility: the only difference
	// between passes is how feature bytes travel.
	cfg := core.DefaultConfig()
	cfg.Eps = 1e-5
	cfg.DeterministicPop = true

	var rows []ServeRow
	var sources [][]int32
	var refLogits [][]float32
	for _, pass := range []string{"direct", "cached+agg", "cached+agg+zerocopy"} {
		opts := cluster.Options{NumMachines: machines, ProcsPerMachine: procs}
		zc := pass == "cached+agg+zerocopy"
		if pass != "direct" {
			opts.FeatCacheBytes = 32 << 20
			opts.AggWindow = 200 * time.Microsecond
			opts.ZeroCopy = zc
		}
		cfg.ZeroCopy = zc
		c, err := cluster.NewFromShards(shards, loc, opts, quality)
		if err != nil {
			return r, nil, err
		}
		// The non-zerocopy passes copy-decode direct feature responses too,
		// so "direct" reproduces the pre-pooling profile end to end.
		for _, machine := range c.Storages {
			for _, st := range machine {
				st.ZeroCopy = zc
			}
		}
		tc := gnn.DefaultTrainConfig()
		tc.FeatureDim, tc.Hidden, tc.NumClasses = dim, hidden, classes
		if _, err := gnn.Setup(c, tc); err != nil {
			c.Close()
			return r, nil, err
		}
		model := gnn.NewSAGE(dim, hidden, classes, 7)
		if sources == nil {
			sources = c.EvenQuerySet(minInt(p.Queries, 6), 211)
		}

		// Warm connections (not the feature cache: warm-up uses the plain
		// query path) and snapshot the wire counters.
		if _, err := c.RunSSPPRBatch(context.Background(), sources, cfg, cluster.EngineMap); err != nil {
			c.Close()
			return r, nil, err
		}
		feat0 := featRPCCount(c)
		hits0, miss0 := c.FeatCacheStats().Hits, c.FeatCacheStats().Misses
		flush0 := c.FeatAggStats().Flushes

		// Machines serve concurrently (their caches and aggregators are
		// machine-shared state); each machine's inference stream is
		// sequential, and logits are collected per machine so the flattened
		// order is deterministic regardless of scheduling.
		perMachine := make([][][]float32, machines)
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, machines)
		for m := 0; m < machines; m++ {
			wg.Add(1)
			go func(m int) {
				defer wg.Done()
				st := c.Storages[m][0]
				for round := 0; round < rounds; round++ {
					for _, src := range sources[m] {
						q, _, err := core.RunSSPPR(context.Background(), st, src, cfg, nil)
						if err != nil {
							errs[m] = err
							return
						}
						b, err := gnn.ConvertBatch(context.Background(), st, q, src, topK, classes)
						if err != nil {
							errs[m] = err
							return
						}
						perMachine[m] = append(perMachine[m], model.Forward(b))
					}
				}
			}(m)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, err := range errs {
			if err != nil {
				c.Close()
				return r, nil, fmt.Errorf("serve: pass %q: %w", pass, err)
			}
		}
		var logits [][]float32
		for _, l := range perMachine {
			logits = append(logits, l...)
		}
		row := ServeRow{
			Pass:        pass,
			Inferences:  len(logits),
			FeatRPCs:    featRPCCount(c) - feat0,
			CacheHits:   c.FeatCacheStats().Hits - hits0,
			CacheMisses: c.FeatCacheStats().Misses - miss0,
			AggFlushes:  c.FeatAggStats().Flushes - flush0,
			Throughput:  float64(len(logits)) / elapsed.Seconds(),
		}
		rows = append(rows, row)
		r.Lines = append(r.Lines, fmt.Sprintf("%-22s %8d %9d %10d %10d %9d %9.1f",
			row.Pass, row.Inferences, row.FeatRPCs, row.CacheHits, row.CacheMisses, row.AggFlushes, row.Throughput))

		if refLogits == nil {
			refLogits = logits
		} else if err := compareLogitsExact(refLogits, logits); err != nil {
			c.Close()
			return r, nil, fmt.Errorf("serve: pass %q: %w", pass, err)
		}
		c.Close()
	}

	// Acceptance: the cached+aggregated tier must at least halve the feature
	// RPC count at identical logits (steady state: round 1 fills, 2-3 hit).
	direct, cached := rows[0].FeatRPCs, rows[1].FeatRPCs
	if cached <= 0 || direct < 2*cached {
		return r, rows, fmt.Errorf("serve: feature tier saved too little: %d feature RPCs direct vs %d cached+agg (want >= 2x fewer)", direct, cached)
	}
	r.Lines = append(r.Lines, fmt.Sprintf(
		"feature RPCs: %d -> %d (%.2fx fewer), logits bitwise identical across %d inferences",
		direct, cached, float64(direct)/float64(cached), rows[0].Inferences))
	return r, rows, nil
}

// featRPCCount sums MethodFetchFeatures requests over every storage server
// of the cluster (replica servers included, when present).
func featRPCCount(c *cluster.Cluster) int64 {
	var n int64
	for _, s := range c.Servers {
		n += s.RPCStats().Requests[rpc.MethodFetchFeatures]
	}
	for _, machine := range c.ReplicaServers {
		for _, s := range machine {
			n += s.RPCStats().Requests[rpc.MethodFetchFeatures]
		}
	}
	return n
}

// compareLogitsExact asserts two passes served bitwise-identical logits.
func compareLogitsExact(want, got [][]float32) error {
	if len(want) != len(got) {
		return fmt.Errorf("logit sets differ in length: %d vs %d", len(want), len(got))
	}
	for q := range want {
		if len(want[q]) != len(got[q]) {
			return fmt.Errorf("inference %d: %d logits vs %d", q, len(want[q]), len(got[q]))
		}
		for j := range want[q] {
			if math.Float32bits(want[q][j]) != math.Float32bits(got[q][j]) {
				return fmt.Errorf("inference %d logit %d: %v vs %v (not bitwise identical)", q, j, want[q][j], got[q][j])
			}
		}
	}
	return nil
}
