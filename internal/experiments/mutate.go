package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pprengine/internal/cluster"
	"pprengine/internal/core"
	"pprengine/internal/delta"
	"pprengine/internal/graph"
	"pprengine/internal/partition"
	"pprengine/internal/shard"
)

// MutateRow is one measured pass of the streaming-mutation benchmark.
type MutateRow struct {
	Pass      string  `json:"pass"`
	Queries   int     `json:"queries"`
	Mutations int     `json:"mutations"`
	Epoch     uint64  `json:"epoch"`
	Hits      int     `json:"hits"`     // incremental answers served from cache unchanged
	Repushes  int     `json:"repushes"` // incremental answers re-pushed from the mutated frontier
	Fulls     int     `json:"fulls"`    // incremental answers that fell back to a full run
	TotalMs   float64 `json:"total_ms"`
	PerQryMs  float64 `json:"per_query_ms"`
	Speedup   float64 `json:"speedup_vs_full"` // full-pass wall / incremental-pass wall
	// CompactPauseMs is the longest write-lock pause any machine's compactor
	// held while folding the round's deltas (the "compaction pause" cost).
	CompactPauseMs float64 `json:"compact_pause_ms"`
	// CompactBuildMs is the longest any machine's compactor spent rebuilding
	// shard arrays beside the live ones, holding no lock.
	CompactBuildMs float64 `json:"compact_build_ms"`
	RowsBaked      int     `json:"rows_baked"`
}

// MutateBench measures the streaming-mutation tier (DESIGN.md §5l) on
// twitter-sim: after an answered query set, a localized mutation burst lands
// through the coordinator, and the same queries are re-answered at the new
// epoch two ways — incrementally (cached residual state, re-push from the
// mutated frontier) and from scratch. The headline number is the incremental
// speedup; the acceptance bar is >= 2x on a localized burst. Each round also
// compacts every machine's store and reports the longest write-lock pause
// and the longest off-lock rebuild.
//
// Correctness is asserted inline: an incremental answer served from
// unchanged cache ("hit") must be bitwise identical to the fresh full run at
// the same epoch (DeterministicPop pins float order on both sides).
func MutateBench(p Params) (Report, []MutateRow, error) {
	const machines = 4
	const queriesPerMachine = 8
	const burstEdges = 24
	r := Report{Title: fmt.Sprintf("Streaming mutations on twitter-sim (%d machines, %d queries, localized %d-edge bursts)",
		machines, machines*queriesPerMachine, burstEdges)}
	r.Lines = append(r.Lines, fmt.Sprintf("%-12s %8s %5s %7s %6s %9s %8s %9s %11s %9s %9s",
		"Pass", "Queries", "Hits", "Repush", "Full", "Total ms", "ms/q", "Speedup", "Compact ms", "Build ms", "Baked"))

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
	c, err := cluster.NewFromShards(shards, loc, cluster.Options{
		NumMachines: machines, ProcsPerMachine: 1, Mutable: true,
	}, partition.Evaluate(g, a))
	if err != nil {
		return r, nil, err
	}
	defer c.Close()

	// Bitwise comparability between the incremental and full passes needs
	// the deterministic engine (same float order on both sides).
	cfg := core.DefaultConfig()
	cfg.DeterministicPop = true

	qs := c.EvenQuerySet(queriesPerMachine, 71)
	nq := countQueries(qs)
	caches := make([]*core.ResidCache, machines)
	for m := range caches {
		caches[m] = core.NewResidCache(queriesPerMachine)
	}
	const topK = 32

	// incrementalPass answers every query through its machine's residual
	// cache (machines concurrently, a machine's queries sequentially — the
	// serving shape) and tallies the mode each answer took.
	incrementalPass := func() (time.Duration, [][]core.ScoredNode, []string, *MutateRow, error) {
		out := make([][]core.ScoredNode, nq)
		modes := make([]string, nq)
		errs := make([]error, nq)
		var wg sync.WaitGroup
		start := time.Now()
		base := 0
		for m := range qs {
			wg.Add(1)
			go func(m, base int) {
				defer wg.Done()
				st := c.Storages[m][0]
				for i, src := range qs[m] {
					top, _, ic, err := core.RunSSPPRIncrementalTopK(context.Background(), st, caches[m], src, topK, cfg, nil)
					out[base+i], modes[base+i], errs[base+i] = top, ic.Mode, err
				}
			}(m, base)
			base += len(qs[m])
		}
		wg.Wait()
		wall := time.Since(start)
		row := &MutateRow{}
		for i := range errs {
			if errs[i] != nil {
				return 0, nil, nil, nil, errs[i]
			}
			switch modes[i] {
			case "hit":
				row.Hits++
			case "repush":
				row.Repushes++
			default:
				row.Fulls++
			}
		}
		return wall, out, modes, row, nil
	}

	// fullPass answers the same queries from scratch at the current epoch.
	fullPass := func() (time.Duration, [][]core.ScoredNode, error) {
		out := make([][]core.ScoredNode, nq)
		errs := make([]error, nq)
		var wg sync.WaitGroup
		start := time.Now()
		base := 0
		for m := range qs {
			wg.Add(1)
			go func(m, base int) {
				defer wg.Done()
				st := c.Storages[m][0]
				for i, src := range qs[m] {
					top, _, err := core.RunSSPPRTopK(context.Background(), st, src, topK, cfg, nil)
					out[base+i], errs[base+i] = top, err
				}
			}(m, base)
			base += len(qs[m])
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, nil, err
			}
		}
		return time.Since(start), out, nil
	}

	// burst applies a localized batch: edges among a contiguous window of
	// global IDs, sliding per round so every round mutates fresh rows.
	n := int64(g.NumNodes)
	burst := func(round int) (uint64, error) {
		lo := (n / 2) + int64(round*burstEdges)%(n/4)
		muts := make([]delta.Mutation, 0, burstEdges)
		for i := 0; i < burstEdges; i++ {
			muts = append(muts, delta.Mutation{
				Op:     delta.OpAddEdge,
				Src:    graph.NodeID(lo + int64(i)%32),
				Dst:    graph.NodeID(lo + int64(i*7+1)%32),
				Weight: 0.5,
			})
		}
		return c.Mutate(context.Background(), muts)
	}

	emit := func(row MutateRow) {
		speedup, compact, build := "-", "-", "-"
		if row.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", row.Speedup)
		}
		if row.CompactPauseMs > 0 {
			compact = fmt.Sprintf("%.3f", row.CompactPauseMs)
			build = fmt.Sprintf("%.3f", row.CompactBuildMs)
		}
		r.Lines = append(r.Lines, fmt.Sprintf("%-12s %8d %5d %7d %6d %9.1f %8.2f %9s %11s %9s %9d",
			row.Pass, row.Queries, row.Hits, row.Repushes, row.Fulls,
			row.TotalMs, row.PerQryMs, speedup, compact, build, row.RowsBaked))
	}

	var rows []MutateRow
	// Round 0 — cold: every query runs full and seeds its machine's cache.
	coldWall, _, _, coldRow, err := incrementalPass()
	if err != nil {
		return r, nil, err
	}
	coldRow.Pass, coldRow.Queries = "cold", nq
	coldRow.TotalMs = float64(coldWall.Microseconds()) / 1e3
	coldRow.PerQryMs = coldRow.TotalMs / float64(nq)
	rows = append(rows, *coldRow)
	emit(*coldRow)

	repeats := p.Repeats
	if repeats < 1 {
		repeats = 1
	}
	for round := 0; round < repeats; round++ {
		epoch, err := burst(round)
		if err != nil {
			return r, nil, err
		}
		incWall, incTop, modes, row, err := incrementalPass()
		if err != nil {
			return r, nil, err
		}
		fullWall, fullTop, err := fullPass()
		if err != nil {
			return r, nil, err
		}
		// Footprint-disjoint ("hit") and fallback ("full") answers must equal
		// the fresh run bitwise — the benchmark doubles as the correctness
		// oracle. Re-pushed answers agree at approximation level only and are
		// covered by the integration tests.
		for q := range incTop {
			if modes[q] == "repush" {
				continue
			}
			if len(incTop[q]) != len(fullTop[q]) {
				return r, nil, fmt.Errorf("mutate: query %d top-K lengths differ at epoch %d", q, epoch)
			}
			for i := range incTop[q] {
				if incTop[q][i] != fullTop[q][i] {
					return r, nil, fmt.Errorf("mutate: query %d (%s) rank %d diverged at epoch %d: %+v vs %+v",
						q, modes[q], i, epoch, incTop[q][i], fullTop[q][i])
				}
			}
		}
		var pause, build time.Duration
		baked := 0
		for _, st := range c.Deltas {
			cs := st.Compact()
			pause, build = max(pause, cs.Pause), max(build, cs.Build)
			baked += cs.RowsBaked
		}
		row.Pass = fmt.Sprintf("round-%d", round+1)
		row.Queries = nq
		row.Mutations = burstEdges
		row.Epoch = epoch
		row.TotalMs = float64(incWall.Microseconds()) / 1e3
		row.PerQryMs = row.TotalMs / float64(nq)
		row.Speedup = float64(fullWall) / float64(incWall)
		row.CompactPauseMs = float64(pause.Nanoseconds()) / 1e6
		row.CompactBuildMs = float64(build.Nanoseconds()) / 1e6
		row.RowsBaked = baked
		rows = append(rows, *row)
		emit(*row)
	}
	return r, rows, nil
}
