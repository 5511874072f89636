package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"pprengine/internal/admit"
	"pprengine/internal/chaos"
	"pprengine/internal/cluster"
	"pprengine/internal/core"
	"pprengine/internal/partition"
	"pprengine/internal/shard"
)

// OverloadRow is one pass of the overload/admission/hedging benchmark.
type OverloadRow struct {
	Pass      string
	Queries   int
	Completed int
	Timeouts  int
	Shed      int
	// MeanShedMicros is the mean wall time a shed query spent before its
	// typed rejection — the "fail in microseconds, not after the deadline"
	// claim, measured.
	MeanShedMicros float64
	// MeanTimeoutMs is the mean wall time a timed-out query burned before
	// giving up (≈ the full deadline: the cost admission control avoids).
	MeanTimeoutMs float64
	P50Ms         float64
	P99Ms         float64
	Hedges        int64
	HedgeWins     int64
	Failovers     int64
	Throughput    float64
	// ScoresMatch reports the hedged pass's deterministic score maps were
	// bitwise-checked against the unhedged pass.
	ScoresMatch bool
}

// latencyStats is one pass's per-query outcome accounting.
type latencyStats struct {
	completed []time.Duration // wall time of successful queries
	shed      []time.Duration // wall time until a typed admission shed
	timedOut  []time.Duration // wall time until a deadline/cancel abort
	failed    int             // other failures
	wall      time.Duration
}

func (s *latencyStats) percentileMs(p float64) float64 {
	if len(s.completed) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), s.completed...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

func meanMicros(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / float64(time.Microsecond)
}

// timedRun executes qs like RunSSPPRBatch (machine m's queries round-robin
// over its procs, each proc sequential) but records every query's individual
// wall time and outcome class — the overload experiment is about latency
// distributions, which the batch rollup does not keep.
func timedRun(c *cluster.Cluster, qs [][]int32, cfg core.Config) latencyStats {
	procs := c.Opts.ProcsPerMachine
	accs := make([][]latencyStats, len(qs))
	var wg sync.WaitGroup
	start := time.Now()
	for m := range qs {
		accs[m] = make([]latencyStats, procs)
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(m, p int) {
				defer wg.Done()
				st := c.Storages[m][p]
				a := &accs[m][p]
				for i := p; i < len(qs[m]); i += procs {
					qStart := time.Now()
					_, _, err := core.RunSSPPR(context.Background(), st, qs[m][i], cfg, nil)
					dur := time.Since(qStart)
					switch {
					case err == nil:
						a.completed = append(a.completed, dur)
					case errors.Is(err, admit.ErrShed):
						a.shed = append(a.shed, dur)
					case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
						a.timedOut = append(a.timedOut, dur)
					default:
						a.failed++
					}
				}
			}(m, p)
		}
	}
	wg.Wait()
	var out latencyStats
	out.wall = time.Since(start)
	for m := range accs {
		for p := range accs[m] {
			out.completed = append(out.completed, accs[m][p].completed...)
			out.shed = append(out.shed, accs[m][p].shed...)
			out.timedOut = append(out.timedOut, accs[m][p].timedOut...)
			out.failed += accs[m][p].failed
		}
	}
	return out
}

// OverloadBench drives a 4-machine cluster past saturation and measures how
// admission control and hedged fetches change the failure mode.
//
// Part 1 — admission (DESIGN.md §5k): the same past-saturation batch (far
// more concurrent queries than cores, every query under a deadline) runs on
// two identical clusters. Without admission every query executes, all of
// them slow down together, and the losers burn their full deadline before
// failing. With a per-machine in-flight cap and a small wait queue, excess
// queries are shed in microseconds with a typed error while the admitted
// ones finish well inside their budget — the overload cliff becomes a slope.
//
// Part 2 — hedging: with R=2 replication and the fault injector delaying
// one machine's serving sockets ("slow but not dead": probes still succeed,
// breakers stay closed, failover never triggers), the same batch runs with
// and without hedged fetches. The hedge fires after hedgeDelay and the
// replica's fast response wins; deterministic score maps must match the
// unhedged pass bitwise, hedge wins must not be double-counted as failovers.
//
// maxInFlight/maxQueue <= 0 pick core-count-derived defaults; hedgeDelay <= 0
// means 1ms.
func OverloadBench(p Params, maxInFlight, maxQueue int, hedgeDelay time.Duration) (Report, []OverloadRow, error) {
	const machines = 4
	cores := runtime.NumCPU()
	// Oversubscribe 3x the cores so the no-admission pass genuinely
	// saturates: per-query latency inflates with concurrency and deadlines
	// start expiring late.
	procs := maxInt(8, 3*cores/machines)
	if maxInFlight <= 0 {
		// Cap admitted concurrency around half the cores across the cluster:
		// admitted queries run near solo speed.
		maxInFlight = maxInt(1, cores/(2*machines))
	}
	if maxQueue <= 0 {
		maxQueue = 2 * maxInFlight
	}
	if hedgeDelay <= 0 {
		hedgeDelay = time.Millisecond
	}
	cfg := core.DefaultConfig()
	cfg.Eps = 1e-5

	r := Report{Title: fmt.Sprintf("Serving under overload on twitter-sim (%d machines x %d procs on %d cores; admit cap=%d queue=%d; hedge delay=%v)",
		machines, procs, cores, maxInFlight, maxQueue, hedgeDelay)}
	r.Lines = append(r.Lines, fmt.Sprintf("%-12s %7s %9s %8s %6s %9s %10s %8s %8s %7s %6s %9s",
		"Pass", "Queries", "Completed", "Timeout", "Shed", "Shed(µs)", "ToFail(ms)", "p50(ms)", "p99(ms)", "Hedges", "Wins", "Queries/s"))

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

	var rows []OverloadRow
	emit := func(row OverloadRow) {
		rows = append(rows, row)
		match := "-"
		if row.ScoresMatch {
			match = " scores exact"
		}
		r.Lines = append(r.Lines, fmt.Sprintf("%-12s %7d %9d %8d %6d %9.1f %10.1f %8.2f %8.2f %7d %6d %9.1f%s",
			row.Pass, row.Queries, row.Completed, row.Timeouts, row.Shed,
			row.MeanShedMicros, row.MeanTimeoutMs, row.P50Ms, row.P99Ms,
			row.Hedges, row.HedgeWins, row.Throughput, match))
	}

	// --- Part 1: admission control past saturation ---

	// Calibrate the deadline on an unloaded cluster: run a few queries
	// sequentially and take the median as the solo service time. The batch
	// deadline is 8x that — generous for an admitted query, hopeless once
	// tens of queries contend for the same cores.
	calib, err := cluster.NewFromShards(shards, loc, cluster.Options{
		NumMachines: machines, ProcsPerMachine: 1,
	}, quality)
	if err != nil {
		return r, nil, err
	}
	var solo []time.Duration
	calibQs := calib.EvenQuerySet(4, 11)
	for m := range calibQs {
		for _, src := range calibQs[m] {
			start := time.Now()
			if _, _, err := core.RunSSPPR(context.Background(), calib.Storages[m][0], src, cfg, nil); err != nil {
				calib.Close()
				return r, nil, err
			}
			solo = append(solo, time.Since(start))
		}
	}
	calib.Close()
	sort.Slice(solo, func(i, j int) bool { return solo[i] < solo[j] })
	soloP50 := solo[len(solo)/2]
	deadline := 8 * soloP50
	if deadline < 20*time.Millisecond {
		deadline = 20 * time.Millisecond
	}
	r.Lines = append(r.Lines, fmt.Sprintf("calibration: solo p50 %.2fms -> per-query deadline %v", float64(soloP50)/float64(time.Millisecond), deadline))

	loadCfg := cfg
	loadCfg.QueryTimeout = deadline
	var qs [][]int32
	for _, pass := range []string{"overload", "admit"} {
		opts := cluster.Options{NumMachines: machines, ProcsPerMachine: procs}
		if pass == "admit" {
			opts.AdmitMaxInFlight = maxInFlight
			opts.AdmitMaxQueue = maxQueue
		}
		c, err := cluster.NewFromShards(shards, loc, opts, quality)
		if err != nil {
			return r, nil, err
		}
		if qs == nil {
			qs = c.EvenQuerySet(minInt(p.Queries, procs*2), 71)
		}
		if pass == "admit" {
			// Warm the controllers' p50 estimate (deadline feasibility only
			// engages after MinSamples completions) the way a live server
			// warms it: a light trickle of admitted queries.
			warmQs := c.EvenQuerySet(10, 13)
			warmCfg := cfg
			timedRun(c, warmQs, warmCfg)
		}
		st := timedRun(c, qs, loadCfg)
		row := OverloadRow{
			Pass:           pass,
			Queries:        countQueries(qs),
			Completed:      len(st.completed),
			Timeouts:       len(st.timedOut),
			Shed:           len(st.shed),
			MeanShedMicros: meanMicros(st.shed),
			MeanTimeoutMs:  meanMicros(st.timedOut) / 1e3,
			P50Ms:          st.percentileMs(0.50),
			P99Ms:          st.percentileMs(0.99),
			Throughput:     float64(len(st.completed)) / st.wall.Seconds(),
		}
		if pass == "admit" {
			snap := c.AdmitStats()
			if snap.Shed() == 0 {
				c.Close()
				return r, nil, fmt.Errorf("overload: admission pass shed nothing although concurrency (%d) far exceeds the cap (%d)", machines*procs, machines*maxInFlight)
			}
			if len(st.shed) > 0 && time.Duration(row.MeanShedMicros*float64(time.Microsecond)) > deadline/4 {
				c.Close()
				return r, nil, fmt.Errorf("overload: sheds took %.0fµs on average — not an early rejection against a %v deadline", row.MeanShedMicros, deadline)
			}
			if len(st.completed) == 0 {
				c.Close()
				return r, nil, fmt.Errorf("overload: admission pass completed no queries")
			}
		}
		c.Close()
		emit(row)
	}

	// --- Part 2: hedged fetches against a slow replica ---

	// The victim is slow but NOT dead: its sockets gain a per-IO delay well
	// under the probe timeout, so health probes keep succeeding, breakers
	// stay closed, and the failover path never engages. Only hedging helps.
	const victim = 1
	const ioDelay = 3 * time.Millisecond
	hedgeProcs := 2
	hedgeQs := [][]int32(nil)
	detCfg := cfg
	detCfg.DeterministicPop = true
	var slowScores []map[int32]float64
	var slowMean time.Duration
	for _, pass := range []string{"slow", "slow+hedge"} {
		inj := chaos.New(777)
		inj.SetPlan(victim, chaos.Plan{Delay: ioDelay})
		opts := cluster.Options{
			NumMachines: machines, ProcsPerMachine: hedgeProcs,
			Replicas:      2,
			ProbeInterval: 50 * time.Millisecond,
			ProbeTimeout:  time.Second,
			Chaos:         inj,
		}
		if pass == "slow+hedge" {
			opts.Hedge = true
			opts.HedgeDelay = hedgeDelay
		}
		c, err := cluster.NewFromShards(shards, loc, opts, quality)
		if err != nil {
			return r, nil, err
		}
		if hedgeQs == nil {
			hedgeQs = c.EvenQuerySet(minInt(p.Queries, 8), 29)
		}
		st := timedRun(c, hedgeQs, cfg)
		if st.failed > 0 || len(st.timedOut) > 0 {
			c.Close()
			return r, nil, fmt.Errorf("overload: %s pass had %d failures and %d timeouts", pass, st.failed, len(st.timedOut))
		}
		scores, err := concurrentScores(c, hedgeQs, detCfg)
		if err != nil {
			c.Close()
			return r, nil, err
		}
		hs := c.HedgeStats()
		ha := c.HAStats()
		row := OverloadRow{
			Pass:       pass,
			Queries:    countQueries(hedgeQs),
			Completed:  len(st.completed),
			P50Ms:      st.percentileMs(0.50),
			P99Ms:      st.percentileMs(0.99),
			Hedges:     hs.Hedges,
			HedgeWins:  hs.Wins,
			Failovers:  ha.Failovers,
			Throughput: float64(len(st.completed)) / st.wall.Seconds(),
		}
		var mean time.Duration
		for _, d := range st.completed {
			mean += d
		}
		mean /= time.Duration(len(st.completed))
		if pass == "slow" {
			slowScores = scores
			slowMean = mean
		} else {
			if err := compareScores(slowScores, scores); err != nil {
				c.Close()
				return r, nil, fmt.Errorf("overload: hedged scores diverged: %w", err)
			}
			row.ScoresMatch = true
			if hs.Wins == 0 {
				c.Close()
				return r, nil, fmt.Errorf("overload: no hedge wins although machine %d delays every IO by %v (hedge delay %v)", victim, ioDelay, hedgeDelay)
			}
			if ha.Failovers != 0 {
				c.Close()
				return r, nil, fmt.Errorf("overload: %d failovers recorded in a slow-but-alive scenario — hedge wins are being double-counted", ha.Failovers)
			}
			if mean >= slowMean {
				c.Close()
				return r, nil, fmt.Errorf("overload: hedging did not help: mean %v vs %v unhedged", mean, slowMean)
			}
			r.Lines = append(r.Lines, fmt.Sprintf("hedging: mean %.2fms -> %.2fms (%.2fx), %d/%d hedges won, 0 failovers, scores bitwise-identical",
				float64(slowMean)/float64(time.Millisecond), float64(mean)/float64(time.Millisecond),
				float64(slowMean)/float64(mean), hs.Wins, hs.Hedges))
		}
		c.Close()
		emit(row)
	}
	if len(rows) >= 2 {
		r.Lines = append(r.Lines, fmt.Sprintf(
			"degradation: without admission %d/%d queries burned ~%.0fms each before failing; with it %d sheds answered in ~%.0fµs and completions stayed at p99 %.1fms",
			rows[0].Timeouts, rows[0].Queries, rows[0].MeanTimeoutMs,
			rows[1].Shed, rows[1].MeanShedMicros, rows[1].P99Ms))
	}
	return r, rows, nil
}
