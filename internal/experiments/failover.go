package experiments

import (
	"context"
	"fmt"
	"time"

	"pprengine/internal/chaos"
	"pprengine/internal/cluster"
	"pprengine/internal/core"
	"pprengine/internal/ha"
	"pprengine/internal/partition"
	"pprengine/internal/shard"
)

// FailoverRow is one pass of the replication/failover benchmark.
type FailoverRow struct {
	Pass          string
	Queries       int
	Failed        int
	Failovers     int64
	Probes        int64
	ProbeFailures int64
	Throughput    float64
	// ScoresMatch reports whether the pass's deterministic score maps were
	// bitwise-checked against the no-fault baseline (only the faulted pass
	// runs the check; the others inherit it trivially).
	ScoresMatch bool
}

// FailoverBench measures the engine's behavior when a serving machine crashes
// mid-stream. Three passes over identical shards of twitter-sim (4 machines,
// 8 compute procs each):
//
//   - baseline: no replication, no faults — the seed behavior;
//   - faulted: R=2, the fault injector crashes machine 1 after its Nth
//     response write, mid-batch. Every query must still complete, served by
//     the replica, and a deterministic re-run's score maps must equal the
//     baseline's exactly (same engine config pinning float order);
//   - recovered: the machine is revived, health probes close its circuit
//     breaker on every peer, and a final batch runs with zero new failovers
//     (traffic back on the primary).
//
// The paper's engine has no fault-tolerance story; this experiment documents
// the replication layer's cost (availability and throughput under failure)
// rather than reproducing a paper figure.
//
// replicas, probeInterval and breakerThreshold tune the HA layer (<= 0
// selects the defaults: R=2, 50ms probes, threshold 3).
func FailoverBench(p Params, replicas int, probeInterval time.Duration, breakerThreshold int) (Report, []FailoverRow, error) {
	const machines = 4
	const procs = 8
	const victim = 1
	if replicas < 2 {
		replicas = 2
	}
	if replicas > machines {
		replicas = machines
	}
	if probeInterval <= 0 {
		probeInterval = 50 * time.Millisecond
	}
	if breakerThreshold <= 0 {
		breakerThreshold = 3
	}
	cfg := core.DefaultConfig()
	cfg.Eps = 1e-5 // fetch-bound regime: remote traffic is what fails over
	detCfg := cfg
	detCfg.DeterministicPop = true

	r := Report{Title: fmt.Sprintf("Shard replication failover on twitter-sim (%d machines x %d procs, R=%d, kill machine %d mid-stream)", machines, procs, replicas, victim)}
	r.Lines = append(r.Lines, fmt.Sprintf("%-10s %8s %7s %10s %7s %9s %11s %7s",
		"Pass", "Queries", "Failed", "Failovers", "Probes", "ProbeErr", "Queries/s", "Scores"))

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

	emit := func(row FailoverRow) {
		match := "-"
		if row.ScoresMatch {
			match = "exact"
		}
		r.Lines = append(r.Lines, fmt.Sprintf("%-10s %8d %7d %10d %7d %9d %11.1f %7s",
			row.Pass, row.Queries, row.Failed, row.Failovers, row.Probes, row.ProbeFailures,
			row.Throughput, match))
	}

	// Pass 1 — baseline: plain cluster, collect throughput and the
	// deterministic score maps the faulted pass must reproduce.
	base, err := cluster.NewFromShards(shards, loc, cluster.Options{
		NumMachines: machines, ProcsPerMachine: procs,
	}, quality)
	if err != nil {
		return r, nil, err
	}
	qs := base.EvenQuerySet(minInt(p.Queries, procs*2), 53)
	nq := countQueries(qs)
	netBefore := base.NetStats()
	res, err := base.RunSSPPRBatch(context.Background(), qs, cfg, cluster.EngineMap)
	if err != nil {
		base.Close()
		return r, nil, err
	}
	// The victim answers roughly a quarter of the batch's wire requests (one
	// of four machines); killing it halfway through that share lands the
	// crash mid-stream at any scale.
	batchRequests := base.NetStats().RequestsSent - netBefore.RequestsSent
	killAfter := batchRequests / 8
	if killAfter < 1 {
		killAfter = 1
	}
	baseScores, err := concurrentScores(base, qs, detCfg)
	base.Close()
	if err != nil {
		return r, nil, err
	}
	rows := []FailoverRow{{Pass: "baseline", Queries: nq, Failed: res.Failed, Throughput: res.Throughput}}
	emit(rows[0])

	// Pass 2 — faulted: the victim crashes partway through the measured
	// batch. The batch must complete with zero failed queries, and a
	// deterministic re-run on the (still dead) cluster must match the
	// baseline scores exactly.
	inj := chaos.New(4242)
	inj.SetPlan(victim, chaos.Plan{KillAfterWrites: killAfter})
	c, err := cluster.NewFromShards(shards, loc, cluster.Options{
		NumMachines: machines, ProcsPerMachine: procs, Replicas: replicas,
		ProbeInterval:    probeInterval,
		ProbeTimeout:     time.Second,
		BreakerThreshold: breakerThreshold,
		FailoverTimeout:  5 * time.Second,
		Chaos:            inj,
	}, quality)
	if err != nil {
		return r, nil, err
	}
	defer c.Close()
	res, err = c.RunSSPPRBatch(context.Background(), qs, cfg, cluster.EngineMap)
	if err != nil {
		return r, nil, err
	}
	if st := inj.Stats(victim); st.Kills == 0 {
		return r, nil, fmt.Errorf("failover: the batch finished before the crash trigger (%d writes); lower KillAfterWrites", st.Writes)
	}
	faultScores, err := concurrentScores(c, qs, detCfg)
	if err != nil {
		return r, nil, fmt.Errorf("failover: query failed despite replication: %w", err)
	}
	if err := compareScores(baseScores, faultScores); err != nil {
		return r, nil, fmt.Errorf("failover: results diverged from the no-fault run: %w", err)
	}
	hst := c.HAStats()
	row := FailoverRow{
		Pass: "faulted", Queries: nq, Failed: res.Failed,
		Failovers: hst.Failovers, Probes: hst.Probes, ProbeFailures: hst.ProbeFailures,
		Throughput: res.Throughput, ScoresMatch: true,
	}
	rows = append(rows, row)
	emit(row)
	if hst.Failovers == 0 {
		return r, nil, fmt.Errorf("failover: no failovers recorded although the victim died mid-stream")
	}

	// Pass 3 — recovered: revive, wait for every peer's breaker on the victim
	// to close, then measure a batch that should run entirely on primaries.
	inj.Revive(victim)
	key := fmt.Sprintf("m%d", victim)
	deadline := time.Now().Add(30 * time.Second)
	for {
		closed := true
		for m := 0; m < machines; m++ {
			if m == victim {
				continue
			}
			if c.Machines[m].Tracker.State(key) != ha.BreakerClosed {
				closed = false
			}
		}
		if closed {
			break
		}
		if time.Now().After(deadline) {
			return r, nil, fmt.Errorf("failover: breakers never closed after revival")
		}
		time.Sleep(25 * time.Millisecond)
	}
	failoversBefore := c.HAStats().Failovers
	res, err = c.RunSSPPRBatch(context.Background(), qs, cfg, cluster.EngineMap)
	if err != nil {
		return r, nil, err
	}
	hst = c.HAStats()
	row = FailoverRow{
		Pass: "recovered", Queries: nq, Failed: res.Failed,
		Failovers: hst.Failovers - failoversBefore, Probes: hst.Probes, ProbeFailures: hst.ProbeFailures,
		Throughput: res.Throughput,
	}
	rows = append(rows, row)
	emit(row)
	r.Lines = append(r.Lines, fmt.Sprintf(
		"availability under failure: %d/%d queries, %d failovers; after recovery: %d failovers, breaker closed on all peers",
		nq-rows[1].Failed, nq, rows[1].Failovers, row.Failovers))
	return r, rows, nil
}
