package cluster

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"pprengine/internal/chaos"
	"pprengine/internal/core"
	"pprengine/internal/graph"
	"pprengine/internal/ha"
	"pprengine/internal/partition"
	"pprengine/internal/shard"
)

// haTestShards builds one shard set reused across the clusters of a test, so
// the with-fault and no-fault runs serve bit-identical data.
func haTestShards(t *testing.T, g *graph.Graph, k int) ([]*shard.Shard, *shard.Locator, partition.Quality) {
	t.Helper()
	a, err := partition.Partition(g, k, partition.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	shards, loc, err := shard.Build(g, a, k)
	if err != nil {
		t.Fatal(err)
	}
	return shards, loc, partition.Evaluate(g, a)
}

// detConfig pins the float-order noise source (frontier pop order), making
// scores bitwise reproducible: any difference between runs is then the
// transport's fault.
func detConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.DeterministicPop = true
	return cfg
}

// streamScores runs every query through its machine's first compute process
// (machines concurrently, a machine's queries sequentially) and returns each
// query's full global score map plus any per-query errors, machine-major.
func streamScores(c *Cluster, qs [][]int32, cfg core.Config) ([]map[int32]float64, []error) {
	total := 0
	for _, q := range qs {
		total += len(q)
	}
	out := make([]map[int32]float64, total)
	errs := make([]error, total)
	var wg sync.WaitGroup
	base := 0
	for m := range qs {
		wg.Add(1)
		go func(m, base int) {
			defer wg.Done()
			st := c.Storages[m][0]
			for i, src := range qs[m] {
				sp, _, err := core.RunSSPPR(context.Background(), st, src, cfg, nil)
				if err != nil {
					errs[base+i] = err
					continue
				}
				out[base+i] = core.ScoresGlobal(st, sp)
			}
		}(m, base)
		base += len(qs[m])
	}
	wg.Wait()
	return out, errs
}

func assertSameScores(t *testing.T, want, got []map[int32]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("score sets differ in length: %d vs %d", len(want), len(got))
	}
	for q := range want {
		if len(want[q]) != len(got[q]) {
			t.Fatalf("query %d touched %d nodes in baseline, %d under failover", q, len(want[q]), len(got[q]))
		}
		for node, w := range want[q] {
			g, ok := got[q][node]
			if !ok {
				t.Fatalf("query %d lost node %d under failover", q, node)
			}
			if math.Abs(w-g) > 1e-12 {
				t.Fatalf("query %d node %d: score %g vs %g", q, node, w, g)
			}
		}
	}
}

func TestReplicatedClusterBasics(t *testing.T) {
	g := testGraph(21, 400, 2400)
	shards, loc, quality := haTestShards(t, g, 4)
	c, err := NewFromShards(shards, loc, Options{
		NumMachines: 4, ProcsPerMachine: 2, Replicas: 2,
		ProbeInterval: 50 * time.Millisecond,
	}, quality)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Placement.Validate(4); err != nil {
		t.Fatal(err)
	}
	replicaServers := 0
	for _, machine := range c.ReplicaServers {
		replicaServers += len(machine)
	}
	if replicaServers != 4 {
		t.Fatalf("%d replica servers, want 4 (one extra copy per shard)", replicaServers)
	}
	for m := 0; m < 4; m++ {
		if c.Machines[m].Router == nil || c.Machines[m].Tracker == nil {
			t.Fatalf("machine %d missing router/tracker", m)
		}
		for s := int32(0); s < 4; s++ {
			if int(s) == m {
				continue
			}
			if eps := c.Machines[m].Router.Endpoints(s); len(eps) != 2 {
				t.Fatalf("machine %d shard %d: %d endpoints, want 2", m, s, len(eps))
			}
		}
	}
	// With every machine healthy the batch runs entirely on primaries.
	qs := c.EvenQuerySet(4, 11)
	res, err := c.RunSSPPRBatch(context.Background(), qs, detConfig(), EngineMap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d queries failed on a healthy replicated cluster: %v", res.Failed, res.Errors[0])
	}
	if st := c.HAStats(); st.Failovers != 0 {
		t.Fatalf("Failovers = %d on a healthy cluster, want 0", st.Failovers)
	}
	if n := c.NetStats(); n.RequestsSent == 0 {
		t.Fatal("NetStats should count routed endpoint traffic")
	}
}

// TestFailoverKillMidStream is the acceptance scenario: 4 machines with R=2,
// the fault injector crashes machine 1 partway through a query stream, and
// every query must still complete with scores identical to a no-fault run on
// the same shards. After reviving the machine, probes close its breaker and
// traffic returns to the primary.
func TestFailoverKillMidStream(t *testing.T) {
	g := testGraph(22, 500, 3000)
	const victim = 1
	shards, loc, quality := haTestShards(t, g, 4)
	cfg := detConfig()

	// Baseline: same shards, no replication, no faults.
	base, err := NewFromShards(shards, loc, Options{NumMachines: 4, ProcsPerMachine: 1}, quality)
	if err != nil {
		t.Fatal(err)
	}
	qs := base.EvenQuerySet(6, 13)
	wantScores, errs := streamScores(base, qs, cfg)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	base.Close()

	// Faulted run: machine 1 crashes after its 40th response write — mid
	// stream, while queries from the other machines still need shard 1.
	inj := chaos.New(1234)
	inj.SetPlan(victim, chaos.Plan{KillAfterWrites: 40})
	c, err := NewFromShards(shards, loc, Options{
		NumMachines: 4, ProcsPerMachine: 1, Replicas: 2,
		ProbeInterval:    20 * time.Millisecond,
		ProbeTimeout:     time.Second,
		BreakerThreshold: 2,
		FailoverTimeout:  2 * time.Second,
		Chaos:            inj,
	}, quality)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	gotScores, errs := streamScores(c, qs, cfg)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d failed despite replication: %v", i, err)
		}
	}
	if st := inj.Stats(victim); st.Kills != 1 {
		t.Fatalf("injector kills = %d, want 1 (stream too short to trigger the crash?)", st.Kills)
	}
	assertSameScores(t, wantScores, gotScores)
	if st := c.HAStats(); st.Failovers == 0 {
		t.Fatal("no failovers recorded although the primary died mid-stream")
	}

	// Recovery: revive the machine; probes walk its breaker back to closed
	// on every peer's tracker.
	inj.Revive(victim)
	deadline := time.Now().Add(10 * time.Second)
	for {
		closed := true
		for m := 0; m < 4; m++ {
			if m == victim {
				continue
			}
			if c.Machines[m].Tracker.State("m1") != ha.BreakerClosed {
				closed = false
			}
		}
		if closed {
			break
		}
		if time.Now().After(deadline) {
			for m := 0; m < 4; m++ {
				if m != victim {
					t.Logf("machine %d sees m1 as %v", m, c.Machines[m].Tracker.State("m1"))
				}
			}
			t.Fatal("breakers never closed after revival")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Traffic returns to the revived primary: a routed request from machine 0
	// to shard 1 lands on machine 1's endpoint, with no new failover.
	primary := c.Machines[0].Router.Endpoints(victim)[0]
	if primary.Machine != victim {
		t.Fatalf("endpoint 0 of shard 1 is machine %d, want %d", primary.Machine, victim)
	}
	reqsBefore, _, _ := primary.NetStats()
	failoversBefore := c.Machines[0].Router.Failovers()
	if _, err := c.Storages[0][0].GetShardStats(victim); err != nil {
		t.Fatalf("routed request after recovery failed: %v", err)
	}
	reqsAfter, _, _ := primary.NetStats()
	if reqsAfter <= reqsBefore {
		t.Fatal("recovered primary received no traffic")
	}
	if c.Machines[0].Router.Failovers() != failoversBefore {
		t.Fatal("request after recovery should not fail over")
	}
}

// TestFailoverBlackhole exercises the timeout path: the victim's packets
// vanish instead of erroring, so only the router's attempt timeout detects
// the failure and converts it into a failover.
func TestFailoverBlackhole(t *testing.T) {
	g := testGraph(23, 300, 1800)
	const victim = 2
	shards, loc, quality := haTestShards(t, g, 3)
	inj := chaos.New(99)
	inj.SetPlan(victim, chaos.Plan{Blackhole: true})
	c, err := NewFromShards(shards, loc, Options{
		NumMachines: 3, ProcsPerMachine: 1, Replicas: 2,
		ProbeInterval:    20 * time.Millisecond,
		ProbeTimeout:     200 * time.Millisecond,
		BreakerThreshold: 2,
		FailoverTimeout:  300 * time.Millisecond,
		Chaos:            inj,
	}, quality)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	inj.Kill(victim)
	// A query from machine 0 touching shard 2 must complete: the blackholed
	// attempt times out after FailoverTimeout and the replica serves it.
	qs := c.EvenQuerySet(2, 7)
	res, err := c.RunSSPPRBatch(context.Background(), qs, detConfig(), EngineMap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d queries failed under blackhole: %v", res.Failed, res.Errors[0])
	}
	if st := c.HAStats(); st.Failovers == 0 {
		t.Fatal("no failovers recorded under blackhole")
	}
}

func TestQueryErrorFaultAttribution(t *testing.T) {
	// A peer-attributed error surfaces machine and shard; a plain one does not.
	qe := newQueryError(0, 1, 5, ha.WrapPeer(2, 2, "x:1", context.DeadlineExceeded))
	if qe.FaultMachine != 2 || qe.FaultShard != 2 {
		t.Fatalf("fault = (%d, %d), want (2, 2)", qe.FaultMachine, qe.FaultShard)
	}
	if qe.Error() == "" {
		t.Fatal("empty error string")
	}
	qe = newQueryError(0, 1, 5, context.DeadlineExceeded)
	if qe.FaultMachine != -1 || qe.FaultShard != -1 {
		t.Fatalf("fault = (%d, %d), want (-1, -1) for a local timeout", qe.FaultMachine, qe.FaultShard)
	}
}
