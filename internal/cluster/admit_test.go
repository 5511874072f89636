package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pprengine/internal/admit"
	"pprengine/internal/chaos"
	"pprengine/internal/core"
)

// TestHedgeSlowReplicaDeterministic is the tail-latency acceptance scenario:
// machine 1 is slow but alive (every socket IO delayed well under the probe
// timeout, so breakers stay closed and failover never engages), hedged
// fetches race the replica after a short delay, and the hedge must win at
// least once — with scores bitwise-identical to an unhedged baseline on the
// same shards, and with wins counted as hedge wins, not failovers.
func TestHedgeSlowReplicaDeterministic(t *testing.T) {
	g := testGraph(31, 400, 2400)
	const victim = 1
	shards, loc, quality := haTestShards(t, g, 4)
	cfg := detConfig()

	// Baseline: same shards, no replication, no faults, no hedging.
	base, err := NewFromShards(shards, loc, Options{NumMachines: 4, ProcsPerMachine: 1}, quality)
	if err != nil {
		t.Fatal(err)
	}
	qs := base.EvenQuerySet(6, 17)
	wantScores, errs := streamScores(base, qs, cfg)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	base.Close()

	inj := chaos.New(555)
	inj.SetPlan(victim, chaos.Plan{Delay: 2 * time.Millisecond})
	c, err := NewFromShards(shards, loc, Options{
		NumMachines: 4, ProcsPerMachine: 1, Replicas: 2,
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  time.Second,
		Chaos:         inj,
		Hedge:         true,
		HedgeDelay:    500 * time.Microsecond,
	}, quality)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for m := 0; m < 4; m++ {
		if c.Machines[m].Hedger == nil {
			t.Fatalf("machine %d has no hedger although Hedge was requested", m)
		}
	}

	gotScores, errs := streamScores(c, qs, cfg)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d failed under a slow replica: %v", i, err)
		}
	}
	assertSameScores(t, wantScores, gotScores)

	hs := c.HedgeStats()
	if hs.Hedges == 0 {
		t.Fatal("no hedges launched although machine 1 delays every IO past the hedge delay")
	}
	if hs.Wins == 0 {
		t.Fatalf("no hedge wins out of %d hedges against a 2ms-per-IO victim", hs.Hedges)
	}
	// Satellite invariant: a hedge win is NOT a failover. The victim never
	// failed a request — it was merely slow — so ha's failover count must
	// stay untouched.
	if st := c.HAStats(); st.Failovers != 0 {
		t.Fatalf("Failovers = %d in a slow-but-alive scenario; hedge wins must not inflate failover stats", st.Failovers)
	}
}

// TestAdmissionShedsAtClusterLevel drives one machine's compute handle far
// past its admission cap from concurrent goroutines: the cap plus a short
// queue admit a few queries, everything else is shed with a typed error in
// well under the deadline, and the cluster-level snapshot accounts for every
// outcome.
func TestAdmissionShedsAtClusterLevel(t *testing.T) {
	g := testGraph(32, 400, 2400)
	shards, loc, quality := haTestShards(t, g, 2)
	c, err := NewFromShards(shards, loc, Options{
		NumMachines: 2, ProcsPerMachine: 4,
		AdmitMaxInFlight: 1,
		AdmitMaxQueue:    1,
		AdmitTenantRate:  64,
	}, quality)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for m := 0; m < 2; m++ {
		if c.Machines[m].Admit == nil {
			t.Fatalf("machine %d has no admission controller", m)
		}
	}

	cfg := core.DefaultConfig()
	cfg.Tenant = "itest"
	const lanes = 8
	const perLane = 4
	qs := c.EvenQuerySet(1, 9)
	var completed, shed atomic.Int64
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			m := lane % 2
			st := c.Storages[m][lane%4]
			for i := 0; i < perLane; i++ {
				_, _, err := core.RunSSPPR(context.Background(), st, qs[m][0], cfg, nil)
				switch {
				case err == nil:
					completed.Add(1)
				case errors.Is(err, admit.ErrShed):
					var se *admit.ShedError
					if !errors.As(err, &se) {
						t.Errorf("shed error lost its type: %v", err)
						return
					}
					if se.Tenant != "itest" {
						t.Errorf("shed tenant = %q, want itest", se.Tenant)
					}
					shed.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(lane)
	}
	wg.Wait()

	if completed.Load() == 0 {
		t.Fatal("no queries completed")
	}
	if shed.Load() == 0 {
		t.Fatalf("no sheds although %d lanes contend for cap 1 + queue 1 per machine", lanes)
	}
	snap := c.AdmitStats()
	if snap.Admitted != completed.Load() {
		t.Fatalf("snapshot admitted = %d, completed = %d", snap.Admitted, completed.Load())
	}
	if snap.Shed() != shed.Load() {
		t.Fatalf("snapshot shed = %d, observed = %d", snap.Shed(), shed.Load())
	}
	if len(snap.Tenants) == 0 {
		t.Fatal("snapshot lists no tenants after a tenant-tagged batch")
	}
}
