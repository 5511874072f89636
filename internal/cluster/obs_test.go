package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"pprengine/internal/chaos"
	"pprengine/internal/core"
	"pprengine/internal/ha"
	"pprengine/internal/obs"
)

// TestSingleQueryDistributedTrace is the tracing acceptance scenario: on a
// 4-machine cluster with TraceSample=1, one SSPPR query must yield exactly one
// trace whose spans come from at least two machines and cover the query's
// phases (pop, push, remote fetch) plus the remote servers' rpc spans.
func TestSingleQueryDistributedTrace(t *testing.T) {
	g := testGraph(31, 400, 2400)
	c, err := New(g, Options{
		NumMachines: 4, ProcsPerMachine: 1, Seed: 31,
		TraceSample: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	src := c.EvenQuerySet(1, 5)[0][0]
	st := c.Storages[0][0]
	sp, _, err := core.RunSSPPR(context.Background(), st, src, detConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sp == nil {
		t.Fatal("nil result")
	}

	spans := c.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded at TraceSample=1")
	}
	// Find the query's root span and keep only its trace.
	var trace uint64
	for _, s := range spans {
		if s.Name == "query" && s.Parent == 0 {
			if trace != 0 && s.Trace != trace {
				t.Fatalf("multiple root query spans for one query: traces %x and %x", trace, s.Trace)
			}
			trace = s.Trace
		}
	}
	if trace == 0 {
		t.Fatal("no root query span recorded")
	}
	machines := map[int32]bool{}
	names := map[string]int{}
	byID := map[uint64]obs.Span{}
	for _, s := range spans {
		if s.Trace != trace {
			continue
		}
		machines[s.Machine] = true
		names[s.Name]++
		byID[s.ID] = s
	}
	if len(machines) < 2 {
		t.Fatalf("trace spans %d machine(s), want >= 2 (names: %v)", len(machines), names)
	}
	for _, want := range []string{"query", "pop", "push", "remote-fetch"} {
		if names[want] == 0 {
			t.Fatalf("trace has no %q span (names: %v)", want, names)
		}
	}
	rpcSpans := 0
	for name, n := range names {
		if strings.HasPrefix(name, "rpc:") {
			rpcSpans += n
		}
	}
	if rpcSpans == 0 {
		t.Fatalf("trace has no server-side rpc span (names: %v)", names)
	}
	// Every non-root span's parent must be part of the same trace: the
	// cross-machine links were carried by the wire protocol, not guessed.
	for _, s := range byID {
		if s.Parent == 0 {
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			t.Fatalf("span %q (id %x) has parent %x outside its trace", s.Name, s.ID, s.Parent)
		}
	}
	// The summary view used by /debug/traces agrees.
	sums := obs.SummarizeTraces(spans, 0, 10)
	found := false
	for _, ts := range sums {
		if ts.Trace == trace {
			found = true
			if ts.RootName != "query" {
				t.Fatalf("RootName = %q, want query", ts.RootName)
			}
			sumMachines := map[int32]bool{}
			for _, s := range ts.Spans {
				sumMachines[s.Machine] = true
			}
			if len(sumMachines) < 2 {
				t.Fatalf("summary spans %d machines, want >= 2", len(sumMachines))
			}
		}
	}
	if !found {
		t.Fatal("trace missing from SummarizeTraces output")
	}
}

// metricValue extracts the value of the first sample whose name (with or
// without labels) matches, from Prometheus exposition text. Returns -1 when
// the metric is absent.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // a longer metric name sharing the prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		return v
	}
	return -1
}

func adminFetch(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestAdminObservesFailover runs the admin server against a live replicated
// cluster: /metrics exposes nonzero engine counters while queries flow,
// failovers and breaker transitions show up after a machine is killed, and
// /readyz flips not-ready when a whole shard becomes unreachable, then
// recovers after revival.
func TestAdminObservesFailover(t *testing.T) {
	g := testGraph(33, 300, 1800)
	const victimShard = 1
	shards, loc, quality := haTestShards(t, g, 3)
	inj := chaos.New(77)
	c, err := NewFromShards(shards, loc, Options{
		NumMachines: 3, ProcsPerMachine: 1, Replicas: 2,
		ProbeInterval:    20 * time.Millisecond,
		ProbeTimeout:     200 * time.Millisecond,
		BreakerThreshold: 2,
		FailoverTimeout:  300 * time.Millisecond,
		Chaos:            inj,
		TraceSample:      1.0,
	}, quality)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	admin := obs.NewAdmin(nil)
	obs.RegisterEngineMetrics(admin.Registry())
	for _, tr := range c.Tracers {
		admin.AttachTracer(tr)
	}
	// Machine 0's view of the cluster gates readiness: when every serving
	// endpoint of some remote shard has an open breaker, this process cannot
	// answer queries touching that shard.
	admin.AddCheck("breakers", c.Machines[0].Router.ReadyCheck)
	addr, err := admin.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Shutdown(context.Background())
	base := "http://" + addr

	// Bootstrapping: not ready until the server says so.
	if code, body := adminFetch(t, base, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before SetReady: %d %q, want 503", code, body)
	}
	admin.SetReady(true)
	if code, _ := adminFetch(t, base, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after SetReady: %d, want 200", code)
	}

	// Healthy traffic: counters move.
	if res, err := c.RunSSPPRBatch(context.Background(), c.EvenQuerySet(3, 9), detConfig(), EngineMap); err != nil || res.Failed != 0 {
		t.Fatalf("healthy batch: failed=%d err=%v", res.Failed, err)
	}
	code, text := adminFetch(t, base, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, name := range []string{"ppr_wire_requests_total", "ppr_wire_bytes_sent_total", "ppr_probes_sent_total"} {
		if v := metricValue(t, text, name); v <= 0 {
			t.Fatalf("%s = %v after traffic, want > 0", name, v)
		}
	}

	// Kill the victim shard's primary: queries keep succeeding via the
	// replica, and the failover is visible on /metrics.
	primaryHost := c.Placement.Machines(victimShard)[0]
	inj.Kill(primaryHost)
	deadline := time.Now().Add(10 * time.Second)
	for c.Machines[0].Tracker.State(fmt.Sprintf("m%d", primaryHost)) == ha.BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatal("victim's breaker never left closed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if res, err := c.RunSSPPRBatch(context.Background(), c.EvenQuerySet(2, 11), detConfig(), EngineMap); err != nil || res.Failed != 0 {
		t.Fatalf("batch under failover: failed=%d err=%v", res.Failed, err)
	}
	_, text = adminFetch(t, base, "/metrics")
	for _, name := range []string{"ppr_breaker_opens_total", "ppr_probe_failures_total"} {
		if v := metricValue(t, text, name); v <= 0 {
			t.Fatalf("%s = %v after killing machine %d, want > 0", name, v, primaryHost)
		}
	}

	// Kill every remaining host of the shard: machine 0 can no longer reach
	// it anywhere, so /readyz must flip 503 (and name the failing check).
	for _, m := range c.Placement.Machines(victimShard)[1:] {
		inj.Kill(m)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		code, body := adminFetch(t, base, "/readyz")
		if code == http.StatusServiceUnavailable {
			if !strings.Contains(body, "breakers") {
				t.Fatalf("/readyz 503 body %q does not name the check", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped not-ready after the shard went dark")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Revival closes the breakers and readiness recovers.
	for _, m := range c.Placement.Machines(victimShard) {
		inj.Revive(m)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		if code, _ := adminFetch(t, base, "/readyz"); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never recovered after revival")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The traced batches surface on /debug/traces.
	code, body := adminFetch(t, base, "/debug/traces?limit=5")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces: %d", code)
	}
	if !strings.Contains(body, `"root_name": "query"`) {
		t.Fatalf("/debug/traces has no query trace: %s", body)
	}
}
