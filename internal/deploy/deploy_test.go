package deploy

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pprengine/internal/core"
	"pprengine/internal/graph"
	"pprengine/internal/ha"
	"pprengine/internal/partition"
	"pprengine/internal/ppr"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
	"pprengine/internal/stack"
)

// writeDeployment partitions a graph and writes shard + locator files.
func writeDeployment(t *testing.T, g *graph.Graph, k int) (dir string) {
	t.Helper()
	dir = t.TempDir()
	a, err := partition.Partition(g, k, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	shards, loc, err := shard.Build(g, a, k)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range shards {
		if err := s.SaveFile(filepath.Join(dir, fmt.Sprintf("shard-%d.bin", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := loc.SaveFile(filepath.Join(dir, "locator.bin")); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestLocatorRoundTrip(t *testing.T) {
	g := graph.MakeUndirected(graph.ErdosRenyi(200, 1000, 3))
	a, _ := partition.Partition(g, 3, partition.Options{Seed: 2})
	_, loc, err := shard.Build(g, a, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/loc.bin"
	if err := loc.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := shard.LoadLocatorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumShards() != 3 {
		t.Fatal("shards")
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes; v++ {
		s1, l1 := loc.Locate(v)
		s2, l2 := got.Locate(v)
		if s1 != s2 || l1 != l2 {
			t.Fatalf("node %d: (%d,%d) vs (%d,%d)", v, s1, l1, s2, l2)
		}
		if got.Global(s2, l2) != v {
			t.Fatalf("global round trip broken at %d", v)
		}
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("1=127.0.0.1:7001, 2=127.0.0.1:7002")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[1] != "127.0.0.1:7001" || peers[2] != "127.0.0.1:7002" {
		t.Fatalf("%v", peers)
	}
	if FormatPeers(peers) != "1=127.0.0.1:7001,2=127.0.0.1:7002" {
		t.Fatalf("format: %s", FormatPeers(peers))
	}
	if _, err := ParsePeers("nonsense"); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := ParsePeers("x=1:2"); err == nil {
		t.Fatal("expected id error")
	}
	empty, err := ParsePeers("  ")
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty spec: %v %v", empty, err)
	}
}

// TestFileBasedDeploymentEndToEnd is the integration test for the
// cmd/pprserve + cmd/pprquery path: shards and locator written to disk,
// servers bootstrapped from files on real TCP ports, a compute process
// connected from files + peer addresses, and query results checked against
// the single-machine ground truth.
func TestFileBasedDeploymentEndToEnd(t *testing.T) {
	g := graph.MakeUndirected(graph.RMAT(graph.RMATConfig{
		NumNodes: 300, NumEdges: 1800, A: 0.55, B: 0.2, C: 0.15, Seed: 8,
	}))
	const k = 3
	dir := writeDeployment(t, g, k)
	locPath := filepath.Join(dir, "locator.bin")

	// Start servers for shards 1 and 2 (shard 0 is "this machine").
	peers := map[int32][]string{}
	for i := 1; i < k; i++ {
		srv, addr, err := Serve(filepath.Join(dir, fmt.Sprintf("shard-%d.bin", i)), locPath, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		peers[int32(i)] = []string{addr}
	}

	machine, err := Connect(context.Background(), filepath.Join(dir, "shard-0.bin"), locPath, peers, stack.Config{}, ha.Options{}, rpc.LatencyModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer machine.Close()
	st := machine.Handles[0]

	src := st.Locator.Global(0, 4)
	m, stats, err := core.RunSSPPR(context.Background(), st, 4, core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RemoteRows == 0 {
		t.Fatal("expected remote traffic through real deployment")
	}
	scores := core.ScoresGlobal(st, m)
	exact, _ := ppr.PowerIteration(g, src, 0.462, 1e-12, 100000)
	l1 := 0.0
	for v, ev := range exact {
		l1 += math.Abs(scores[int32(v)] - ev)
	}
	var sumDW float64
	for _, d := range g.WeightedDegree {
		sumDW += float64(d)
	}
	if l1 > 1e-6*sumDW {
		t.Fatalf("deployment results off: L1 %v", l1)
	}
}

func TestConnectMissingPeer(t *testing.T) {
	g := graph.MakeUndirected(graph.ErdosRenyi(100, 500, 4))
	dir := writeDeployment(t, g, 2)
	_, err := Connect(context.Background(), filepath.Join(dir, "shard-0.bin"), filepath.Join(dir, "locator.bin"),
		map[int32][]string{}, stack.Config{}, ha.Options{}, rpc.LatencyModel{})
	if err == nil {
		t.Fatal("expected missing-peer error")
	}
}

func TestServeBadFiles(t *testing.T) {
	if _, _, err := Serve("/nonexistent/shard.bin", "/nonexistent/loc.bin", ":0"); err == nil {
		t.Fatal("expected error")
	}
}

func TestLocatorDecodeGarbage(t *testing.T) {
	path := t.TempDir() + "/bad.bin"
	if err := writeFile(path, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.LoadLocatorFile(path); err == nil {
		t.Fatal("expected decode error")
	}
}

func writeFile(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}

func TestParseReplicaPeers(t *testing.T) {
	peers, err := ParseReplicaPeers("1=127.0.0.1:7001|127.0.0.1:7101, 2=127.0.0.1:7002")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || len(peers[1]) != 2 || peers[1][1] != "127.0.0.1:7101" || len(peers[2]) != 1 {
		t.Fatalf("%v", peers)
	}
	if got := FormatReplicaPeers(peers); got != "1=127.0.0.1:7001|127.0.0.1:7101,2=127.0.0.1:7002" {
		t.Fatalf("format: %s", got)
	}
	if !Replicated(peers) {
		t.Fatal("Replicated = false with a two-address shard")
	}
	prim := PrimaryPeers(peers)
	if prim[1] != "127.0.0.1:7001" || prim[2] != "127.0.0.1:7002" {
		t.Fatalf("primaries: %v", prim)
	}
	// Plain ParsePeers syntax parses unchanged and reports non-replicated.
	single, err := ParseReplicaPeers("1=a:1,2=b:2")
	if err != nil || Replicated(single) {
		t.Fatalf("single-copy spec: %v %v", single, err)
	}
	if _, err := ParseReplicaPeers("1=a:1|"); err == nil {
		t.Fatal("expected empty-address error")
	}
	if _, err := ParseReplicaPeers("x=a:1"); err == nil {
		t.Fatal("expected id error")
	}
}

func TestValidateReplicas(t *testing.T) {
	peers := map[int32][]string{1: {"a:1", "b:1"}, 2: {"c:1"}}
	if err := ValidateReplicas(peers, 0); err != nil {
		t.Fatal(err)
	}
	if err := ValidateReplicas(peers, 2); err == nil {
		t.Fatal("shard 2 has one address; want error at R=2")
	}
	peers[2] = append(peers[2], "d:1")
	if err := ValidateReplicas(peers, 2); err != nil {
		t.Fatal(err)
	}
}

func TestPlanReplicas(t *testing.T) {
	// Four shards with skewed weights: every shard's primary is itself, each
	// extra copy goes to the least-loaded other machine, copies per shard are
	// distinct, and the plan validates.
	pl, err := PlanReplicas([]int64{100, 10, 10, 10}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(4); err != nil {
		t.Fatal(err)
	}
	if pl.Replicas() != 2 {
		t.Fatalf("replicas = %d", pl.Replicas())
	}
	for s := 0; s < 4; s++ {
		machines := pl.Machines(s)
		if machines[0] != s {
			t.Fatalf("shard %d primary = %d, want itself", s, machines[0])
		}
		seen := map[int]bool{}
		for _, m := range machines {
			if seen[m] {
				t.Fatalf("shard %d served twice by machine %d", s, m)
			}
			seen[m] = true
		}
	}
	// The heavy shard 0's replica should not land every light shard's replica
	// onto one machine: counting hosted replicas, no machine hosts more than
	// two at R=2 with four shards (greedy least-loaded).
	for m := 0; m < 4; m++ {
		if n := len(pl.HostedReplicas(m)); n > 2 {
			t.Fatalf("machine %d hosts %d replicas", m, n)
		}
	}
	if _, err := PlanReplicas([]int64{1, 2}, 3); err == nil {
		t.Fatal("R > machines must fail")
	}
}

// TestConnectReplicatedFailover is the file-based deployment's failover test: two
// pprserve processes serve shard 1 (primary + replica); killing the primary
// mid-session leaves queries running against the replica.
func TestConnectReplicatedFailover(t *testing.T) {
	g := graph.MakeUndirected(graph.RMAT(graph.RMATConfig{
		NumNodes: 300, NumEdges: 1800, A: 0.55, B: 0.2, C: 0.15, Seed: 9,
	}))
	const k = 2
	dir := writeDeployment(t, g, k)
	locPath := filepath.Join(dir, "locator.bin")

	primary, primAddr, err := Serve(filepath.Join(dir, "shard-1.bin"), locPath, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replica, replAddr, err := Serve(filepath.Join(dir, "shard-1.bin"), locPath, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	peers := map[int32][]string{1: {primAddr, replAddr}}
	// Pin float order so the only variable between the two runs is the
	// serving endpoint; replicas serve identical bytes, so scores must match.
	cfg := core.DefaultConfig()
	cfg.DeterministicPop = true
	machine, err := Connect(context.Background(), filepath.Join(dir, "shard-0.bin"), locPath, peers, stack.Config{},
		ha.Options{ProbeInterval: 20 * time.Millisecond, ProbeTimeout: time.Second, BreakerThreshold: 2, AttemptTimeout: 2 * time.Second},
		rpc.LatencyModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer machine.Close()
	st, router := machine.Handles[0], machine.Router

	run := func() (map[int32]float64, error) {
		m, _, err := core.RunSSPPR(context.Background(), st, 0, cfg, nil)
		if err != nil {
			return nil, err
		}
		return core.ScoresGlobal(st, m), nil
	}
	before, err := run()
	if err != nil {
		t.Fatal(err)
	}
	primary.Close() // the primary machine "crashes"
	after, err := run()
	if err != nil {
		t.Fatalf("query after primary crash: %v", err)
	}
	if len(before) != len(after) {
		t.Fatalf("score sets differ: %d vs %d nodes", len(before), len(after))
	}
	for v, s := range before {
		if math.Abs(after[v]-s) > 1e-12 {
			t.Fatalf("node %d: %g vs %g after failover", v, s, after[v])
		}
	}
	if router.Failovers() == 0 {
		t.Fatal("no failovers recorded after the primary died")
	}
}

// TestGracefulShutdownDrains exercises the pprserve drain path: Shutdown
// completes while an in-flight request finishes, and new requests are
// rejected during the drain.
func TestGracefulShutdownDrains(t *testing.T) {
	g := graph.MakeUndirected(graph.ErdosRenyi(150, 700, 5))
	dir := writeDeployment(t, g, 2)
	srv, addr, err := Serve(filepath.Join(dir, "shard-1.bin"), filepath.Join(dir, "locator.bin"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := rpc.Dial(addr, rpc.LatencyModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.SyncCall(rpc.MethodEcho, []byte("up")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if _, err := c.SyncCall(rpc.MethodEcho, []byte("down")); err == nil {
		t.Fatal("request after shutdown should fail")
	}
}
