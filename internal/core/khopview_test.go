package core

import (
	"context"
	"reflect"
	"testing"

	"pprengine/internal/graph"
	"pprengine/internal/partition"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
)

// testSamplingDeployment is testDeployment but keeps the servers, so tests
// can flip the structural sampling zero-copy gate on both ends.
func testSamplingDeployment(t *testing.T, g *graph.Graph, k int) ([]*DistGraphStorage, []*StorageServer, func()) {
	t.Helper()
	assign, err := partition.Partition(g, k, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	shards, loc, err := shard.Build(g, assign, k)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*StorageServer, k)
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		servers[i] = NewStorageServer(shards[i], loc)
		addrs[i], err = servers[i].Start()
		if err != nil {
			t.Fatal(err)
		}
	}
	var allClients []*rpc.Client
	storages := make([]*DistGraphStorage, k)
	for i := 0; i < k; i++ {
		clients := make([]*rpc.Client, k)
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			c, err := rpc.Dial(addrs[j], rpc.LatencyModel{})
			if err != nil {
				t.Fatal(err)
			}
			clients[j] = c
			allClients = append(allClients, c)
		}
		storages[i] = NewDistGraphStorage(int32(i), shards[i], loc, clients)
	}
	cleanup := func() {
		for _, c := range allClients {
			c.Close()
		}
		for _, s := range servers {
			s.Close()
		}
	}
	return storages, servers, cleanup
}

// The arena/view sampling path consumes the rng draw for draw, so toggling
// the structural zero-copy gate — on both the serving and the compute side —
// must not change a single sampled edge.
func TestKHopSampleZeroCopyTogglesEqual(t *testing.T) {
	g := testGraph(34, 400, 2600)
	storages, servers, cleanup := testSamplingDeployment(t, g, 3)
	defer cleanup()
	roots := []int32{0, 1, 2, 3}
	fanouts := []int{5, 4}

	run := func() *KHopResult {
		t.Helper()
		res, err := RunKHopSample(context.Background(), storages[0], roots, fanouts, 77, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run() // zero-copy on: the default
	for _, srv := range servers {
		srv.SetSampleZeroCopy(false)
	}
	for _, st := range storages {
		st.ZeroCopy = false
	}
	if got := run(); !reflect.DeepEqual(want, got) {
		t.Fatalf("legacy pass sampled a different graph: %d/%d nodes, %d/%d edges",
			len(want.Nodes), len(got.Nodes), len(want.EdgeSrc), len(got.EdgeSrc))
	}
	// Mixed gates (legacy server, view client and vice versa) must also agree:
	// the wire format is shared, only the decode strategy differs.
	for _, srv := range servers {
		srv.SetSampleZeroCopy(true)
	}
	if got := run(); !reflect.DeepEqual(want, got) {
		t.Fatal("mixed-gate pass sampled a different graph")
	}
}

// A warm KHopSampler must return exactly what a fresh one does: Run clears
// the dedup index and accumulators, and results own their memory (no aliasing
// into sampler scratch that a later Run would overwrite).
func TestKHopSamplerReuse(t *testing.T) {
	g := testGraph(35, 300, 1800)
	storages, _, cleanup := testSamplingDeployment(t, g, 2)
	defer cleanup()
	s := NewKHopSampler()
	var warm []*KHopResult
	for i := 0; i < 3; i++ {
		res, err := s.Run(context.Background(), storages[0], []int32{0, 1, int32(i)}, []int{4, 4}, 11, nil)
		if err != nil {
			t.Fatal(err)
		}
		warm = append(warm, res)
	}
	for i := 0; i < 3; i++ {
		fresh, err := RunKHopSample(context.Background(), storages[0], []int32{0, 1, int32(i)}, []int{4, 4}, 11, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, warm[i]) {
			t.Fatalf("run %d: warm sampler diverged from fresh (%d vs %d nodes)",
				i, len(warm[i].Nodes), len(fresh.Nodes))
		}
	}
}
