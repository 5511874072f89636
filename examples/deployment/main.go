// Embedded multi-process-style deployment: the same file-based bootstrap
// that cmd/pprserve and cmd/pprquery use, driven from one program — write
// shard + locator files, start storage servers with the query service, and
// run thin-client queries routed to each source's owner machine.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"pprengine/internal/core"
	"pprengine/internal/deploy"
	"pprengine/internal/graph"
	"pprengine/internal/ha"
	"pprengine/internal/partition"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
	"pprengine/internal/stack"
)

func main() {
	dir, err := os.MkdirTemp("", "pprengine-deploy")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Preprocess: generate, partition, write shard + locator files
	// (what cmd/gengraph + cmd/partition do).
	g := graph.MakeUndirected(graph.RMAT(graph.RMATConfig{
		NumNodes: 3000, NumEdges: 20000, A: 0.55, B: 0.2, C: 0.15, Seed: 8,
	}))
	const k = 3
	assign, err := partition.Partition(g, k, partition.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	shards, loc, err := shard.Build(g, assign, k)
	if err != nil {
		log.Fatal(err)
	}
	locPath := filepath.Join(dir, "locator.bin")
	if err := loc.SaveFile(locPath); err != nil {
		log.Fatal(err)
	}
	for i, s := range shards {
		if err := s.SaveFile(filepath.Join(dir, fmt.Sprintf("shard-%d.bin", i))); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("preprocessed: %d nodes into %d shards (cut %.1f%%)\n",
		g.NumNodes, k, partition.Evaluate(g, assign).CutRatio*100)

	// Start one storage server per "machine" (what cmd/pprserve does).
	owners := map[int32]string{}
	peers := map[int32][]string{}
	var servers []*core.StorageServer
	for i := 0; i < k; i++ {
		srv, addr, err := deploy.Serve(filepath.Join(dir, fmt.Sprintf("shard-%d.bin", i)), locPath, "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		servers = append(servers, srv)
		owners[int32(i)] = addr
		peers[int32(i)] = []string{addr}
	}
	// Enable the owner-compute query service on each.
	for _, srv := range servers {
		machine, err := deploy.EnableQueries(context.Background(), srv, peers, stack.Config{}, core.DefaultConfig(), ha.Options{}, rpc.LatencyModel{})
		if err != nil {
			log.Fatal(err)
		}
		defer machine.Close()
	}
	fmt.Printf("serving: %v\n", deploy.FormatPeers(owners))

	// Thin client (what cmd/pprquery -owners does): no local shard, queries
	// routed to each source's owner.
	qc, cleanup, err := deploy.ConnectThin(context.Background(), locPath, owners, rpc.LatencyModel{})
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()
	for _, src := range []graph.NodeID{0, graph.NodeID(g.NumNodes / 2), graph.NodeID(g.NumNodes - 1)} {
		resp, err := qc.Query(context.Background(), src, 3, 0, 0)
		if err != nil {
			log.Fatal(err)
		}
		sh, _ := loc.Locate(src)
		fmt.Printf("node %4d (owner shard %d): %d pushes, top-3:", src, sh, resp.Pushes)
		for i := range resp.Globals {
			fmt.Printf(" %d=%.4f", resp.Globals[i], resp.Scores[i])
		}
		fmt.Println()
	}
	// Server-side observability.
	st := servers[0].RPCStats()
	fmt.Printf("shard-0 server: %d queries served, %d bytes out\n",
		st.Requests[rpc.MethodSSPPRQuery], st.BytesOut)
}
