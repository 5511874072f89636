// Package deploy bootstraps real multi-process deployments from files on
// disk: cmd/partition writes shard + locator files, cmd/pprserve turns one
// shard file into a Graph Storage server on a TCP address, and cmd/pprquery
// (or any embedding program) connects a compute process that holds one
// shard locally and reaches the rest over the network — the production
// topology the paper's single-host experiments simulate.
package deploy

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"

	"pprengine/internal/core"
	"pprengine/internal/ha"
	"pprengine/internal/obs"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
	"pprengine/internal/stack"
)

// DefaultDialTimeout bounds peer dials when the caller's context carries no
// deadline of its own.
const DefaultDialTimeout = 30 * time.Second

// dialPeer dials one peer under ctx, applying DefaultDialTimeout when ctx
// has no deadline (so a bare context.Background() can't hang bootstrap
// forever).
func dialPeer(ctx context.Context, addr string, lat rpc.LatencyModel) (*rpc.Client, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultDialTimeout)
		defer cancel()
	}
	return rpc.DialRetryCtx(ctx, addr, lat, rpc.RetryPolicy{})
}

// Serve loads a shard and its locator from disk and serves it on
// listenAddr ("host:port"; ":0" picks a free port). It returns the running
// server and the bound address.
func Serve(shardPath, locatorPath, listenAddr string) (*core.StorageServer, string, error) {
	s, err := shard.LoadFile(shardPath)
	if err != nil {
		return nil, "", fmt.Errorf("deploy: load shard: %w", err)
	}
	loc, err := shard.LoadLocatorFile(locatorPath)
	if err != nil {
		return nil, "", fmt.Errorf("deploy: load locator: %w", err)
	}
	srv := core.NewStorageServer(s, loc)
	lis, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, "", err
	}
	go srv.ServeListener(lis)
	return srv, lis.Addr().String(), nil
}

// dialPeers opens one direct connection per remote shard of a k-shard
// deployment (the local entry stays nil). On failure everything already
// opened is closed.
func dialPeers(ctx context.Context, local, k int32, peers map[int32]string, lat rpc.LatencyModel) ([]*rpc.Client, error) {
	clients := make([]*rpc.Client, k)
	for j := int32(0); j < k; j++ {
		if j == local {
			continue
		}
		addr, ok := peers[j]
		var err error
		if !ok {
			err = fmt.Errorf("deploy: no peer address for shard %d", j)
		} else if clients[j], err = dialPeer(ctx, addr, lat); err != nil {
			err = fmt.Errorf("deploy: dial shard %d at %s: %w", j, addr, err)
		}
		if err != nil {
			for _, c := range clients {
				if c != nil {
					c.Close()
				}
			}
			return nil, err
		}
	}
	return clients, nil
}

// connect assembles this process's one-handle machine (stack.Build) over
// single-address peers, or — when any shard lists replicas — over a replica
// router; the two differ only in what they hand the builder.
func connect(ctx context.Context, s *shard.Shard, loc *shard.Locator, peers map[int32][]string, mcfg stack.Config, tracer *obs.Tracer, haOpts ha.Options, lat rpc.LatencyModel) (*stack.Machine, error) {
	spec := stack.Spec{Local: s, Locator: loc, Tracer: tracer, HA: haOpts, Latency: lat}
	if !Replicated(peers) {
		clients, err := dialPeers(ctx, s.ShardID, s.NumShards, PrimaryPeers(peers), lat)
		if err != nil {
			return nil, err
		}
		spec.Clients = [][]*rpc.Client{clients}
		return stack.Build(mcfg, spec), nil
	}
	spec.Clients = [][]*rpc.Client{make([]*rpc.Client, s.NumShards)}
	spec.Serving = make([][]stack.Peer, s.NumShards)
	for j := int32(0); j < s.NumShards; j++ {
		if j == s.ShardID {
			continue
		}
		if len(peers[j]) == 0 {
			return nil, fmt.Errorf("deploy: no serving address for shard %d", j)
		}
		for i, addr := range peers[j] {
			// The primary of shard j is machine j by the owner-compute
			// convention; replica hosts are only known by address here, and
			// addresses are the health keys.
			machine := -1
			if i == 0 {
				machine = int(j)
			}
			spec.Serving[j] = append(spec.Serving[j], stack.Peer{Machine: machine, Addr: addr})
		}
	}
	m := stack.Build(mcfg, spec)
	for j := int32(0); j < s.NumShards; j++ {
		if j == s.ShardID {
			continue
		}
		// Fail fast only when NO copy of the shard is reachable: a dead
		// primary with a live replica is exactly the situation replication
		// exists for, and must not block bootstrap. Probing adopts whichever
		// endpoints come up later.
		var lastErr error
		for _, ep := range m.Router.Endpoints(j) {
			if _, lastErr = ep.Client(ctx); lastErr == nil {
				break
			}
		}
		if lastErr != nil {
			m.Close()
			return nil, fmt.Errorf("deploy: no serving copy of shard %d reachable (last: %w)", j, lastErr)
		}
	}
	return m, nil
}

// EnableQueries upgrades a running storage server into a query owner: it
// assembles the machine's fetch stack over the given peers (each shard's
// serving addresses, primary first; more than one address anywhere routes
// remote requests through a ReplicaRouter, so served queries survive a peer
// machine's crash) and registers the SSPPR query handler, so thin clients
// can dispatch queries for this shard's core vertices. mcfg configures the
// machine, cfg the served queries' defaults. The machine is returned so the
// serving process can run higher tiers on its handle (the GNN inference
// service) and wire its router's and admission controller's ReadyCheck into
// an admin server; closing it stops probing and closes every connection. ctx
// bounds the peer dials (DefaultDialTimeout applies when it has no deadline).
func EnableQueries(ctx context.Context, srv *core.StorageServer, peers map[int32][]string, mcfg stack.Config, cfg core.Config, haOpts ha.Options, lat rpc.LatencyModel) (*stack.Machine, error) {
	// The owner's compute handle shares the server's tracer (nil when tracing
	// is off), so a served query's driver-side spans land in the same ring
	// buffer as the server's rpc spans.
	m, err := connect(ctx, srv.Shard, srv.Locator, peers, mcfg, srv.Tracer(), haOpts, lat)
	if err != nil {
		return nil, err
	}
	if err := srv.EnableQueryService(m.Handles[0], cfg); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// ConnectThin builds a thin query client: no local shard, just connections
// to every owner's query service plus the locator for routing. ctx bounds
// the dials.
func ConnectThin(ctx context.Context, locatorPath string, addrs map[int32]string, lat rpc.LatencyModel) (*core.QueryClient, func(), error) {
	loc, err := shard.LoadLocatorFile(locatorPath)
	if err != nil {
		return nil, nil, fmt.Errorf("deploy: load locator: %w", err)
	}
	k := loc.NumShards()
	clients := make([]*rpc.Client, k)
	var opened []*rpc.Client
	cleanup := func() {
		for _, c := range opened {
			c.Close()
		}
	}
	for j := 0; j < k; j++ {
		addr, ok := addrs[int32(j)]
		if !ok {
			cleanup()
			return nil, nil, fmt.Errorf("deploy: thin client needs an address for every shard; missing %d", j)
		}
		c, err := rpc.DialCtx(ctx, addr, lat)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		clients[j] = c
		opened = append(opened, c)
	}
	return core.NewQueryClient(clients, loc.Locate), cleanup, nil
}

// ParsePeers parses "1=host:port,2=host:port" into a shard→address map.
func ParsePeers(spec string) (map[int32]string, error) {
	peers := map[int32]string{}
	if strings.TrimSpace(spec) == "" {
		return peers, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("deploy: bad peer %q (want shard=host:port)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, fmt.Errorf("deploy: bad peer shard id %q", kv[0])
		}
		peers[int32(id)] = kv[1]
	}
	return peers, nil
}

// FormatPeers renders a peer map back to the flag syntax (for logs).
func FormatPeers(peers map[int32]string) string {
	ids := make([]int, 0, len(peers))
	for id := range peers {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	parts := make([]string, 0, len(ids))
	for _, id := range ids {
		parts = append(parts, fmt.Sprintf("%d=%s", id, peers[int32(id)]))
	}
	return strings.Join(parts, ",")
}

// Connect builds a compute process's machine: the local shard is loaded from
// disk (shared memory in a real deployment), every other shard is reached
// through its serving addresses (see EnableQueries), and mcfg's stages sit in
// front. Closing the machine closes every connection. ctx bounds the peer
// dials (DefaultDialTimeout applies when it has no deadline).
func Connect(ctx context.Context, shardPath, locatorPath string, peers map[int32][]string, mcfg stack.Config, haOpts ha.Options, lat rpc.LatencyModel) (*stack.Machine, error) {
	s, err := shard.LoadFile(shardPath)
	if err != nil {
		return nil, fmt.Errorf("deploy: load shard: %w", err)
	}
	loc, err := shard.LoadLocatorFile(locatorPath)
	if err != nil {
		return nil, fmt.Errorf("deploy: load locator: %w", err)
	}
	return connect(ctx, s, loc, peers, mcfg, haOpts.Tracer, haOpts, lat)
}
