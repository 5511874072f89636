// Package cluster simulates the paper's experimental setup (§4.1): a
// K-machine deployment built on one host, where each simulated machine owns
// one graph shard served by a Graph Storage server, and runs P compute
// processes that access the local shard through shared memory and remote
// shards through RPC. The paper spawns K×(P+1) OS processes; here machines
// are goroutine groups and the storage servers listen on loopback TCP.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"pprengine/internal/admit"
	"pprengine/internal/agg"
	"pprengine/internal/baseline"
	"pprengine/internal/cache"
	"pprengine/internal/chaos"
	"pprengine/internal/core"
	"pprengine/internal/delta"
	"pprengine/internal/graph"
	"pprengine/internal/ha"
	"pprengine/internal/metrics"
	"pprengine/internal/obs"
	"pprengine/internal/partition"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
	"pprengine/internal/stack"
)

// PartitionKind selects the partitioning algorithm used at preprocessing.
type PartitionKind int

const (
	// PartitionMinCut is the METIS-style multilevel min-cut partitioner
	// (the paper's choice).
	PartitionMinCut PartitionKind = iota
	// PartitionHash assigns node v to shard v % K (locality-free baseline).
	PartitionHash
	// PartitionLDG is the streaming linear-deterministic-greedy baseline.
	PartitionLDG
)

// Options configures cluster construction.
type Options struct {
	NumMachines     int
	ProcsPerMachine int
	Partitioner     PartitionKind
	// Latency optionally models a network link on remote calls.
	Latency rpc.LatencyModel
	// CacheHaloRows enables the higher-hop halo cache (paper §3.2.1):
	// each shard also stores the neighbor rows of its 1-hop halo nodes,
	// trading memory for less RPC traffic.
	CacheHaloRows bool
	// The per-machine stack knobs, handed to every machine's stack.Build as
	// its stack.Config (which documents each): the neighbor-row cache budget,
	// the aggregator window and row cap, view decoding of merged flushes, and
	// the feature-row cache budget and admission threshold.
	CacheBytes     int64
	AggWindow      time.Duration
	AggRows        int
	ZeroCopy       bool
	FeatCacheBytes int64
	FeatAdmitMass  float64
	Seed           int64

	// Replicas, when >= 2, serves every shard from that many machines
	// (internal/ha): shard s stays primaried on machine s, and its extra
	// copies are placed on the least-loaded machines. Every compute process
	// then routes remote fetches through a per-machine ReplicaRouter that
	// fails over to a healthy replica when the primary errors, times out, or
	// has an open circuit breaker. 0 or 1 (the default) disables replication.
	Replicas int
	// ProbeInterval / ProbeTimeout configure the per-machine health pings
	// driving the breakers (defaults: 500ms / 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// BreakerThreshold opens a peer's breaker after this many consecutive
	// failures (default ha.DefaultBreakerThreshold).
	BreakerThreshold int
	// FailoverTimeout bounds each routed request attempt, converting a
	// blackholed peer into a failover instead of a hang (default 5s).
	FailoverTimeout time.Duration
	// Chaos, when non-nil, wraps every storage listener (primaries and
	// replicas) in the fault injector, so tests and the failover experiment
	// can kill, blackhole, drop, or delay individual machines.
	Chaos *chaos.Injector

	// More of stack.Config: admission control (0 in-flight = off) and hedged
	// remote requests (ignored when Replicas < 2).
	AdmitMaxInFlight int
	AdmitMaxQueue    int
	AdmitTenantRate  float64
	AdmitTenantBurst float64
	Hedge            bool
	HedgeDelay       time.Duration

	// Mutable gives every machine a delta-CSR mutation store (internal/delta)
	// shared by its primary server, hosted replica servers, and compute
	// processes, plus one cluster-wide mutation coordinator (on machine 0):
	// the cluster then accepts streaming graph mutations via Mutate, queries
	// pin a mutation epoch at admission, and reads resolve base CSR + deltas
	// as of that epoch. Off (the default), the engine is byte-for-byte the
	// static paper system.
	Mutable bool
	// CompactInterval, when > 0 (requires Mutable), runs each machine's
	// background compactor at that period: deltas at or below the oldest
	// pinned epoch are folded into fresh base CSRs and the epochs retired.
	// 0 leaves compaction to the MaxEpochs overflow trigger (or manual
	// Store.Compact calls).
	CompactInterval time.Duration
	// MaxEpochs caps each store's live (uncompacted) epochs; an Apply pushing
	// past it triggers a compaction. 0 = unbounded. Requires Mutable.
	MaxEpochs int

	// TraceSample, when > 0, gives every machine an obs.Tracer sampling
	// roughly that fraction of queries head-based (1.0 = every query). A
	// sampled query's trace context rides the wire, so one query yields one
	// trace spanning every machine it touched. TraceBuf caps each machine's
	// span ring buffer (0 = obs.DefaultRingSize).
	TraceSample float64
	TraceBuf    int
}

// haEnabled reports whether the options ask for shard replication.
func (o Options) haEnabled() bool { return o.Replicas >= 2 }

// machineConfig is the per-machine stack configuration the options describe.
func (o Options) machineConfig() stack.Config {
	return stack.Config{
		CacheBytes: o.CacheBytes, AggWindow: o.AggWindow, AggRows: o.AggRows, ZeroCopy: o.ZeroCopy,
		FeatCacheBytes: o.FeatCacheBytes, FeatAdmitMass: o.FeatAdmitMass,
		AdmitMaxInFlight: o.AdmitMaxInFlight, AdmitMaxQueue: o.AdmitMaxQueue,
		AdmitTenantRate: o.AdmitTenantRate, AdmitTenantBurst: o.AdmitTenantBurst,
		Hedge: o.Hedge, HedgeDelay: o.HedgeDelay,
	}
}

// Cluster is a running simulated deployment.
type Cluster struct {
	Opts     Options
	Shards   []*shard.Shard
	Locator  *shard.Locator
	Servers  []*core.StorageServer
	Addrs    []string
	Quality  partition.Quality
	Storages [][]*core.DistGraphStorage // [machine][proc]
	// Machines[m] is machine m's assembled fetch stack (stack.Build): the
	// caches, aggregators, replica router, hedger and admission controller
	// its compute processes Storages[m] share, nil where Opts left a stage
	// out.
	Machines []*stack.Machine

	// Replication state (all nil/empty when Opts.Replicas < 2). Servers and
	// Addrs above keep their per-shard primary meaning; the extra serving
	// processes live here.
	Placement ha.Placement
	// ReplicaServers[m] lists the StorageServers machine m runs for shards
	// it replicates (in Placement.HostedReplicas(m) order).
	ReplicaServers [][]*core.StorageServer

	// Deltas[m] is machine m's delta-CSR mutation store (nil entries unless
	// Opts.Mutable), shared by its primary server, hosted replica servers,
	// and compute processes — machine-level shared state like the shard.
	// Coord is the cluster's single mutation coordinator, wired over machine
	// 0's store with RPC appliers to every machine.
	Deltas []*delta.Store
	Coord  *delta.Coordinator

	// Tracers[m] is machine m's span recorder (nil entries when
	// Opts.TraceSample is 0). Shared by the machine's storage server(s),
	// compute processes, aggregators, and router — exactly the sharing a real
	// machine's processes would get from a node-local trace agent.
	Tracers []*obs.Tracer

	mirrors      []*rpc.Client // the coordinator's clients, for Close and NetStats
	compactStops []func()      // background compactor stops, for Close
	mu           sync.Mutex
}

// New partitions g, builds shards, starts one storage server per machine,
// and connects ProcsPerMachine compute handles on every machine.
func New(g *graph.Graph, opts Options) (*Cluster, error) {
	if opts.NumMachines <= 0 {
		return nil, fmt.Errorf("cluster: NumMachines must be positive")
	}
	if opts.ProcsPerMachine <= 0 {
		opts.ProcsPerMachine = 1
	}
	var assign partition.Assignment
	var err error
	switch opts.Partitioner {
	case PartitionHash:
		assign = partition.HashPartition(g.NumNodes, opts.NumMachines)
	case PartitionLDG:
		assign = partition.LDGPartition(g, opts.NumMachines, 0.05)
	default:
		assign, err = partition.Partition(g, opts.NumMachines, partition.Options{Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
	}
	shards, loc, err := shard.BuildWithOptions(g, assign, opts.NumMachines,
		shard.BuildOptions{CacheHaloRows: opts.CacheHaloRows})
	if err != nil {
		return nil, err
	}
	return NewFromShards(shards, loc, opts, partition.Evaluate(g, assign))
}

// NewFromShards assembles a cluster from prebuilt shards (callers that cache
// partition assignments use this to skip repartitioning).
func NewFromShards(shards []*shard.Shard, loc *shard.Locator, opts Options, quality partition.Quality) (*Cluster, error) {
	if opts.NumMachines != len(shards) {
		return nil, fmt.Errorf("cluster: %d machines but %d shards", opts.NumMachines, len(shards))
	}
	if opts.ProcsPerMachine <= 0 {
		opts.ProcsPerMachine = 1
	}
	c := &Cluster{
		Opts:    opts,
		Shards:  shards,
		Locator: loc,
		Quality: quality,
	}
	// One tracer per machine when tracing is on, created before any serving
	// process so primaries, replicas, and compute handles all share it.
	c.Tracers = make([]*obs.Tracer, opts.NumMachines)
	if opts.TraceSample > 0 {
		for m := 0; m < opts.NumMachines; m++ {
			c.Tracers[m] = obs.NewTracer(int32(m), opts.TraceSample, opts.TraceBuf)
		}
	}
	// Start the primary storage servers: shard m served by machine m, the
	// paper's layout. With chaos on, each listener is wrapped so the injector
	// can fail the machine.
	for m := 0; m < opts.NumMachines; m++ {
		srv := core.NewStorageServer(shards[m], loc)
		if c.Tracers[m] != nil {
			srv.AttachTracer(c.Tracers[m])
		}
		addr, err := startServer(srv, m, opts.Chaos)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Servers = append(c.Servers, srv)
		c.Addrs = append(c.Addrs, addr)
	}
	// servingAddrs[s][i] is the address of shard s's i-th serving machine
	// (index 0 = the primary). Without replication each shard has exactly its
	// primary.
	servingAddrs := make([][]string, opts.NumMachines)
	for s, a := range c.Addrs {
		servingAddrs[s] = []string{a}
	}
	if opts.haEnabled() {
		if err := c.startReplicas(servingAddrs); err != nil {
			c.Close()
			return nil, err
		}
	}
	if opts.Mutable {
		// One delta store per machine, built AFTER replica placement so it
		// bases every shard the machine serves (own + hosted replicas): one
		// ApplyMutations delivery per machine then keeps primary and replica
		// rows in lockstep, which is what makes failover score-identical.
		c.Deltas = make([]*delta.Store, opts.NumMachines)
		for m := 0; m < opts.NumMachines; m++ {
			bases := map[int32]*shard.Shard{int32(m): shards[m]}
			if opts.haEnabled() {
				for _, s := range c.Placement.HostedReplicas(m) {
					bases[int32(s)] = shards[s]
				}
			}
			st := delta.NewStore(loc, bases)
			if opts.MaxEpochs > 0 {
				st.SetMaxEpochs(opts.MaxEpochs)
			}
			c.Deltas[m] = st
			c.Servers[m].AttachDelta(st)
			if opts.haEnabled() {
				for _, rs := range c.ReplicaServers[m] {
					rs.AttachDelta(st)
				}
			}
			if opts.CompactInterval > 0 {
				c.compactStops = append(c.compactStops, st.StartCompactor(opts.CompactInterval))
			}
		}
	}
	// Connect compute processes: every process owns clients to all remote
	// machines (the paper registers each process in the RPC group), and the
	// machine's stack is assembled over them.
	c.Storages = make([][]*core.DistGraphStorage, opts.NumMachines)
	c.Machines = make([]*stack.Machine, opts.NumMachines)
	for m := 0; m < opts.NumMachines; m++ {
		spec := stack.Spec{
			Local: shards[m], Locator: loc, Tracer: c.Tracers[m], Latency: opts.Latency,
			Clients: make([][]*rpc.Client, opts.ProcsPerMachine),
		}
		if c.Deltas != nil {
			spec.Delta = c.Deltas[m]
		}
		if opts.haEnabled() {
			// Endpoints are keyed by hosting machine, so one dead machine
			// opens one breaker covering all shards it serves.
			spec.HA = ha.Options{
				ProbeInterval: opts.ProbeInterval, ProbeTimeout: opts.ProbeTimeout,
				BreakerThreshold: opts.BreakerThreshold, AttemptTimeout: opts.FailoverTimeout,
			}
			spec.Serving = make([][]stack.Peer, opts.NumMachines)
			for s := range spec.Serving {
				for i, host := range c.Placement.Machines(s) {
					spec.Serving[s] = append(spec.Serving[s], stack.Peer{Machine: host, Addr: servingAddrs[s][i], Key: fmt.Sprintf("m%d", host)})
				}
			}
		}
		var dialErr error
		for p := range spec.Clients {
			spec.Clients[p] = make([]*rpc.Client, opts.NumMachines)
			for j := 0; j < opts.NumMachines && dialErr == nil; j++ {
				if j != m {
					spec.Clients[p][j], dialErr = rpc.Dial(c.Addrs[j], opts.Latency)
				}
			}
		}
		c.Machines[m] = stack.Build(opts.machineConfig(), spec)
		c.Storages[m] = c.Machines[m].Handles
		if dialErr != nil {
			c.Close()
			return nil, dialErr
		}
	}
	if opts.Mutable {
		if err := c.buildCoordinator(); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// buildCoordinator wires the cluster's single mutation coordinator over
// machine 0's delta store, with dedicated RPC clients to every machine's
// primary endpoint. Machine 0's own applier loops back over RPC; its store
// dedups the batch by epoch, so the delivery path is exercised uniformly.
func (c *Cluster) buildCoordinator() error {
	for _, addr := range c.Addrs {
		cl, err := rpc.Dial(addr, c.Opts.Latency)
		if err != nil {
			return err
		}
		c.mirrors = append(c.mirrors, cl)
	}
	c.Coord = stack.NewCoordinator(c.Deltas[0], c.mirrors)
	return nil
}

// Mutate resolves and applies a batch of graph mutations cluster-wide,
// returning the epoch at which they became visible. Requires Opts.Mutable.
func (c *Cluster) Mutate(ctx context.Context, muts []delta.Mutation) (uint64, error) {
	if c.Coord == nil {
		return 0, fmt.Errorf("cluster: not mutable (set Options.Mutable)")
	}
	return c.Coord.Apply(ctx, muts)
}

// DeltaStats returns every machine's delta-store snapshot (nil when the
// cluster is not mutable).
func (c *Cluster) DeltaStats() []delta.Snapshot {
	if c.Deltas == nil {
		return nil
	}
	out := make([]delta.Snapshot, len(c.Deltas))
	for m, st := range c.Deltas {
		out[m] = st.Stats()
	}
	return out
}

// startServer serves srv on a fresh loopback listener — wrapped in the fault
// injector under machine's identity when chaos is on — and returns the
// dialable address.
func startServer(srv *core.StorageServer, machine int, inj *chaos.Injector) (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := lis.Addr().String()
	if inj != nil {
		lis = inj.WrapListener(machine, lis)
	}
	go srv.ServeListener(lis)
	return addr, nil
}

// startReplicas computes the replica placement and starts, on every machine,
// one extra StorageServer per shard it replicates — a separate serving
// process over the SAME immutable shard data, so a failover returns
// bit-identical rows. It extends servingAddrs[s] with the replica addresses
// in placement order.
func (c *Cluster) startReplicas(servingAddrs [][]string) error {
	k := c.Opts.NumMachines
	weights := make([]int64, k)
	for s, sh := range c.Shards {
		weights[s] = int64(sh.NumCore())
	}
	pl, err := ha.PlaceWeighted(weights, c.Opts.Replicas)
	if err != nil {
		return err
	}
	c.Placement = pl
	c.ReplicaServers = make([][]*core.StorageServer, k)
	addrOf := make(map[[2]int]string) // (shard, machine) -> replica address
	for m := 0; m < k; m++ {
		for _, s := range pl.HostedReplicas(m) {
			srv := core.NewStorageServer(c.Shards[s], c.Locator)
			if c.Tracers[m] != nil {
				// A replica's spans carry its HOSTING machine's identity —
				// that is what a failover trace must show.
				srv.AttachTracer(c.Tracers[m])
			}
			addr, err := startServer(srv, m, c.Opts.Chaos)
			if err != nil {
				return err
			}
			c.ReplicaServers[m] = append(c.ReplicaServers[m], srv)
			addrOf[[2]int{s, m}] = addr
		}
	}
	for s := 0; s < k; s++ {
		for _, m := range pl.Machines(s)[1:] {
			servingAddrs[s] = append(servingAddrs[s], addrOf[[2]int{s, m}])
		}
	}
	return nil
}

// Spans gathers every machine's recorded spans into one slice — the
// cluster-wide trace view a collector would assemble from the per-machine
// ring buffers. Empty when tracing is off.
func (c *Cluster) Spans() []obs.Span {
	var out []obs.Span
	for _, tr := range c.Tracers {
		if tr != nil {
			out = append(out, tr.Spans()...)
		}
	}
	return out
}

// NetStats aggregates client-side traffic counters over every compute
// process's RPC clients. The experiment harness diffs snapshots around a
// batch to report bytes-on-wire.
type NetStats struct {
	RequestsSent  int64
	BytesSent     int64
	BytesReceived int64
}

// NetStats returns the cumulative client-side traffic totals, including the
// failover routers' endpoint connections (which carry all remote traffic
// when replication is on).
func (c *Cluster) NetStats() NetStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n NetStats
	add := func(reqs, sent, recv int64) {
		n.RequestsSent += reqs
		n.BytesSent += sent
		n.BytesReceived += recv
	}
	clients := c.mirrors
	for _, m := range c.Machines {
		clients = append(clients[:len(clients):len(clients)], m.Clients()...)
		for _, ep := range m.Endpoints() {
			add(ep.NetStats())
		}
	}
	for _, cl := range clients {
		if cl != nil {
			add(cl.RequestsSent.Load(), cl.BytesSent.Load(), cl.BytesReceived.Load())
		}
	}
	return n
}

// HAStats sums the per-machine failover counters (zero value when
// replication is disabled).
func (c *Cluster) HAStats() ha.Stats {
	var s ha.Stats
	for _, m := range c.Machines {
		s.Add(m.Router.Stats()) // nil-safe
	}
	return s
}

// AdmitStats sums the per-machine admission snapshots (zero value when
// admission control is disabled).
func (c *Cluster) AdmitStats() admit.Snapshot {
	var s admit.Snapshot
	for _, m := range c.Machines {
		s.Add(m.Admit.Snapshot()) // nil-safe
	}
	return s
}

// HedgeStats sums the per-machine hedging counters (zero value when
// hedging is disabled).
func (c *Cluster) HedgeStats() admit.HedgeStats {
	var s admit.HedgeStats
	for _, m := range c.Machines {
		s.Add(m.Hedger.Stats()) // nil-safe
	}
	return s
}

// CacheStats sums the per-machine dynamic-cache counters (zero value when
// the cache is disabled).
func (c *Cluster) CacheStats() cache.Stats {
	var s cache.Stats
	for _, m := range c.Machines {
		s.Add(m.Cache.Stats()) // nil-safe
	}
	return s
}

// FeatCacheStats sums the per-machine feature-cache counters (zero value
// when the feature cache is disabled).
func (c *Cluster) FeatCacheStats() cache.FeatStats {
	var s cache.FeatStats
	for _, m := range c.Machines {
		s.Add(m.FeatCache.Stats()) // nil-safe
	}
	return s
}

// AggStats sums the per-machine neighbor-fetch aggregator counters (zero
// value when aggregation is disabled).
func (c *Cluster) AggStats() agg.Stats {
	var s agg.Stats
	for _, m := range c.Machines {
		for _, a := range m.Aggs {
			s.Add(a.Stats()) // nil-safe
		}
	}
	return s
}

// FeatAggStats sums the per-machine feature-fetch aggregator counters.
func (c *Cluster) FeatAggStats() agg.Stats {
	var s agg.Stats
	for _, m := range c.Machines {
		for _, a := range m.FeatAggs {
			s.Add(a.Stats()) // nil-safe
		}
	}
	return s
}

// Close shuts the deployment down: compactors, then every machine's stack
// (stack.Machine.Close drains what it drew from the frame pool), then the
// replica and primary servers.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, stop := range c.compactStops {
		stop()
	}
	c.compactStops = nil
	for _, cl := range c.mirrors {
		cl.Close()
	}
	for _, m := range c.Machines {
		if m != nil {
			m.Close()
		}
	}
	for _, machine := range c.ReplicaServers {
		for _, s := range machine {
			s.Close()
		}
	}
	c.ReplicaServers = nil
	for _, s := range c.Servers {
		s.Close()
	}
	c.Servers = nil
}

// EvenQuerySet draws per-machine query sources uniformly from each
// machine's core nodes — the paper's "root nodes of a batch are evenly
// distributed across all machines". It returns, per machine, a slice of
// local vertex IDs of length queriesPerMachine.
func (c *Cluster) EvenQuerySet(queriesPerMachine int, seed int64) [][]int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int32, c.Opts.NumMachines)
	for m := range out {
		n := c.Shards[m].NumCore()
		if n == 0 {
			out[m] = nil // a starved shard gets no queries
			continue
		}
		qs := make([]int32, queriesPerMachine)
		for i := range qs {
			qs[i] = int32(rng.Intn(n))
		}
		out[m] = qs
	}
	return out
}

// EngineKind selects which SSPPR implementation a run uses.
type EngineKind int

const (
	// EngineMap is the paper's PPR Engine (hashmap-based operators): the
	// served engine, pop/push over recycled flat probe tables.
	EngineMap EngineKind = iota
	// EngineTensor is the tensor-based baseline.
	EngineTensor
	// EngineStriped is the PPR Engine over the mutex-striped Go maps
	// (internal/baseline): the compute baseline of the hot-path ablations.
	EngineStriped
)

// String names the engine for report rows.
func (k EngineKind) String() string {
	switch k {
	case EngineTensor:
		return "PyTorch Tensor"
	case EngineStriped:
		return "PPR Engine (striped maps)"
	}
	return "PPR Engine"
}

// QueryError records one query's failure inside a batch: which machine and
// compute process ran it, the local source vertex, and the error. Failures
// are isolated — the rest of the batch keeps running. When the failure is
// attributable to a serving peer (transport error, remote handler error),
// FaultMachine/FaultShard identify it; both are -1 for local failures such
// as a query's own deadline expiring.
type QueryError struct {
	Machine int
	Proc    int
	Source  int32
	Err     error
	// FaultMachine is the serving machine that produced the error (-1 when
	// the failure is not a peer fault or the machine is unknown).
	FaultMachine int
	// FaultShard is the destination shard of the failed request (-1 when not
	// a peer fault).
	FaultShard int
}

// newQueryError builds a QueryError, extracting peer attribution from err's
// chain (see ha.PeerError).
func newQueryError(machine, proc int, src int32, err error) QueryError {
	qe := QueryError{Machine: machine, Proc: proc, Source: src, Err: err, FaultMachine: -1, FaultShard: -1}
	if fm, fs, ok := ha.FaultOf(err); ok {
		qe.FaultMachine = fm
		qe.FaultShard = int(fs)
	}
	return qe
}

// Error implements the error interface.
func (e QueryError) Error() string {
	if e.FaultShard >= 0 {
		return fmt.Sprintf("machine %d proc %d source %d (fault: machine %d shard %d): %v",
			e.Machine, e.Proc, e.Source, e.FaultMachine, e.FaultShard, e.Err)
	}
	return fmt.Sprintf("machine %d proc %d source %d: %v", e.Machine, e.Proc, e.Source, e.Err)
}

// Unwrap exposes the underlying error for errors.Is/As.
func (e QueryError) Unwrap() error { return e.Err }

// RunResult aggregates one batch run over the whole cluster.
type RunResult struct {
	Queries    int // queries issued (successful + failed)
	Failed     int // queries that returned an error (see Errors)
	Wall       time.Duration
	Throughput float64 // successful queries per second across all machines
	Breakdown  *metrics.Breakdown
	Pushes     int64
	Iterations int64 // pop rounds, summed over the successful queries
	LocalRows  int64
	RemoteRows int64
	HaloRows   int64 // remote rows served by the halo cache
	// CacheHits counts remote rows served by the dynamic neighbor-row cache;
	// CacheCoalesced counts rows that piggybacked on an in-flight fetch.
	// Both are 0 when Options.CacheBytes is 0.
	CacheHits      int64
	CacheCoalesced int64
	// RPCRequests / RequestBytes roll up the per-query wire accounting
	// (core.QueryStats): requests issued and request payload bytes. With
	// aggregation a shared flush is charged once, to the query that opened
	// it, so the sums still equal the true wire totals.
	RPCRequests  int64
	RequestBytes int64
	Timeouts     int64 // queries aborted by deadline or cancellation
	// Errors lists the per-query failures. A timed-out query lands here
	// with context.DeadlineExceeded in its chain while the rest of the
	// batch completes normally (partial results, not batch abort).
	Errors []QueryError
}

// RemoteFraction returns the fraction of fetched rows served over RPC.
func (r RunResult) RemoteFraction() float64 {
	total := r.LocalRows + r.RemoteRows
	if total == 0 {
		return 0
	}
	return float64(r.RemoteRows) / float64(total)
}

// RunSSPPRBatch processes queriesByMachine (local source IDs per machine):
// machine m's queries are split round-robin over its P compute processes,
// each process runs its share sequentially, and the wall clock covers the
// slowest process (synchronization included, per §2.1.2). The per-process
// breakdowns are merged into the result.
//
// ctx bounds the whole batch; cfg.QueryTimeout additionally bounds every
// individual query. Failures are isolated: a query that times out or errors
// is recorded in RunResult.Errors and its process moves on to its next
// query. The returned error is non-nil only when the batch context itself
// ended (ctx.Err()) or every single query failed.
func (c *Cluster) RunSSPPRBatch(ctx context.Context, queriesByMachine [][]int32, cfg core.Config, kind EngineKind) (RunResult, error) {
	procs := c.Opts.ProcsPerMachine
	var res RunResult
	breakdowns := make([][]*metrics.Breakdown, c.Opts.NumMachines)
	type acc struct {
		pushes, iterations              int64
		localRows, remoteRows, haloRows int64
		cacheHits, cacheCoalesced       int64
		rpcRequests, requestBytes       int64
		timeouts                        int64
		errs                            []QueryError
	}
	accs := make([][]acc, c.Opts.NumMachines)
	var wg sync.WaitGroup
	start := time.Now()
	for m := 0; m < c.Opts.NumMachines; m++ {
		breakdowns[m] = make([]*metrics.Breakdown, procs)
		accs[m] = make([]acc, procs)
		for p := 0; p < procs; p++ {
			breakdowns[m][p] = metrics.NewBreakdown()
			// Round-robin assignment of the machine's queries to procs.
			mine := make([]int32, 0, len(queriesByMachine[m])/procs+1)
			for i := p; i < len(queriesByMachine[m]); i += procs {
				mine = append(mine, queriesByMachine[m][i])
			}
			res.Queries += len(mine)
			wg.Add(1)
			go func(m, p int, mine []int32) {
				defer wg.Done()
				st := c.Storages[m][p]
				bd := breakdowns[m][p]
				a := &accs[m][p]
				for _, src := range mine {
					if ctx.Err() != nil {
						// Batch cancelled: mark the remaining queries failed.
						a.errs = append(a.errs, newQueryError(m, p, src, ctx.Err()))
						continue
					}
					var err error
					var stats core.QueryStats
					switch kind {
					case EngineTensor:
						_, stats, err = core.RunTensorSSPPR(ctx, st, src, cfg, bd)
					case EngineStriped:
						_, stats, err = baseline.RunSSPPR(ctx, st, src, cfg, baseline.Options{}, bd)
					default:
						var q *core.SSPPR
						q, stats, err = core.RunSSPPR(ctx, st, src, cfg, bd)
						q.Release() // only the stats are kept
					}
					a.timeouts += stats.Timeouts
					a.rpcRequests += stats.RPCRequests
					a.requestBytes += stats.RequestBytes
					if err != nil {
						a.errs = append(a.errs, newQueryError(m, p, src, err))
						continue
					}
					a.pushes += stats.Pushes
					a.iterations += int64(stats.Iterations)
					a.localRows += stats.LocalRows
					a.remoteRows += stats.RemoteRows
					a.haloRows += stats.HaloRows
					a.cacheHits += stats.CacheHits
					a.cacheCoalesced += stats.CacheCoalesced
				}
			}(m, p, mine)
		}
	}
	wg.Wait()
	res.Wall = time.Since(start)
	res.Breakdown = metrics.NewBreakdown()
	for m := range breakdowns {
		for p := range breakdowns[m] {
			res.Breakdown.Merge(breakdowns[m][p])
			res.Pushes += accs[m][p].pushes
			res.Iterations += accs[m][p].iterations
			res.LocalRows += accs[m][p].localRows
			res.RemoteRows += accs[m][p].remoteRows
			res.HaloRows += accs[m][p].haloRows
			res.CacheHits += accs[m][p].cacheHits
			res.CacheCoalesced += accs[m][p].cacheCoalesced
			res.RPCRequests += accs[m][p].rpcRequests
			res.RequestBytes += accs[m][p].requestBytes
			res.Timeouts += accs[m][p].timeouts
			res.Errors = append(res.Errors, accs[m][p].errs...)
		}
	}
	res.Failed = len(res.Errors)
	res.Throughput = metrics.Throughput(res.Queries-res.Failed, res.Wall)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if res.Queries > 0 && res.Failed == res.Queries {
		return res, fmt.Errorf("cluster: all %d queries failed, first: %w", res.Queries, res.Errors[0])
	}
	return res, nil
}

// RunRandomWalkBatch starts walksPerMachine walks on every machine (roots
// drawn from its core nodes) and runs them through the distributed
// random-walk primitive, one batch per compute process.
//
// ctx bounds the whole batch. Failure isolation is per compute process (one
// RunRandomWalk call advances all of a process's walks in lockstep): a
// failed process's walks land in RunResult.Errors with nil summaries while
// the other processes' walks complete. The returned error is non-nil only
// when ctx ended or every process failed.
func (c *Cluster) RunRandomWalkBatch(ctx context.Context, walksPerMachine, walkLen int, seed int64) (RunResult, [][][]int32, error) {
	procs := c.Opts.ProcsPerMachine
	roots := c.EvenQuerySet(walksPerMachine, seed)
	var res RunResult
	summaries := make([][][]int32, c.Opts.NumMachines)
	breakdowns := make([]*metrics.Breakdown, c.Opts.NumMachines*procs)
	errs := make([][]QueryError, c.Opts.NumMachines*procs)
	var wg sync.WaitGroup
	start := time.Now()
	for m := 0; m < c.Opts.NumMachines; m++ {
		summaries[m] = make([][]int32, walksPerMachine)
		res.Queries += walksPerMachine
		for p := 0; p < procs; p++ {
			bd := metrics.NewBreakdown()
			breakdowns[m*procs+p] = bd
			var mine []int32
			var idxs []int
			for i := p; i < len(roots[m]); i += procs {
				mine = append(mine, roots[m][i])
				idxs = append(idxs, i)
			}
			wg.Add(1)
			go func(m, p int, mine []int32, idxs []int) {
				defer wg.Done()
				if len(mine) == 0 {
					return
				}
				sum, err := core.RunRandomWalk(ctx, c.Storages[m][p], mine, walkLen, seed+int64(m*1000+p), bd)
				if err != nil {
					qes := make([]QueryError, len(mine))
					for k, src := range mine {
						qes[k] = newQueryError(m, p, src, err)
					}
					errs[m*procs+p] = qes
					return
				}
				for k, i := range idxs {
					summaries[m][i] = sum[k]
				}
			}(m, p, mine, idxs)
		}
	}
	wg.Wait()
	res.Wall = time.Since(start)
	res.Breakdown = metrics.NewBreakdown()
	for _, bd := range breakdowns {
		res.Breakdown.Merge(bd)
	}
	for _, qes := range errs {
		res.Errors = append(res.Errors, qes...)
	}
	res.Failed = len(res.Errors)
	for _, qe := range res.Errors {
		if errors.Is(qe.Err, context.Canceled) || errors.Is(qe.Err, context.DeadlineExceeded) {
			res.Timeouts++
		}
	}
	res.Throughput = metrics.Throughput(res.Queries-res.Failed, res.Wall)
	if err := ctx.Err(); err != nil {
		return res, summaries, err
	}
	if res.Queries > 0 && res.Failed == res.Queries {
		return res, summaries, fmt.Errorf("cluster: all %d walks failed, first: %w", res.Queries, res.Errors[0])
	}
	return res, summaries, nil
}
