// Package stack assembles one machine's fetch stack. Build is the only place
// in the tree that constructs a cache, an aggregator, a replica router, a
// hedger or an admission controller: the in-process cluster harness
// (internal/cluster), every file-based bootstrap path (internal/deploy) and
// through them the shipped binaries all call it, so the stack the tests and
// the benchmark measure is the stack that gets deployed.
package stack

import (
	"context"
	"fmt"
	"time"

	"pprengine/internal/admit"
	"pprengine/internal/agg"
	"pprengine/internal/cache"
	"pprengine/internal/core"
	"pprengine/internal/delta"
	"pprengine/internal/ha"
	"pprengine/internal/obs"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
	"pprengine/internal/wire"
)

// Config is the per-machine half of the configuration: what a machine builds
// once and every query on it shares. The per-query half is core.Config. The
// zero value builds a bare stack — the paper's engine exactly.
type Config struct {
	// CacheBytes, when > 0, is the byte budget of the machine's dynamic
	// neighbor-row cache (internal/cache): decoded remote rows are kept in a
	// sharded, byte-budgeted cache and concurrent fetches of one vertex
	// coalesce into one RPC.
	CacheBytes int64
	// AggWindow / AggRows, when either is > 0, give the machine one
	// cross-query fetch aggregator per destination shard and row type
	// (internal/agg): concurrent queries' fetches to one shard merge into one
	// wire request, flushed at once when the link is idle, else after
	// AggWindow or at AggRows rows (0 = the aggregator's default for each).
	AggWindow time.Duration
	AggRows   int
	// ZeroCopy view-decodes merged flush responses over the pooled payload
	// (agg.Options.ZeroCopy); requests a single query issues follow
	// core.Config.ZeroCopy. Set both for a fully zero-copy hot path.
	ZeroCopy bool
	// FeatCacheBytes, when > 0, is the byte budget of the machine's
	// feature-row cache backing the GNN serving path. FeatAdmitMass is its
	// admission threshold: a fetched row is cached only when the highest PPR
	// mass among the queries that requested it reaches this value (Kaler et
	// al.'s probabilistic caching); 0 admits every row.
	FeatCacheBytes int64
	FeatAdmitMass  float64
	// AdmitMaxInFlight, when > 0, gives the machine an admission controller
	// (internal/admit): at most that many queries execute concurrently,
	// AdmitMaxQueue more (0 = the controller's default 64) wait in a priority
	// queue, and queries that cannot meet their deadline — or exceed their
	// tenant's quota — are shed early with a typed admit.ErrShed.
	// AdmitTenantRate / AdmitTenantBurst give every tenant a token bucket of
	// that sustained rate (queries/second; 0 = no quotas) and burst capacity
	// (0 = max(rate, 1)).
	AdmitMaxInFlight int
	AdmitMaxQueue    int
	AdmitTenantRate  float64
	AdmitTenantBurst float64
	// Hedge, on a replicated machine, routes remote requests through a
	// hedger (admit.Hedger): a request whose primary has not answered within
	// the hedge delay is also issued to a healthy replica and the first
	// response wins. HedgeDelay fixes that delay; 0 adapts it to the observed
	// per-shard p95. Ignored without replicas.
	Hedge      bool
	HedgeDelay time.Duration
}

// Peer is one serving process of a remote shard.
type Peer struct {
	// Machine is the hosting machine's index, -1 when only the address is
	// known. Key groups peers that share failure fate ("" = the address).
	Machine int
	Addr    string
	Key     string
}

// Spec is what is particular to the machine being built — topology and the
// shared state it already has — as opposed to Config's tunables.
type Spec struct {
	Local   *shard.Shard
	Locator *shard.Locator
	// Clients holds one direct-connection set per compute process
	// (Clients[p][shard]; the local entry is nil). A routed machine may pass
	// all-nil sets. The machine owns them: Close closes them.
	Clients [][]*rpc.Client
	// Serving, when non-nil, replicates the remote shards: Serving[s] lists
	// shard s's serving processes, primary first, and every remote request
	// goes through a ReplicaRouter over them. HA and Latency configure the
	// router's health tracking and its endpoints' links.
	Serving [][]Peer
	HA      ha.Options
	Latency rpc.LatencyModel
	// Tracer is the machine's span recorder, Delta its mutation store; both
	// may be nil.
	Tracer *obs.Tracer
	Delta  *delta.Store
}

// Machine is one machine's assembled stack: its compute handles and the
// shared stages behind them (nil where the config left a stage out).
type Machine struct {
	Handles   []*core.DistGraphStorage
	Cache     *cache.Cache
	FeatCache *cache.FeatureCache
	Aggs      []*agg.Aggregator // by destination shard
	FeatAggs  []*agg.Aggregator
	Tracker   *ha.HealthTracker
	Router    *ha.ReplicaRouter
	Hedger    *admit.Hedger
	Admit     *admit.Controller

	clients   []*rpc.Client
	endpoints []*ha.Endpoint
}

// Build assembles the machine: the stages cfg asks for, in chain order, and
// one compute handle per client set sharing them — caches, aggregators and
// admission are machine-level state, like the shard itself, so that
// coalescing, merging and the concurrency cap work across the machine's
// processes, not just within one.
func Build(cfg Config, spec Spec) *Machine {
	m := &Machine{
		Cache:     cache.New(cfg.CacheBytes),
		FeatCache: cache.NewFeatures(cfg.FeatCacheBytes, cfg.FeatAdmitMass),
	}
	self, k := spec.Local.ShardID, spec.Local.NumShards
	// The transport tail: hedger if present, else router, else each handle's
	// own clients.
	var shared agg.Transport
	if spec.Serving != nil {
		hopts := spec.HA
		hopts.Tracer = spec.Tracer
		m.Tracker = ha.NewHealthTracker(hopts)
		eps := make([][]*ha.Endpoint, k)
		for s := int32(0); s < k; s++ {
			if s == self {
				continue // local shard: shared memory, never routed
			}
			for _, p := range spec.Serving[s] {
				ep := ha.NewEndpoint(p.Machine, s, p.Addr, p.Key, spec.Latency)
				eps[s] = append(eps[s], ep)
				m.endpoints = append(m.endpoints, ep)
				m.Tracker.Register(ep)
			}
		}
		m.Tracker.Start()
		m.Router = ha.NewReplicaRouter(m.Tracker, eps, hopts)
		// A routed request's attempt loop is shared state and ignores the
		// caller's cancellation (waiters bound their own waits); the trace
		// context still rides along so attempt spans join the query's trace.
		shared = func(ctx context.Context, dst int32, method rpc.Method, payload []byte) agg.Response {
			return m.Router.CallTraced(obs.FromContext(ctx), dst, method, payload, nil)
		}
		if cfg.Hedge {
			m.Hedger = admit.NewHedger(m.Router, admit.HedgeOptions{Delay: cfg.HedgeDelay})
			shared = func(ctx context.Context, dst int32, method rpc.Method, payload []byte) agg.Response {
				return m.Hedger.CallTraced(obs.FromContext(ctx), dst, method, payload)
			}
		}
	}
	if cfg.AdmitMaxInFlight > 0 {
		m.Admit = admit.NewController(admit.Options{
			MaxInFlight: cfg.AdmitMaxInFlight,
			MaxQueue:    cfg.AdmitMaxQueue,
			TenantRate:  cfg.AdmitTenantRate,
			TenantBurst: cfg.AdmitTenantBurst,
		})
		if spec.Delta != nil {
			// Admitted queries pin their mutation epoch at grant time, so a
			// query queued behind a burst still reads the snapshot it was
			// admitted under.
			m.Admit.SetEpochSource(spec.Delta.PinCurrent, spec.Delta.Unpin)
		}
	}
	for _, clients := range spec.Clients {
		g := core.NewDistGraphStorage(self, spec.Local, spec.Locator, clients)
		m.clients = append(m.clients, clients...)
		if shared != nil {
			g.Transport = shared
		}
		if (cfg.AggWindow > 0 || cfg.AggRows > 0) && m.Aggs == nil {
			// One aggregator per (machine, destination shard, row type): all
			// of the machine's traffic to a shard funnels through one
			// coalescing point. Flushes ride the first handle's transport, so
			// on a replicated machine a merged request fails over — and
			// hedges — as a unit.
			opts := agg.Options{Window: cfg.AggWindow, MaxRows: cfg.AggRows, ZeroCopy: cfg.ZeroCopy, Tracer: spec.Tracer}
			m.Aggs = make([]*agg.Aggregator, k)
			m.FeatAggs = make([]*agg.Aggregator, k)
			for s := int32(0); s < k; s++ {
				if s != self {
					m.Aggs[s] = agg.NewTier(agg.Neighbors, g.Transport, s, opts)
					m.FeatAggs[s] = agg.NewTier(agg.Features, g.Transport, s, opts)
				}
			}
		}
		g.Neighbors.Cache, g.Neighbors.Aggs = m.Cache, m.Aggs
		g.Features.Cache, g.Features.Aggs = m.FeatCache, m.FeatAggs
		g.AttachTracer(spec.Tracer)
		g.AttachAdmission(m.Admit)
		g.AttachDelta(spec.Delta)
		m.Handles = append(m.Handles, g)
	}
	return m
}

// Stages names the stages of the machine's fetch chain, in chain order — what
// parity tests compare across the ways a machine can be built.
func (m *Machine) Stages() []string {
	var out []string
	add := func(on bool, name string) {
		if on {
			out = append(out, name)
		}
	}
	add(m.Admit != nil, "admit")
	add(m.Cache != nil, "cache")
	add(m.FeatCache != nil, "featcache")
	add(m.Aggs != nil, "agg")
	add(m.Hedger != nil, "hedge")
	add(m.Router != nil, "route")
	return append(out, "rpc")
}

// Endpoints returns the router's serving endpoints (nil when not routed).
func (m *Machine) Endpoints() []*ha.Endpoint { return m.endpoints }

// Clients returns every direct connection the machine owns (nil entries for
// local shards included).
func (m *Machine) Clients() []*rpc.Client { return m.clients }

// Close tears the machine down in the order buffer ownership needs: first
// the transports, so every pending response resolves (with an error if need
// be) and its completion hooks run — flushes hand their tickets the result,
// fetches fulfil their flights, whether or not anyone still waits; then the
// aggregators, which wait those hooks out. After it, nothing the stack drew
// from the frame pool is still checked out. Idempotent.
func (m *Machine) Close() {
	if m.Tracker != nil {
		m.Tracker.Stop()
		m.Router.Close()
	}
	for _, c := range m.clients {
		if c != nil {
			c.Close()
		}
	}
	for i := range m.Aggs {
		m.Aggs[i].Close()
		m.FeatAggs[i].Close()
	}
}

// NewCoordinator wires a deployment's mutation coordinator over store with
// one connection per machine: clients[j] both delivers epoch-stamped batches
// to machine j (whose store covers every shard it serves, replicas included)
// and, since shard j is primaried on machine j, reads the current row of a
// mutation source the coordinator's own store does not base. A nil entry is a
// machine the coordinator writes directly — its own, unless the caller wants
// the delivery path exercised uniformly, in which case the store dedups the
// loopback batch by epoch.
func NewCoordinator(store *delta.Store, clients []*rpc.Client) *delta.Coordinator {
	appliers := make([]delta.Applier, len(clients))
	for j, cl := range clients {
		if cl == nil {
			continue
		}
		appliers[j] = func(ctx context.Context, payload []byte) error {
			resp, err := cl.SyncCallCtx(ctx, rpc.MethodApplyMutations, payload)
			if err != nil {
				return err
			}
			_, err = wire.DecodeMutationAck(resp)
			return err
		}
	}
	fetch := func(ctx context.Context, sh, local int32, epoch uint64) (delta.RemoteRow, error) {
		if clients[sh] == nil {
			return delta.RemoteRow{}, fmt.Errorf("stack: no client for shard %d", sh)
		}
		method, payload := agg.Neighbors.Encode(epoch, []int32{local})
		resp, err := clients[sh].SyncCallCtx(ctx, method, payload)
		if err != nil {
			return delta.RemoteRow{}, err
		}
		infos, err := wire.DecodeCSR(resp)
		if err != nil {
			return delta.RemoteRow{}, err
		}
		if infos.NumRows() != 1 {
			return delta.RemoteRow{}, fmt.Errorf("stack: row fetch returned %d rows, want 1", infos.NumRows())
		}
		locals, shards, weights, _ := infos.Row(0)
		return delta.RemoteRow{Locals: locals, Shards: shards, Weights: weights, WDeg: infos.RowWDeg[0]}, nil
	}
	return delta.NewCoordinator(store, appliers, fetch)
}
