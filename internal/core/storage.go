package core

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"pprengine/internal/admit"
	"pprengine/internal/agg"
	"pprengine/internal/cache"
	"pprengine/internal/delta"
	"pprengine/internal/mem"
	"pprengine/internal/metrics"
	"pprengine/internal/obs"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
	"pprengine/internal/wire"
)

// respPool holds the pooled response buffers the storage handlers encode
// into; the rpc server releases each one after writing it to the wire.
var respPool mem.Pool

// StorageServer is the per-machine Graph Storage endpoint: it owns the
// machine's shard (in shared memory) and answers neighborhood requests over
// RPC. One StorageServer per simulated machine; all compute processes on
// other machines reach it through rpc.Clients.
type StorageServer struct {
	Shard   *shard.Shard
	Locator *shard.Locator // for global IDs in sample responses
	// Features is the optional per-shard feature store for the GNN case
	// study: row-major [NumCore x FeatureDim].
	Features   []float32
	FeatureDim int

	srv    *rpc.Server
	tracer *obs.Tracer

	// delta, once set, is the machine's mutation tier (AttachDelta): the
	// delta-CSR store backing MethodApplyMutations and the epoch-pinned
	// neighbor fetch. Atomic because it is attached to a serving process.
	delta atomic.Pointer[delta.Store]

	// Owner-compute query-service observability, fed by the SSPPRQuery
	// handler: accumulated per-phase breakdown plus served/failed counts.
	// QueryLatency, when set before EnableQueryService, observes each
	// query's wall time in seconds (an admin-registry histogram).
	queryPhases   metrics.AtomicBreakdown
	queriesServed atomic.Int64
	queryFailures atomic.Int64
	QueryLatency  *obs.Histogram

	// sampleZeroCopyOff routes MethodSampleNeighbors through the legacy
	// copy paths (heap-built response, heap encode) instead of the pooled
	// arena + buffer hot path — the pre-pooling allocation profile, kept as
	// the -exp hotpath2 sampling baseline. Toggle only while no requests
	// are in flight (see SetSampleZeroCopy). Zero — the default — pools.
	sampleZeroCopyOff int
}

// SetSampleZeroCopy toggles the pooled zero-copy sampling handler. Toggle
// only between benchmark passes or before Start — the flag is read without
// synchronization by in-flight handlers.
func (ss *StorageServer) SetSampleZeroCopy(on bool) {
	if on {
		ss.sampleZeroCopyOff = 0
	} else {
		ss.sampleZeroCopyOff = 1
	}
}

// NewStorageServer wraps a shard (and locator) in a server. Call Start to
// begin serving.
func NewStorageServer(s *shard.Shard, loc *shard.Locator) *StorageServer {
	ss := &StorageServer{Shard: s, Locator: loc, srv: rpc.NewServer()}
	ss.register()
	return ss
}

func (ss *StorageServer) register() {
	// Echo is the health-probe method: ha.HealthTracker pings it to decide
	// whether this machine is alive. It must stay trivial — a probe measures
	// reachability and scheduling, not shard work.
	ss.srv.Handle(rpc.MethodEcho, func(p []byte) ([]byte, error) { return p, nil })
	ss.srv.HandleBuf(rpc.MethodGetNeighborInfos, ss.handleNeighborInfos)
	ss.srv.HandleBuf(rpc.MethodGetNeighborInfosAt, ss.handleNeighborInfosAt)
	ss.srv.Handle(rpc.MethodGetNeighborInfosLoL, func(p []byte) ([]byte, error) {
		ids, err := wire.DecodeIDListView(p)
		if err != nil {
			return nil, err
		}
		arena := mem.GetArena()
		defer mem.PutArena(arena)
		infos, err := BuildInfosArena(ss.Shard, ids, arena)
		if err != nil {
			return nil, err
		}
		return wire.EncodeLoL(infos), nil
	})
	ss.srv.Handle(rpc.MethodGetNeighborInfoOne, func(p []byte) ([]byte, error) {
		ids, err := wire.DecodeIDList(p)
		if err != nil {
			return nil, err
		}
		if len(ids) != 1 {
			return nil, fmt.Errorf("core: GetNeighborInfoOne wants exactly 1 id, got %d", len(ids))
		}
		infos, err := BuildInfos(ss.Shard, ids)
		if err != nil {
			return nil, err
		}
		// The single-vertex path ships the uncompressed format, matching
		// the naive per-vertex implementation it models.
		return wire.EncodeLoL(infos), nil
	})
	ss.srv.Handle(rpc.MethodSampleOneNeighbor, func(p []byte) ([]byte, error) {
		req, err := wire.DecodeSampleRequest(p)
		if err != nil {
			return nil, err
		}
		resp, err := SampleOneNeighborLocal(ss.Shard, ss.Locator, req.Locals, req.Seed)
		if err != nil {
			return nil, err
		}
		return wire.EncodeSampleResponse(resp), nil
	})
	ss.srv.Handle(rpc.MethodGetShardStats, func(p []byte) ([]byte, error) {
		st := shard.ComputeStats(ss.Shard)
		return wire.EncodeShardStats(&wire.ShardStats{
			ShardID:      st.ShardID,
			NumShards:    ss.Shard.NumShards,
			NumCore:      int64(st.NumCore),
			NumEntries:   st.NumEntries,
			HaloNodes:    int64(st.HaloNodes),
			MemoryBytes:  st.MemoryBytes,
			RemoteFrac:   st.RemoteFrac,
			AvgOutDegree: st.AvgOutDegree,
		}), nil
	})
	// The sampling handler follows the batched-CSR one: view-decoded request
	// (locals alias the pooled request payload), rows sampled straight into a
	// pooled arena sized exactly by a pre-pass, response encoded into a pooled
	// buffer the rpc layer releases after its vectored write. The legacy
	// copy path stays reachable behind SetSampleZeroCopy(false) as the
	// -exp hotpath2 baseline.
	ss.srv.HandleBuf(rpc.MethodSampleNeighbors, func(_ context.Context, p []byte) (*mem.Buf, error) {
		if ss.sampleZeroCopyOff != 0 {
			req, err := wire.DecodeSampleNRequest(p)
			if err != nil {
				return nil, err
			}
			resp, err := SampleNeighborsLocal(ss.Shard, ss.Locator, req.Locals, req.Fanout, req.Seed)
			if err != nil {
				return nil, err
			}
			return mem.Wrap(wire.EncodeSampleNResponse(resp)), nil
		}
		req, err := wire.DecodeSampleNRequestView(p)
		if err != nil {
			return nil, err
		}
		arena := mem.GetArena()
		defer mem.PutArena(arena)
		var resp wire.SampleNResponse
		if err := SampleNeighborsInto(ss.Shard, ss.Locator, req.Locals, req.Fanout, req.Seed, arena, &resp); err != nil {
			return nil, err
		}
		buf := respPool.Get(wire.SampleNSize(&resp))
		buf.SetLen(len(wire.EncodeSampleNTo(buf.Bytes()[:0], &resp)))
		return buf, nil
	})
	// The feature handler mirrors the batched-CSR one: view-decoded request
	// IDs, rows gathered straight into a pooled buffer (header + one append
	// per row — no intermediate heap block), released by the rpc layer after
	// the vectored write.
	ss.srv.HandleBuf(rpc.MethodFetchFeatures, func(_ context.Context, p []byte) (*mem.Buf, error) {
		ids, err := wire.DecodeIDListView(p)
		if err != nil {
			return nil, err
		}
		if ss.Features == nil {
			return nil, fmt.Errorf("core: shard %d: %s", ss.Shard.ShardID, noFeatureStoreMsg)
		}
		d := ss.FeatureDim
		buf := respPool.Get(wire.FeatureResponseSize(len(ids) * d))
		out := wire.AppendFeatureHeader(buf.Bytes()[:0], d, len(ids)*d)
		for _, id := range ids {
			if err := ss.Shard.CheckLocal(id); err != nil {
				buf.Release()
				return nil, err
			}
			out = wire.AppendF32s(out, ss.Features[int(id)*d:(int(id)+1)*d])
		}
		buf.SetLen(len(out))
		return buf, nil
	})
}

// epochWaitTimeout bounds how long an epoch-pinned fetch waits for an
// in-flight mirror batch when the request carries no deadline of its own.
const epochWaitTimeout = 5 * time.Second

// AttachDelta installs the machine's delta store — rows of epoch-pinned
// fetches then resolve through its overlay instead of the raw base CSR — and
// registers MethodApplyMutations, which installs one resolved, epoch-stamped
// mutation batch (coordinator broadcast / replica mirror). The payload
// aliases a pooled request frame, so the decode copies before the store keeps
// anything. Replays ack idempotently; an epoch gap is an error and the store
// stays stale (DESIGN.md §5l). Once per server; the store is machine-shared
// state like the shard itself.
func (ss *StorageServer) AttachDelta(store *delta.Store) {
	ss.delta.Store(store)
	ss.srv.Handle(rpc.MethodApplyMutations, func(p []byte) ([]byte, error) {
		b, err := wire.DecodeMutationBatch(p)
		if err != nil {
			return nil, err
		}
		if err := store.Apply(b); err != nil {
			return nil, err
		}
		return wire.EncodeMutationAck(b.Epoch), nil
	})
}

// Methods 1 and 11 are one handler body behind two request decoders: the
// legacy request is the epoch-pinned one at epoch 0.
func (ss *StorageServer) handleNeighborInfos(ctx context.Context, p []byte) (*mem.Buf, error) {
	ids, err := wire.DecodeIDListView(p)
	if err != nil {
		return nil, err
	}
	return ss.neighborInfos(ctx, 0, ids)
}

func (ss *StorageServer) handleNeighborInfosAt(ctx context.Context, p []byte) (*mem.Buf, error) {
	epoch, ids, err := wire.DecodeIDListAtView(p)
	if err != nil {
		return nil, err
	}
	return ss.neighborInfos(ctx, epoch, ids)
}

// neighborInfos answers a batched neighbor fetch as of epoch (0 = the static
// base graph) — the server side of the zero-copy hot path: the request IDs
// are a view over the pooled request payload, the CSR batch is assembled in a
// pooled arena, and the response is encoded straight into a pooled buffer
// that the rpc layer writes vectored and then releases — steady state, a
// fetch costs the server no per-request heap allocation.
func (ss *StorageServer) neighborInfos(ctx context.Context, epoch uint64, ids []int32) (*mem.Buf, error) {
	arena := mem.GetArena()
	defer mem.PutArena(arena)
	var infos *wire.NeighborInfos
	var err error
	if epoch == 0 {
		infos, err = BuildInfosArena(ss.Shard, ids, arena)
	} else {
		store := ss.delta.Load()
		if store == nil {
			return nil, fmt.Errorf("core: epoch %d pinned but shard %d serves no delta store", epoch, ss.Shard.ShardID)
		}
		// A pinned epoch names an assigned batch, but the coordinator's
		// mirror delivering it here may still be in flight (its local store
		// advances first). Wait for it, bounded so a stale machine errors
		// instead of hanging the query.
		wctx := ctx
		if _, ok := wctx.Deadline(); !ok {
			var cancel context.CancelFunc
			wctx, cancel = context.WithTimeout(ctx, epochWaitTimeout)
			defer cancel()
		}
		if err := store.WaitEpoch(wctx, epoch); err != nil {
			return nil, err
		}
		infos, err = BuildInfosAtArena(store, ss.Shard.ShardID, ids, epoch, arena)
	}
	if err != nil {
		return nil, err
	}
	buf := respPool.Get(wire.CSRSize(infos))
	buf.SetLen(len(wire.EncodeCSRTo(buf.Bytes()[:0], infos)))
	return buf, nil
}

// Delta returns the attached delta store (nil for a static deployment).
func (ss *StorageServer) Delta() *delta.Store { return ss.delta.Load() }

// FetchFeaturesLocal gathers feature rows for core vertices.
func (ss *StorageServer) FetchFeaturesLocal(ids []int32) ([]float32, error) {
	if ss.Features == nil {
		return nil, fmt.Errorf("core: shard %d: %w", ss.Shard.ShardID, ErrNoFeatureStore)
	}
	d := ss.FeatureDim
	out := make([]float32, 0, len(ids)*d)
	for _, id := range ids {
		if err := ss.Shard.CheckLocal(id); err != nil {
			return nil, err
		}
		out = append(out, ss.Features[int(id)*d:(int(id)+1)*d]...)
	}
	return out, nil
}

// Start listens on a fresh loopback port and returns the dialable address.
func (ss *StorageServer) Start() (string, error) {
	return ss.srv.ListenAndServe()
}

// ServeListener serves on a caller-provided listener (blocking). Used by
// real deployments that bind a specific address.
func (ss *StorageServer) ServeListener(lis net.Listener) {
	ss.srv.Serve(lis)
}

// Handle exposes the underlying server's registry so the cluster harness can
// add machine-level handlers (e.g. gradient allreduce).
func (ss *StorageServer) Handle(m rpc.Method, h rpc.Handler) { ss.srv.Handle(m, h) }

// AttachTracer installs the machine's tracer: the rpc server then records one
// span per traced request it handles, and the owner-compute query service
// parents its spans to the caller's trace.
func (ss *StorageServer) AttachTracer(t *obs.Tracer) {
	ss.tracer = t
	ss.srv.SetTracer(t)
}

// Tracer returns the attached tracer (nil when tracing is off).
func (ss *StorageServer) Tracer() *obs.Tracer { return ss.tracer }

// QueryPhases returns the accumulated per-phase breakdown of every query
// served by this server's owner-compute handler.
func (ss *StorageServer) QueryPhases() *metrics.AtomicBreakdown { return &ss.queryPhases }

// QueryCounts returns how many owner-compute queries this server served and
// how many of those failed.
func (ss *StorageServer) QueryCounts() (served, failed int64) {
	return ss.queriesServed.Load(), ss.queryFailures.Load()
}

// RPCStats returns the underlying server's request counters.
func (ss *StorageServer) RPCStats() rpc.Stats { return ss.srv.Stats() }

// Close shuts the server down.
func (ss *StorageServer) Close() { ss.srv.Close() }

// Shutdown drains the server gracefully: in-flight requests finish (bounded
// by ctx), new ones are rejected. See rpc.Server.Shutdown.
func (ss *StorageServer) Shutdown(ctx context.Context) error { return ss.srv.Shutdown(ctx) }

// SampleOneNeighborLocal samples one weighted out-neighbor for each listed
// core vertex of s. Vertices without out-edges return local -1. The seed
// makes the whole batch reproducible.
func SampleOneNeighborLocal(s *shard.Shard, loc *shard.Locator, locals []int32, seed int64) (*wire.SampleResponse, error) {
	rng := rand.New(rand.NewSource(seed))
	resp := &wire.SampleResponse{
		Locals:  make([]int32, len(locals)),
		Shards:  make([]int32, len(locals)),
		Globals: make([]int32, len(locals)),
	}
	for i, l := range locals {
		if err := s.CheckLocal(l); err != nil {
			return nil, err
		}
		vp := s.VertexProp(l)
		if vp.Degree() == 0 || vp.WDeg <= 0 {
			resp.Locals[i] = -1
			resp.Shards[i] = -1
			resp.Globals[i] = -1
			continue
		}
		target := rng.Float64() * float64(vp.WDeg)
		acc := 0.0
		j := vp.Degree() - 1
		for k, w := range vp.Weights {
			acc += float64(w)
			if acc >= target {
				j = k
				break
			}
		}
		resp.Locals[i] = vp.Locals[j]
		resp.Shards[i] = vp.Shards[j]
		resp.Globals[i] = int32(loc.Global(vp.Shards[j], vp.Locals[j]))
	}
	return resp, nil
}

// DistGraphStorage is a compute process's handle on the whole distributed
// graph: direct shared-memory access to the local shard, and one fetch chain
// per row type to the others. It is the Go analogue of the Python object
// constructed from the rrefs list in Figure 4.
//
// A handle from NewDistGraphStorage is bare: its chains are only their rpc
// tail over Clients. The machine's builder (internal/stack) installs the
// machine-shared stages — caches, aggregators, the routed or hedged
// transport, admission — on every handle of the machine.
type DistGraphStorage struct {
	ShardID   int32
	NumShards int32
	Local     *shard.Shard
	Locator   *shard.Locator
	Clients   []*rpc.Client // direct connections by shard ID (nil for the local shard, and for every shard of a handle that only routes)

	// LocalFeatures/FeatureDim give shared-memory access to the machine's
	// feature block for the GNN case study (see AttachLocalFeatures).
	LocalFeatures []float32
	FeatureDim    int

	// Neighbors and Features are the two instantiations of the fetch chain.
	Neighbors *Chain[cache.Row, NeighborBatch]
	Features  *Chain[[]float32, agg.FeatureBlock]

	// Transport carries every remote request of this handle — the chains'
	// fetches, sampling, stats. The default reaches each shard through
	// Clients; with replication it is the machine's replica router (primary
	// first, failover to a healthy replica — internal/ha) or, over that, its
	// hedger (admit.Hedger).
	Transport agg.Transport

	// ZeroCopy view-decodes responses on the paths that have no per-query
	// Config to say so: feature fetches and neighbor sampling. On by default.
	ZeroCopy bool

	// Delta, when non-nil, is the machine-shared delta-CSR mutation store
	// (internal/delta): queries pin one of its epochs and every fetch —
	// local shared-memory reads included — resolves through the overlay as
	// of that epoch. nil keeps the static base-CSR engine byte-for-byte.
	Delta *delta.Store

	// Admit, when non-nil, is the machine's admission controller
	// (internal/admit): RunSSPPR claims an execution slot before any
	// pop/push work and sheds queries that cannot meet their deadline or
	// exceed their tenant's quota. Machine-shared state like the cache.
	Admit *admit.Controller

	// Tracer records this machine's spans for sampled queries (nil when
	// tracing is off — every use is nil-safe).
	Tracer *obs.Tracer
}

// NewDistGraphStorage assembles a bare handle. clients must have one entry
// per shard; the local entry — or, for a handle whose Transport will be
// replaced by a router, every entry — may be nil.
func NewDistGraphStorage(shardID int32, local *shard.Shard, loc *shard.Locator, clients []*rpc.Client) *DistGraphStorage {
	g := &DistGraphStorage{
		ShardID:   shardID,
		NumShards: int32(len(clients)),
		Local:     local,
		Locator:   loc,
		Clients:   clients,
		ZeroCopy:  true,
	}
	g.Neighbors = &Chain[cache.Row, NeighborBatch]{t: neighborTier, g: g}
	g.Features = &Chain[[]float32, agg.FeatureBlock]{t: featureTier, g: g}
	// The direct transport binds the request to ctx: cancelling the query
	// cancels its own un-shared requests.
	g.Transport = func(ctx context.Context, dst int32, m rpc.Method, payload []byte) agg.Response {
		if c := clients[dst]; c != nil {
			return c.CallCtx(ctx, m, payload)
		}
		return rpc.Failed(fmt.Errorf("core: no client for shard %d", dst))
	}
	return g
}

// AttachDelta installs the machine-shared delta store on this compute
// handle; epoch-pinned queries (Config.PinnedEpoch, or the driver's
// admission-time pin) then resolve local rows and halo patches through it.
func (g *DistGraphStorage) AttachDelta(s *delta.Store) { g.Delta = s }

// AttachAdmission installs the machine-shared admission controller; the
// driver then gates every RunSSPPR through it.
func (g *DistGraphStorage) AttachAdmission(c *admit.Controller) { g.Admit = c }

// AttachTracer installs the machine's tracer on this compute handle.
func (g *DistGraphStorage) AttachTracer(t *obs.Tracer) { g.Tracer = t }

// GetNeighborInfos fetches neighbor information for core vertices of
// dstShard as of cfg.PinnedEpoch. Local requests resolve immediately via
// shared memory; remote requests go down the neighbor chain and return a
// pending future — when ctx ends, the future resolves to ctx.Err(). The chain
// speaks CSR; the Table 3 baselines (cfg.Mode Single / Batch) apply on a bare
// chain only.
func (g *DistGraphStorage) GetNeighborInfos(ctx context.Context, dstShard int32, locals []int32, cfg Config) *InfoFuture {
	epoch := cfg.PinnedEpoch
	if dstShard != g.ShardID {
		if cfg.Mode != FetchBatchCompress && g.Neighbors.bare(dstShard) {
			return g.fetchAblation(ctx, dstShard, locals, cfg)
		}
		return g.Neighbors.fetch(ctx, dstShard, epoch, locals, nil, cfg.ZeroCopy)
	}
	b, err := g.readLocal(locals, epoch, new(localRows))
	return readyFuture[cache.Row](b, err)
}

// readLocal serves rows of the local shard as of epoch into dst, which the
// returned batch points into. An epoch-pinned read resolves through the delta
// overlay (materialized mutated rows, patched degree columns) instead of the
// raw base CSR; unmutated rows still alias shared memory. IDs are validated
// to mirror the server-side checks.
func (g *DistGraphStorage) readLocal(locals []int32, epoch uint64, dst *localRows) (NeighborBatch, error) {
	if epoch != 0 {
		if g.Delta == nil {
			return nil, fmt.Errorf("core: epoch %d pinned but no delta store attached (shard %d)", epoch, g.ShardID)
		}
		vps, err := g.Delta.VertexProps(g.ShardID, locals, epoch)
		if err != nil {
			return nil, err
		}
		dst.vps = vps
		return &dst.vps, nil
	}
	for _, l := range locals {
		if err := g.Local.CheckLocal(l); err != nil {
			return nil, err
		}
	}
	dst.shard = shardBatch{s: g.Local, locals: locals}
	return &dst.shard, nil
}

// SampleFuture is the future for a sample_one_neighbor call.
type SampleFuture struct {
	resp *wire.SampleResponse
	err  error
	fut  agg.Response
}

// Wait blocks for the sampled neighbors.
func (f *SampleFuture) Wait() (*wire.SampleResponse, error) {
	return f.WaitCtx(context.Background())
}

// WaitCtx is Wait bounded by a context.
func (f *SampleFuture) WaitCtx(ctx context.Context) (*wire.SampleResponse, error) {
	if f.resp != nil || f.err != nil {
		return f.resp, f.err
	}
	payload, err := f.fut.WaitCtx(ctx)
	if err != nil {
		f.err = err
		return nil, err
	}
	f.resp, f.err = wire.DecodeSampleResponse(payload)
	f.fut.Release() // response copied into f.resp by the decode
	return f.resp, f.err
}

// GetShardStats retrieves statistics about any shard — locally via a direct
// scan, remotely via RPC.
func (g *DistGraphStorage) GetShardStats(dstShard int32) (*wire.ShardStats, error) {
	if dstShard == g.ShardID {
		st := shard.ComputeStats(g.Local)
		return &wire.ShardStats{
			ShardID:      st.ShardID,
			NumShards:    g.Local.NumShards,
			NumCore:      int64(st.NumCore),
			NumEntries:   st.NumEntries,
			HaloNodes:    int64(st.HaloNodes),
			MemoryBytes:  st.MemoryBytes,
			RemoteFrac:   st.RemoteFrac,
			AvgOutDegree: st.AvgOutDegree,
		}, nil
	}
	fut := g.Transport(context.Background(), dstShard, rpc.MethodGetShardStats, nil)
	payload, err := fut.Wait()
	if err != nil {
		fut.Release()
		return nil, wrapPeerErr(dstShard, err)
	}
	st, err := wire.DecodeShardStats(payload)
	fut.Release() // stats copied into st by the decode
	return st, err
}

// SampleOneNeighbor samples one neighbor for each listed core vertex of
// dstShard (random-walk step, Figure 4 right). Remote requests are issued
// under ctx.
func (g *DistGraphStorage) SampleOneNeighbor(ctx context.Context, dstShard int32, locals []int32, seed int64) *SampleFuture {
	if dstShard == g.ShardID {
		resp, err := SampleOneNeighborLocal(g.Local, g.Locator, locals, seed)
		return &SampleFuture{resp: resp, err: err}
	}
	payload := wire.EncodeSampleRequest(&wire.SampleRequest{Seed: seed, Locals: locals})
	return &SampleFuture{fut: g.Transport(ctx, dstShard, rpc.MethodSampleOneNeighbor, payload)}
}
