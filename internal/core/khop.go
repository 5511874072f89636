package core

import (
	"context"
	"fmt"
	"math/rand"
	"pprengine/internal/agg"
	"sync"

	"pprengine/internal/graph"
	"pprengine/internal/mem"
	"pprengine/internal/metrics"
	"pprengine/internal/pmap"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
	"pprengine/internal/wire"
)

// K-hop fanout sampling — the BFS-style mini-batch construction primitive
// (GraphSAGE) the paper's introduction lists alongside Random Walk and
// Personalized PageRank. Sampling happens server-side (one batched RPC per
// destination shard per hop), so responses carry only the sampled neighbor
// IDs instead of whole adjacency lists.

// sampleScratch is the reusable per-call state of the weighted
// without-replacement sampler: mark[j] == epoch means neighbor j of the
// current vertex is already chosen. Bumping the epoch "clears" the marks in
// O(1); the array is only memcleared on the rare epoch wraparound.
type sampleScratch struct {
	mark  []int32
	epoch int32
}

// next prepares the scratch for a vertex of degree deg and returns the epoch.
func (s *sampleScratch) next(deg int) int32 {
	if len(s.mark) < deg {
		grown := make([]int32, deg+deg/2)
		copy(grown, s.mark)
		s.mark = grown
	}
	s.epoch++
	if s.epoch <= 0 { // wraparound: stale marks could collide, clear them
		clear(s.mark)
		s.epoch = 1
	}
	return s.epoch
}

var sampleScratchPool = sync.Pool{New: func() any { return &sampleScratch{} }}

// rngPool recycles math/rand generators: rand.NewSource commits ~5KB of
// state per call, which dominated the sampling handler's allocations.
// Re-seeding a pooled generator produces the exact sequence a fresh
// rand.New(rand.NewSource(seed)) would, so pooling changes no sample.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

func getRNG(seed int64) *rand.Rand {
	r := rngPool.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

func putRNG(r *rand.Rand) { rngPool.Put(r) }

// sampleRow runs the weighted without-replacement selection for one vertex,
// appending each selected neighbor index via pick. The rng draw sequence is
// exactly one Float64 per selection, identical across the legacy and arena
// paths (bitwise-equal samples for a given seed).
func sampleRow(vp shard.VertexProp, fanout int32, rng *rand.Rand, sc *sampleScratch, pick func(j int)) {
	deg := vp.Degree()
	epoch := sc.next(deg)
	mark := sc.mark[:deg]
	remaining := float64(vp.WDeg)
	for picked := int32(0); picked < fanout; picked++ {
		target := rng.Float64() * remaining
		acc := 0.0
		sel := -1
		for j := 0; j < deg; j++ {
			if mark[j] == epoch {
				continue
			}
			acc += float64(vp.Weights[j])
			if acc >= target {
				sel = j
				break
			}
		}
		if sel == -1 { // numeric fallback: take the last unchosen
			for j := deg - 1; j >= 0; j-- {
				if mark[j] != epoch {
					sel = j
					break
				}
			}
		}
		mark[sel] = epoch
		remaining -= float64(vp.Weights[sel])
		pick(sel)
	}
}

// SampleNeighborsLocal samples up to fanout distinct weighted out-neighbors
// for each listed core vertex of s. This is the legacy copy path — fresh rng
// state, per-vertex chosen map, append-grown response — kept verbatim as the
// pre-pooling baseline behind SetSampleZeroCopy(false); the hot path is
// SampleNeighborsInto. Both consume the rng identically, so for one seed the
// two produce bitwise-equal samples.
func SampleNeighborsLocal(s *shard.Shard, loc *shard.Locator, locals []int32, fanout int32, seed int64) (*wire.SampleNResponse, error) {
	if fanout <= 0 {
		return nil, fmt.Errorf("core: fanout must be positive, got %d", fanout)
	}
	rng := rand.New(rand.NewSource(seed))
	resp := &wire.SampleNResponse{Indptr: make([]int32, 1, len(locals)+1)}
	for _, l := range locals {
		if err := s.CheckLocal(l); err != nil {
			return nil, err
		}
		vp := s.VertexProp(l)
		deg := vp.Degree()
		pick := func(j int) {
			resp.Locals = append(resp.Locals, vp.Locals[j])
			resp.Shards = append(resp.Shards, vp.Shards[j])
			resp.Globals = append(resp.Globals, int32(loc.Global(vp.Shards[j], vp.Locals[j])))
		}
		switch {
		case deg == 0:
			// No neighbors: empty row.
		case deg <= int(fanout):
			for j := 0; j < deg; j++ {
				pick(j)
			}
		default:
			// Weighted sampling without replacement via sequential
			// selection (A-Res would be overkill at GNN fanouts).
			chosen := make(map[int]bool, fanout)
			remaining := float64(vp.WDeg)
			for picked := int32(0); picked < fanout; picked++ {
				target := rng.Float64() * remaining
				acc := 0.0
				sel := -1
				for j := 0; j < deg; j++ {
					if chosen[j] {
						continue
					}
					acc += float64(vp.Weights[j])
					if acc >= target {
						sel = j
						break
					}
				}
				if sel == -1 { // numeric fallback: take the last unchosen
					for j := deg - 1; j >= 0; j-- {
						if !chosen[j] {
							sel = j
							break
						}
					}
				}
				chosen[sel] = true
				remaining -= float64(vp.Weights[sel])
				pick(sel)
			}
		}
		resp.Indptr = append(resp.Indptr, int32(len(resp.Locals)))
	}
	if len(locals) == 0 {
		resp.Indptr = []int32{}
	}
	return resp, nil
}

// SampleNeighborsInto is SampleNeighborsLocal with exact-size arrays carved
// from a (or the heap when a is nil): a sizing pre-pass computes every row's
// sample count — min(degree, fanout), no rng draws — so the fill pass writes
// into final-size arrays with no append growth. The rng consumption matches
// SampleNeighborsLocal draw for draw, so both produce bitwise-identical
// samples for a given seed. resp is a view into a: valid until the arena is
// reset.
func SampleNeighborsInto(s *shard.Shard, loc *shard.Locator, locals []int32, fanout int32, seed int64, a *mem.Arena, resp *wire.SampleNResponse) error {
	if fanout <= 0 {
		return fmt.Errorf("core: fanout must be positive, got %d", fanout)
	}
	entries := 0
	for _, l := range locals {
		if err := s.CheckLocal(l); err != nil {
			return err
		}
		if deg := s.VertexProp(l).Degree(); deg > int(fanout) {
			entries += int(fanout)
		} else {
			entries += deg
		}
	}
	if len(locals) > 0 {
		resp.Indptr = arenaI32(a, len(locals)+1)
	} else {
		resp.Indptr = []int32{}
	}
	resp.Locals = arenaI32(a, entries)
	resp.Shards = arenaI32(a, entries)
	resp.Globals = arenaI32(a, entries)

	rng := getRNG(seed)
	defer putRNG(rng)
	sc := sampleScratchPool.Get().(*sampleScratch)
	defer sampleScratchPool.Put(sc)
	off := 0
	for i, l := range locals {
		vp := s.VertexProp(l)
		deg := vp.Degree()
		pick := func(j int) {
			resp.Locals[off] = vp.Locals[j]
			resp.Shards[off] = vp.Shards[j]
			resp.Globals[off] = int32(loc.Global(vp.Shards[j], vp.Locals[j]))
			off++
		}
		switch {
		case deg == 0:
		case deg <= int(fanout):
			for j := 0; j < deg; j++ {
				pick(j)
			}
		default:
			sampleRow(vp, fanout, rng, sc, pick)
		}
		resp.Indptr[i+1] = int32(off)
	}
	return nil
}

// SampleNFuture is the future for a SampleNeighbors call.
type SampleNFuture struct {
	resp     *wire.SampleNResponse
	respVal  wire.SampleNResponse // zero-copy decode target (avoids a heap alloc)
	err      error
	fut      agg.Response
	dstShard int32

	// zeroCopy selects the view decoder; release returns the pooled payload
	// buffer / decode arena backing resp, set by the wait path that decoded
	// it.
	zeroCopy    bool
	release     func()
	releaseOnce sync.Once
}

// Release hands back the pooled buffer (or decode arena) backing this
// future's response. Call it only after every read of the response returned
// by Wait/WaitCtx — afterwards the rows may alias recycled memory.
// Idempotent and nil-safe; futures whose response owns its memory
// (copy-decoded responses, legacy local sampling) make it a no-op.
func (f *SampleNFuture) Release() {
	if f == nil || f.release == nil {
		return
	}
	f.releaseOnce.Do(f.release)
}

// Wait blocks for the sampled rows.
func (f *SampleNFuture) Wait() (*wire.SampleNResponse, error) {
	return f.WaitCtx(context.Background())
}

// WaitCtx is Wait bounded by a context.
func (f *SampleNFuture) WaitCtx(ctx context.Context) (*wire.SampleNResponse, error) {
	if f.resp != nil || f.err != nil {
		return f.resp, f.err
	}
	payload, err := f.fut.WaitCtx(ctx)
	if err != nil {
		f.err = wrapPeerErr(f.dstShard, err)
		return nil, f.err
	}
	if f.zeroCopy {
		// The decoded rows alias the pooled response payload when the host
		// allows it (the buffer goes home at f.Release); otherwise they land
		// in a pooled arena, recycled at f.Release, and the payload buffer
		// goes home right away.
		if wire.CanAlias(payload) {
			if f.err = wire.DecodeSampleNResponseView(payload, nil, &f.respVal); f.err != nil {
				f.fut.Release()
				return nil, f.err
			}
			f.release = f.fut.Release
		} else {
			arena := mem.GetArena()
			f.err = wire.DecodeSampleNResponseView(payload, arena, &f.respVal)
			f.fut.Release()
			if f.err != nil {
				mem.PutArena(arena)
				return nil, f.err
			}
			f.release = func() { mem.PutArena(arena) }
		}
		f.resp = &f.respVal
		return f.resp, nil
	}
	f.resp, f.err = wire.DecodeSampleNResponse(payload)
	f.fut.Release() // response copied into f.resp by the decode
	return f.resp, f.err
}

// SampleNeighbors samples up to fanout neighbors for each core vertex of
// dstShard, locally via shared memory or remotely via one batched RPC
// issued under ctx — through the replica router when replication is on,
// carrying ctx's trace context either way.
func (g *DistGraphStorage) SampleNeighbors(ctx context.Context, dstShard int32, locals []int32, fanout int32, seed int64) *SampleNFuture {
	if dstShard == g.ShardID {
		if g.ZeroCopy {
			// Shared-memory fast path: exact-size rows in a pooled arena,
			// recycled at Release once the caller consumed them.
			f := &SampleNFuture{}
			arena := mem.GetArena()
			if err := SampleNeighborsInto(g.Local, g.Locator, locals, fanout, seed, arena, &f.respVal); err != nil {
				mem.PutArena(arena)
				f.err = err
				return f
			}
			f.resp = &f.respVal
			f.release = func() { mem.PutArena(arena) }
			return f
		}
		resp, err := SampleNeighborsLocal(g.Local, g.Locator, locals, fanout, seed)
		return &SampleNFuture{resp: resp, err: err}
	}
	payload := wire.EncodeSampleNRequest(&wire.SampleNRequest{Seed: seed, Fanout: fanout, Locals: locals})
	return &SampleNFuture{dstShard: dstShard, zeroCopy: g.ZeroCopy,
		fut: g.Transport(ctx, dstShard, rpc.MethodSampleNeighbors, payload)}
}

// KHopResult is a sampled computation graph: the union of sampled vertices
// (global IDs) and the sampled directed edges (child -> parent hop order,
// i.e. from sampled neighbor to the vertex it was sampled for).
type KHopResult struct {
	Roots []int32 // global IDs of the roots
	Nodes []int32 // all distinct global IDs, roots first
	// Edge lists over Nodes indices.
	EdgeSrc []int32
	EdgeDst []int32
	// HopOf[i] is the hop at which Nodes[i] first appeared (0 = root).
	HopOf []int32
}

// fnode is one frontier entry: a deduplicated node key plus its index into
// the result's node list.
type fnode struct {
	key pmap.Key
	idx int32
}

// KHopSampler holds the reusable client-side state of k-hop sampling: the
// node-dedup index, the frontier double-buffer, the per-shard request
// batches, and the growing node/edge accumulators. A sampler amortizes those
// allocations across calls — each Run clears (not frees) the state, so a warm
// sampler allocates only the exact-size result it returns plus the per-shard
// request/response traffic. A sampler is NOT safe for concurrent use; give
// each sampling goroutine its own.
type KHopSampler struct {
	index          map[pmap.Key]int32 // node key -> index into nodes
	frontier, next []fnode
	byShard        [][]int32
	idxByShard     [][]int32
	futs           []*SampleNFuture
	// Result accumulators: appended during the walk, copied exact-size into
	// the returned KHopResult so the scratch capacity survives the call.
	nodes, hopOf, edgeSrc, edgeDst []int32
}

// NewKHopSampler returns an empty sampler. State is sized lazily on first
// Run, so a sampler is cheap to hold per worker.
func NewKHopSampler() *KHopSampler {
	return &KHopSampler{index: make(map[pmap.Key]int32)}
}

// RunKHopSample builds a GraphSAGE-style sampled neighborhood: starting
// from the given root vertices of g's shard, each hop h samples up to
// fanouts[h] neighbors of every frontier vertex with one batched request
// per destination shard. ctx bounds the whole sample: it is checked before
// every hop and on every remote wait.
//
// One-shot convenience over a fresh KHopSampler; callers sampling in a loop
// (mini-batch training, the serving pipeline) should hold a sampler and call
// its Run to reuse the dedup index and scratch across batches.
func RunKHopSample(ctx context.Context, g *DistGraphStorage, rootLocals []int32, fanouts []int, seed int64, bd *metrics.Breakdown) (*KHopResult, error) {
	return NewKHopSampler().Run(ctx, g, rootLocals, fanouts, seed, bd)
}

// Run performs one k-hop sample, reusing the sampler's state. See
// RunKHopSample for semantics.
func (s *KHopSampler) Run(ctx context.Context, g *DistGraphStorage, rootLocals []int32, fanouts []int, seed int64, bd *metrics.Breakdown) (*KHopResult, error) {
	clear(s.index) // keeps the buckets: warm calls insert without rehashing
	s.nodes, s.hopOf = s.nodes[:0], s.hopOf[:0]
	s.edgeSrc, s.edgeDst = s.edgeSrc[:0], s.edgeDst[:0]
	s.frontier = s.frontier[:0]
	if len(s.byShard) < int(g.NumShards) {
		s.byShard = make([][]int32, g.NumShards)
		s.idxByShard = make([][]int32, g.NumShards)
		s.futs = make([]*SampleNFuture, g.NumShards)
	}
	addNode := func(k pmap.Key, global int32, hop int32) int32 {
		if i, ok := s.index[k]; ok {
			return i
		}
		i := int32(len(s.nodes))
		s.index[k] = i
		s.nodes = append(s.nodes, global)
		s.hopOf = append(s.hopOf, hop)
		return i
	}
	roots := make([]int32, 0, len(rootLocals))
	for _, l := range rootLocals {
		if err := g.Local.CheckLocal(l); err != nil {
			return nil, err
		}
		gid := int32(g.Locator.Global(g.ShardID, l))
		roots = append(roots, gid)
		k := pmap.Key{Local: l, Shard: g.ShardID}
		idx := addNode(k, gid, 0)
		s.frontier = append(s.frontier, fnode{k, idx})
	}
	byShard, idxByShard, futs := s.byShard, s.idxByShard, s.futs
	// releaseAll returns every outstanding pooled response on early exits;
	// the happy path releases each future right after consuming its rows.
	releaseAll := func() {
		for _, f := range futs {
			f.Release()
		}
	}
	for hop, fanout := range fanouts {
		if len(s.frontier) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for j := range byShard {
			byShard[j] = byShard[j][:0]
			idxByShard[j] = idxByShard[j][:0]
			futs[j] = nil
		}
		for _, f := range s.frontier {
			byShard[f.key.Shard] = append(byShard[f.key.Shard], f.key.Local)
			idxByShard[f.key.Shard] = append(idxByShard[f.key.Shard], f.idx)
		}
		stopIssue := bd.Start(metrics.PhaseRemoteFetch)
		for j := int32(0); j < g.NumShards; j++ {
			if j == g.ShardID || len(byShard[j]) == 0 {
				continue
			}
			futs[j] = g.SampleNeighbors(ctx, j, byShard[j], int32(fanout), seed+int64(hop*101+int(j)))
		}
		stopIssue()
		if len(byShard[g.ShardID]) > 0 {
			stop := bd.Start(metrics.PhaseLocalFetch)
			futs[g.ShardID] = g.SampleNeighbors(ctx, g.ShardID, byShard[g.ShardID], int32(fanout), seed+int64(hop*101+int(g.ShardID)))
			stop()
		}
		s.next = s.next[:0]
		for j := int32(0); j < g.NumShards; j++ {
			if futs[j] == nil {
				continue
			}
			phase := metrics.PhaseRemoteFetch
			if j == g.ShardID {
				phase = metrics.PhaseLocalFetch
			}
			var resp *wire.SampleNResponse
			var err error
			bd.Time(phase, func() { resp, err = futs[j].WaitCtx(ctx) })
			if err != nil {
				releaseAll()
				return nil, fmt.Errorf("core: k-hop hop %d shard %d: %w", hop, j, err)
			}
			if resp.NumRows() != len(byShard[j]) {
				releaseAll()
				return nil, fmt.Errorf("core: k-hop response size mismatch")
			}
			for row := 0; row < resp.NumRows(); row++ {
				parentIdx := idxByShard[j][row]
				locals, shards, globals := resp.Row(row)
				for x := range locals {
					k := pmap.Key{Local: locals[x], Shard: shards[x]}
					_, existed := s.index[k]
					childIdx := addNode(k, globals[x], int32(hop+1))
					s.edgeSrc = append(s.edgeSrc, childIdx)
					s.edgeDst = append(s.edgeDst, parentIdx)
					if !existed {
						s.next = append(s.next, fnode{k, childIdx})
					}
				}
			}
			// Everything kept was copied into the accumulators/next; the
			// pooled response memory goes home before the next shard's rows
			// are consumed.
			futs[j].Release()
		}
		s.frontier, s.next = s.next, s.frontier
	}
	// Exact-size copies: the result owns its memory (callers retain it
	// arbitrarily long), while the sampler keeps the grown scratch.
	return &KHopResult{
		Roots:   roots,
		Nodes:   append(make([]int32, 0, len(s.nodes)), s.nodes...),
		HopOf:   append(make([]int32, 0, len(s.hopOf)), s.hopOf...),
		EdgeSrc: append(make([]int32, 0, len(s.edgeSrc)), s.edgeSrc...),
		EdgeDst: append(make([]int32, 0, len(s.edgeDst)), s.edgeDst...),
	}, nil
}

// Subgraph converts the sampled computation graph into a graph.Graph over
// its node indices (unit weights), for downstream model code.
func (r *KHopResult) Subgraph() (*graph.Graph, error) {
	edges := make([]graph.Edge, len(r.EdgeSrc))
	for i := range r.EdgeSrc {
		edges[i] = graph.Edge{Src: r.EdgeSrc[i], Dst: r.EdgeDst[i], Weight: 1}
	}
	return graph.FromEdges(len(r.Nodes), edges)
}
