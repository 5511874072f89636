package core

import (
	"pprengine/internal/cache"
	"pprengine/internal/delta"
	"pprengine/internal/mem"
	"pprengine/internal/shard"
	"pprengine/internal/wire"
)

// NeighborBatch is the uniform view the push operator consumes, regardless
// of whether the rows came from the local shard (zero-copy VertexProp
// views) or from a decoded remote response.
type NeighborBatch interface {
	// NumRows returns the number of source vertices in the batch.
	NumRows() int
	// Row returns the i-th source vertex's neighbor tuples plus its own
	// weighted degree. Returned slices must be treated as read-only.
	Row(i int) (locals, shards []int32, weights, wdegs []float32, rowWDeg float32)
}

// localBatch wraps VertexProp views of the local shard — the shared-memory
// fast path (no serialization, no copies).
type localBatch struct {
	vps []shard.VertexProp
}

func (b *localBatch) NumRows() int { return len(b.vps) }

func (b *localBatch) Row(i int) (locals, shards []int32, weights, wdegs []float32, rowWDeg float32) {
	vp := b.vps[i]
	return vp.Locals, vp.Shards, vp.Weights, vp.WDegs, vp.WDeg
}

// LocalBatch builds the zero-copy batch for a list of core vertices of s.
// IDs must already be validated.
func LocalBatch(s *shard.Shard, locals []int32) NeighborBatch {
	vps := make([]shard.VertexProp, len(locals))
	for i, l := range locals {
		vps[i] = s.VertexProp(l)
	}
	return &localBatch{vps: vps}
}

// VPBatch wraps pre-fetched VertexProp views (e.g. halo-cache hits).
func VPBatch(vps []shard.VertexProp) NeighborBatch {
	return &localBatch{vps: vps}
}

// infosBatch adapts rows [off, off+rows) of a decoded wire.NeighborInfos to
// the NeighborBatch view: a whole response, or one fetch's row range of a
// flush response shared with other fetches (internal/agg) — the offset keeps
// that demux zero-copy.
type infosBatch struct {
	n    *wire.NeighborInfos
	off  int
	rows int
}

func (b *infosBatch) NumRows() int { return b.rows }

func (b *infosBatch) Row(i int) (locals, shards []int32, weights, wdegs []float32, rowWDeg float32) {
	l, s, w, d := b.n.Row(b.off + i)
	return l, s, w, d, b.n.RowWDeg[b.off+i]
}

// InfosBatch wraps a decoded remote response.
func InfosBatch(n *wire.NeighborInfos) NeighborBatch {
	return &infosBatch{n: n, rows: n.NumRows()}
}

// rowBatch adapts rows assembled from the dynamic neighbor-row cache (hits,
// single-flight results) to the NeighborBatch view.
type rowBatch struct {
	rows []cache.Row
}

func (b *rowBatch) NumRows() int { return len(b.rows) }

func (b *rowBatch) Row(i int) (locals, shards []int32, weights, wdegs []float32, rowWDeg float32) {
	r := b.rows[i]
	return r.Locals, r.Shards, r.Weights, r.WDegs, r.WDeg
}

// BuildInfos assembles the wire response for a batch of core vertices of s —
// the server-side "compress into CSR" step.
func BuildInfos(s *shard.Shard, locals []int32) (*wire.NeighborInfos, error) {
	return BuildInfosArena(s, locals, nil)
}

// BuildInfosArena is BuildInfos with every slice of the result carved from a
// (a nil arena falls back to the heap). The handlers use it with a pooled
// arena so a response batch costs no per-request heap allocation; the result
// is only valid until the arena is reset.
func BuildInfosArena(s *shard.Shard, locals []int32, a *mem.Arena) (*wire.NeighborInfos, error) {
	total := 0
	for _, l := range locals {
		if err := s.CheckLocal(l); err != nil {
			return nil, err
		}
		total += int(s.Indptr[l+1] - s.Indptr[l])
	}
	rows := len(locals)
	n := &wire.NeighborInfos{
		Indptr:  arenaI32(a, rows+1),
		RowWDeg: arenaF32(a, rows),
		Locals:  arenaI32(a, total),
		Shards:  arenaI32(a, total),
		Weights: arenaF32(a, total),
		WDegs:   arenaF32(a, total),
	}
	off := 0
	for i, l := range locals {
		lo, hi := s.Indptr[l], s.Indptr[l+1]
		end := off + int(hi-lo)
		copy(n.Locals[off:end], s.NbrLocal[lo:hi])
		copy(n.Shards[off:end], s.NbrShard[lo:hi])
		copy(n.Weights[off:end], s.NbrWeight[lo:hi])
		copy(n.WDegs[off:end], s.NbrWDeg[lo:hi])
		off = end
		n.Indptr[i+1] = int32(off)
		n.RowWDeg[i] = s.CoreWDeg[l]
	}
	if rows == 0 {
		// Match the historical wire shape exactly: an empty batch encodes a
		// zero-length indptr, not [0].
		n.Indptr = n.Indptr[:0]
	}
	return n, nil
}

// BuildInfosAtArena is the epoch-pinned sibling of BuildInfosArena: rows are
// resolved through the machine's delta store as of the given mutation epoch
// (base CSR + deltas-at-or-below-epoch, degree columns re-patched), then
// compressed into the same CSR wire shape. Backs MethodGetNeighborInfosAt.
func BuildInfosAtArena(store *delta.Store, sh int32, locals []int32, epoch uint64, a *mem.Arena) (*wire.NeighborInfos, error) {
	vps, err := store.VertexProps(sh, locals, epoch)
	if err != nil {
		return nil, err
	}
	total := 0
	for i := range vps {
		total += len(vps[i].Locals)
	}
	rows := len(vps)
	n := &wire.NeighborInfos{
		Indptr:  arenaI32(a, rows+1),
		RowWDeg: arenaF32(a, rows),
		Locals:  arenaI32(a, total),
		Shards:  arenaI32(a, total),
		Weights: arenaF32(a, total),
		WDegs:   arenaF32(a, total),
	}
	off := 0
	for i := range vps {
		vp := &vps[i]
		end := off + len(vp.Locals)
		copy(n.Locals[off:end], vp.Locals)
		copy(n.Shards[off:end], vp.Shards)
		copy(n.Weights[off:end], vp.Weights)
		copy(n.WDegs[off:end], vp.WDegs)
		off = end
		n.Indptr[i+1] = int32(off)
		n.RowWDeg[i] = vp.WDeg
	}
	if rows == 0 {
		n.Indptr = n.Indptr[:0] // match the historical empty-batch wire shape
	}
	return n, nil
}

func arenaI32(a *mem.Arena, n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	return a.I32(n)
}

func arenaF32(a *mem.Arena, n int) []float32 {
	if a == nil {
		return make([]float32, n)
	}
	return a.F32(n)
}
