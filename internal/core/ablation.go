package core

import (
	"context"
	"fmt"
	"sync"

	"pprengine/internal/agg"
	"pprengine/internal/cache"
	"pprengine/internal/mem"
	"pprengine/internal/rpc"
	"pprengine/internal/wire"
)

// The Table 3 baselines ("Single", "+Batch") predate the fetch chain's CSR
// format. They stay reachable on a bare chain — no cache, no aggregator —
// as two more sources behind the same future, and nowhere else.

// fetchAblation issues a remote neighbor fetch in cfg.Mode's wire strategy.
func (g *DistGraphStorage) fetchAblation(ctx context.Context, dst int32, locals []int32, cfg Config) *InfoFuture {
	if cfg.PinnedEpoch != 0 {
		return readyFuture[cache.Row, NeighborBatch](nil, fmt.Errorf("core: epoch-pinned fetches require FetchBatchCompress (mode %v, epoch %d)", cfg.Mode, cfg.PinnedEpoch))
	}
	f := &InfoFuture{t: neighborTier, dst: dst, n: len(locals), RemoteRows: int64(len(locals))}
	if cfg.Mode == FetchSingle {
		// One 8-byte single-ID request per vertex.
		f.src = &seqSource{ctx: ctx, g: g, dst: dst, locals: locals, zeroCopy: cfg.ZeroCopy}
		return f
	}
	payload := wire.EncodeIDList(locals)
	d := &direct{
		Response: g.Transport(ctx, dst, rpc.MethodGetNeighborInfosLoL, payload),
		zeroCopy: cfg.ZeroCopy, rows: len(locals), bytes: int64(len(payload)),
	}
	d.decode = func(p []byte, zeroCopy bool) (agg.Batch, bool, error) {
		if !zeroCopy {
			infos, err := wire.DecodeLoL(p)
			return infos, false, err
		}
		// The interleaved list-of-lists layout cannot be aliased; the decode
		// lands in a pooled arena instead, recycled at Release.
		d.arena = mem.GetArena()
		infos, err := wire.DecodeLoLView(p, d.arena)
		return infos, false, err
	}
	f.src = d
	return f
}

// seqSource is the paper's "Single" baseline: one request-response round
// trip per vertex, issued strictly in order when the result is first asked
// for — no pipelining. The round trips run inside Wait, under the issuing
// query's context.
type seqSource struct {
	ctx      context.Context
	g        *DistGraphStorage
	dst      int32
	locals   []int32
	zeroCopy bool

	once   sync.Once
	merged *wire.NeighborInfos
	err    error
}

func (s *seqSource) OnDone(func()) bool { return false }
func (s *seqSource) Release()           {}

func (s *seqSource) Accounting() (int64, int64) {
	return int64(len(s.locals)), 8 * int64(len(s.locals))
}

func (s *seqSource) Wait(context.Context) (agg.Batch, int, error) {
	s.once.Do(func() {
		merged := &wire.NeighborInfos{Indptr: []int32{0}}
		var arena *mem.Arena
		if s.zeroCopy {
			// Each response is decoded into a pooled arena reset per vertex:
			// the merge below copies what it keeps, so nothing outlives the
			// reset and the per-vertex decode stops allocating.
			arena = mem.GetArena()
			defer mem.PutArena(arena)
		}
		for _, l := range s.locals {
			one, err := s.callOne(l, arena)
			if err != nil {
				s.err = err
				return
			}
			for i := 0; i < one.NumRows(); i++ {
				l, sh, w, d := one.Row(i)
				merged.Locals = append(merged.Locals, l...)
				merged.Shards = append(merged.Shards, sh...)
				merged.Weights = append(merged.Weights, w...)
				merged.WDegs = append(merged.WDegs, d...)
				merged.Indptr = append(merged.Indptr, int32(len(merged.Locals)))
				merged.RowWDeg = append(merged.RowWDeg, one.RowWDeg[i])
			}
		}
		s.merged = merged
	})
	return s.merged, 0, s.err
}

// callOne fetches a single vertex's row.
func (s *seqSource) callOne(l int32, arena *mem.Arena) (*wire.NeighborInfos, error) {
	fut := s.g.Transport(s.ctx, s.dst, rpc.MethodGetNeighborInfoOne, wire.EncodeIDList([]int32{l}))
	defer fut.Release()
	resp, err := fut.WaitCtx(s.ctx)
	if err != nil {
		return nil, err
	}
	if arena != nil {
		arena.Reset()
		return wire.DecodeLoLView(resp, arena)
	}
	return wire.DecodeLoL(resp)
}
