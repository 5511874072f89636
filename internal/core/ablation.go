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
		// One 8-byte single-ID request per vertex (retries excluded).
		f.src = &seqSource{ctx: ctx, g: g, dst: dst, locals: locals, retry: cfg.Retry, zeroCopy: cfg.ZeroCopy}
		return f
	}
	payload := wire.EncodeIDList(locals)
	d := &direct{
		fut:      g.Transport(ctx, dst, rpc.MethodGetNeighborInfosLoL, payload),
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
// for — no pipelining. It is "done" from the start; the round trips run
// inside Result, under the issuing query's context.
type seqSource struct {
	ctx      context.Context
	g        *DistGraphStorage
	dst      int32
	locals   []int32
	retry    rpc.RetryPolicy // bounds transient per-vertex retries
	retried  int64           // backoff rounds taken
	zeroCopy bool

	once   sync.Once
	merged *wire.NeighborInfos
	err    error
}

var closedChan = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (s *seqSource) Done() <-chan struct{} { return closedChan }
func (s *seqSource) Release()              {}

func (s *seqSource) Accounting() (int64, int64) {
	return int64(len(s.locals)), 8 * int64(len(s.locals))
}

func (s *seqSource) Result() (agg.Batch, int, error) {
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

// callOne fetches a single vertex's row, retrying transient failures when
// the config opted in and the handle has a direct client to retry on (a
// routed transport's failover subsumes same-destination retries).
func (s *seqSource) callOne(l int32, arena *mem.Arena) (*wire.NeighborInfos, error) {
	payload := wire.EncodeIDList([]int32{l})
	var resp []byte
	var err error
	if c := s.g.Clients[s.dst]; c != nil && s.retry.MaxAttempts != 0 {
		p := s.retry
		p.OnRetry = func(int, error) { s.retried++ }
		resp, err = c.CallRetry(s.ctx, rpc.MethodGetNeighborInfoOne, payload, p)
	} else {
		fut := s.g.Transport(s.ctx, s.dst, rpc.MethodGetNeighborInfoOne, payload)
		defer fut.Release()
		resp, err = fut.WaitCtx(s.ctx)
	}
	if err != nil {
		return nil, err
	}
	if arena != nil {
		arena.Reset()
		return wire.DecodeLoLView(resp, arena)
	}
	return wire.DecodeLoL(resp)
}
