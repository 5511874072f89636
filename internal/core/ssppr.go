package core

import (
	"cmp"
	"runtime"
	"slices"
	"sync"

	"pprengine/internal/mem"
	"pprengine/internal/metrics"
	"pprengine/internal/pmap"
)

// SSPPR holds the state of one single-source PPR query on the machine that
// owns the source (the owner-compute rule of §3.1): the PPR map p, the
// residual map r, and the activated-vertex set, all keyed by
// (local ID, shard ID) in open-addressed flat tables (DESIGN.md §5j).
//
// The two operators exposed to the driver loop mirror the paper's PPR Ops:
// Pop drains the activated set; Push applies a batch of neighbor updates on
// the calling goroutine. Cores are filled by running queries side by side,
// not by splitting one query's push.
//
// Lifecycle: New → run → read → Release. The tables and scratch behind a
// query come from a bounded process-wide free list and go back to it on
// Release, reset in time proportional to what the query touched; after
// Release every method panics. A state that is never released is ordinary
// garbage, so a caller may keep reading scores for as long as it likes.
type SSPPR struct {
	cfg Config
	st  *engineState // nil once Released

	pushes     int64 // applied push operations
	iterations int   // Pop rounds
}

// engineState is everything a query allocates that the next one can reuse:
// the tables, the Pop and claim scratch, and the driver loop's slices.
type engineState struct {
	p, r *pmap.Flat
	act  *pmap.FlatSet

	// Pop scratch: the drained keys and their split into the parallel
	// local/shard slices Pop returns.
	popKeys   []pmap.Key
	popLocals []int32
	popShards []int32
	// masses is the claim-phase scratch of the deterministic push: masses[i] is row i's propagating mass, 0 for stale or dangling
	// rows.
	masses []float64
	// lastGrows is the grow-counter watermark already flushed to
	// metrics.PmapGrows.
	lastGrows int64

	loop loopScratch
}

// maxPooledSlots bounds the tables a released state may keep: a state whose
// reserve or residual table grew past it (16 bytes a slot, so 2 MiB a table)
// is dropped instead of retained, so one hub query cannot pin its footprint
// for the life of the process.
const maxPooledSlots = 1 << 17

// freeStates is the process-wide free list of engine states, at most
// GOMAXPROCS of them: more queries than cores in flight means the extra ones
// allocate, and their states are dropped on Release.
var freeStates struct {
	mu   sync.Mutex
	idle []*engineState
}

func acquireState() *engineState {
	fs := &freeStates
	fs.mu.Lock()
	if n := len(fs.idle); n > 0 {
		st := fs.idle[n-1]
		fs.idle[n-1] = nil
		fs.idle = fs.idle[:n-1]
		fs.mu.Unlock()
		return st
	}
	fs.mu.Unlock()
	return &engineState{p: pmap.NewFlat(1024), r: pmap.NewFlat(1024), act: pmap.NewFlatSet(256)}
}

func releaseState(st *engineState) {
	if mem.PoisonEnabled() {
		// Debug mode: scribble what the query could still be holding and drop
		// the state, so a use after Release reads values no query produces.
		st.poison()
		return
	}
	if st.p.Cap() > maxPooledSlots || st.r.Cap() > maxPooledSlots {
		return
	}
	st.reset()
	fs := &freeStates
	fs.mu.Lock()
	if len(fs.idle) < runtime.GOMAXPROCS(0) {
		fs.idle = append(fs.idle, st)
	}
	fs.mu.Unlock()
}

// reset empties the state for the next query. The activated set is already
// empty after a completed run; an aborted one may have left vertices behind.
func (st *engineState) reset() {
	st.p.Clear()
	st.r.Clear()
	st.popKeys = st.act.Drain(st.popKeys[:0])[:0]
	st.loop.reset()
}

func (st *engineState) poison() {
	st.p.Poison()
	st.r.Poison()
	fill := uint32(0xDBDBDBDB) // mem's poison byte, as an ID no shard holds
	poisonID := int32(fill)
	for _, s := range [][]int32{st.popLocals[:cap(st.popLocals)], st.popShards[:cap(st.popShards)]} {
		for i := range s {
			s[i] = poisonID
		}
	}
}

// NewSSPPR initializes the query state for the given source vertex.
func NewSSPPR(sourceLocal, sourceShard int32, cfg Config) *SSPPR {
	m := newEmptySSPPR(cfg)
	src := pmap.Key{Local: sourceLocal, Shard: sourceShard}
	m.st.r.Set(src, 1)
	m.st.act.InsertP(src.Packed())
	return m
}

// newEmptySSPPR draws an engine state with no seeded residual — the
// incremental path (core/incremental.go) loads a cached query's reserves and
// residuals into it before resuming the driver loop.
func newEmptySSPPR(cfg Config) *SSPPR {
	return &SSPPR{cfg: cfg, st: acquireState()}
}

// Release returns the query's tables and scratch for reuse. Call it once the
// scores have been extracted (TopK, RangeScores, ...): the SSPPR and every
// slice Pop returned are invalid afterwards. Nil-safe and idempotent; not
// calling it is allowed and merely leaves the state to the garbage collector.
func (m *SSPPR) Release() {
	if m == nil || m.st == nil {
		return
	}
	st := m.st
	m.st = nil
	releaseState(st)
}

// Pop returns the current activated vertices as parallel local-ID and
// shard-ID slices and clears the set (paper §3.3). The returned slices are
// scratch owned by the SSPPR state and remain valid only until the next Pop
// call; callers that need to retain them across rounds must copy.
func (m *SSPPR) Pop() (locals, shards []int32) {
	st := m.st
	st.popKeys = st.act.Drain(st.popKeys[:0])
	keys := st.popKeys
	if len(keys) == 0 {
		return nil, nil
	}
	if m.cfg.DeterministicPop {
		slices.SortFunc(keys, compareKeys)
	}
	m.iterations++
	st.popLocals = st.popLocals[:0]
	st.popShards = st.popShards[:0]
	for _, k := range keys {
		st.popLocals = append(st.popLocals, k.Local)
		st.popShards = append(st.popShards, k.Shard)
	}
	return st.popLocals, st.popShards
}

// compareKeys orders keys by (shard, local) — the DeterministicPop order.
func compareKeys(a, b pmap.Key) int {
	if a.Shard != b.Shard {
		return cmp.Compare(a.Shard, b.Shard)
	}
	return cmp.Compare(a.Local, b.Local)
}

// Push applies one fetched batch: batch row i holds the neighbor info of
// the source vertex (locals[i], shards[i]). It updates p and r and inserts
// newly activated vertices into the activated set.
//
// Each row's full residual is claimed (crediting p) and spread over the row's
// neighbors. Without DeterministicPop a row's claim is interleaved with its
// neighbor applies, so residual a row receives from an earlier row of the SAME
// batch propagates this round instead of waiting for the next: measurably
// fewer pushes. Deterministic runs claim every row first and apply in global
// row order afterwards — the order of the baseline engine's sequential and
// owner-compute pushes, which makes the engines bitwise identical (the
// -exp hotpath2 gate).
func (m *SSPPR) Push(batch NeighborBatch, locals, shards []int32) {
	if batch.NumRows() != len(locals) || len(locals) != len(shards) {
		panic("core: Push batch size mismatch")
	}
	if batch.NumRows() == 0 {
		return
	}
	if m.cfg.DeterministicPop {
		m.pushClaimsFirst(batch, locals, shards)
	} else {
		m.pushInterleaved(batch, locals, shards)
	}
	m.flushGrowMetrics()
}

func (m *SSPPR) pushInterleaved(batch NeighborBatch, locals, shards []int32) {
	p, r, act := m.st.p, m.st.r, m.st.act
	eps, alpha := m.cfg.Eps, m.cfg.Alpha
	for i := 0; i < batch.NumRows(); i++ {
		nl, ns, nw, nd, rowWDeg := batch.Row(i)
		k := (pmap.Key{Local: locals[i], Shard: shards[i]}).Packed()
		rv := r.SwapP(k, 0)
		if rv <= 0 {
			continue // nothing to propagate this round
		}
		p.AddP(k, alpha*rv)
		if rowWDeg <= 0 {
			continue // dangling: the residual is absorbed
		}
		m.pushes++
		inv := (1 - alpha) * rv / float64(rowWDeg)
		for j := range nl {
			kp := (pmap.Key{Local: nl[j], Shard: ns[j]}).Packed()
			if nv := r.AddP(kp, float64(nw[j])*inv); nv > eps*float64(nd[j]) {
				act.InsertP(kp)
			}
		}
	}
}

func (m *SSPPR) pushClaimsFirst(batch NeighborBatch, locals, shards []int32) {
	st := m.st
	p, r, act := st.p, st.r, st.act
	eps, alpha := m.cfg.Eps, m.cfg.Alpha
	rows := batch.NumRows()
	if cap(st.masses) < rows {
		st.masses = make([]float64, rows)
	}
	masses := st.masses[:rows]
	for i := 0; i < rows; i++ {
		masses[i] = 0
		k := (pmap.Key{Local: locals[i], Shard: shards[i]}).Packed()
		rv := r.SwapP(k, 0)
		if rv <= 0 {
			continue
		}
		p.AddP(k, alpha*rv)
		if _, _, _, _, rowWDeg := batch.Row(i); rowWDeg <= 0 {
			continue
		}
		m.pushes++
		masses[i] = (1 - alpha) * rv
	}
	for i := range masses {
		if masses[i] == 0 {
			continue
		}
		nl, ns, nw, nd, rowWDeg := batch.Row(i)
		inv := masses[i] / float64(rowWDeg)
		for j := range nl {
			kp := (pmap.Key{Local: nl[j], Shard: ns[j]}).Packed()
			if nv := r.AddP(kp, float64(nw[j])*inv); nv > eps*float64(nd[j]) {
				act.InsertP(kp)
			}
		}
	}
}

// flushGrowMetrics forwards the tables' grow counters to the global metric,
// once per push instead of once per grow.
func (m *SSPPR) flushGrowMetrics() {
	st := m.st
	grows := st.p.Grows() + st.r.Grows() + st.act.Grows()
	if d := grows - st.lastGrows; d > 0 {
		metrics.PmapGrows.Inc(d)
		st.lastGrows = grows
	}
}

// Work returns the Pop rounds and push operations performed so far.
func (m *SSPPR) Work() (iterations int, pushes int64) { return m.iterations, m.pushes }

// ScoreCount returns the number of nodes holding PPR mass.
func (m *SSPPR) ScoreCount() int { return m.st.p.Len() }

// Score returns one node's PPR estimate (0 when it holds no mass).
func (m *SSPPR) Score(k pmap.Key) float64 {
	v, _ := m.st.p.Get(k)
	return v
}

// RangeScores iterates the PPR estimates. Call only after the driver loop
// finished (iteration requires quiescence).
func (m *SSPPR) RangeScores(f func(pmap.Key, float64) bool) { m.st.p.Range(f) }

// Scores returns the computed PPR estimates. Call after the driver loop has
// drained the activated set.
func (m *SSPPR) Scores() map[pmap.Key]float64 {
	out := make(map[pmap.Key]float64, m.ScoreCount())
	m.RangeScores(func(k pmap.Key, v float64) bool {
		out[k] = v
		return true
	})
	return out
}

// RangeResiduals iterates the residual map. Like RangeScores, call only
// after the driver loop finished.
func (m *SSPPR) RangeResiduals(f func(pmap.Key, float64) bool) { m.st.r.Range(f) }

// ResidualMass returns the total remaining residual (diagnostics: the
// engine's approximation error mass).
func (m *SSPPR) ResidualMass() float64 {
	s := 0.0
	m.st.r.Range(func(_ pmap.Key, v float64) bool {
		s += v
		return true
	})
	return s
}
