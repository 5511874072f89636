package core

import (
	"fmt"
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
// (local ID, shard ID) in one vertex-indexed paged table (DESIGN.md §5j).
//
// The two operators exposed to the driver loop mirror the paper's PPR Ops:
// Pop drains the activated set; Push applies a batch of neighbor updates on
// the calling goroutine. Cores are filled by running queries side by side,
// not by splitting one query's push.
//
// Lifecycle: New → run → read → Release. The table and scratch behind a
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
// the table, the Pop and claim scratch, and the driver loop's slices.
type engineState struct {
	t pmap.Flat

	// Pop scratch: the drained activated set as the parallel local/shard
	// slices Pop returns, and the packed keys DeterministicPop sorts.
	popLocals []int32
	popShards []int32
	popKeys   []uint64
	// masses is the claim-phase scratch of the deterministic push: masses[i] is row i's propagating mass, 0 for stale or dangling
	// rows.
	masses []float64
	// cores is the Bound scratch: each shard's core vertex count.
	cores []int32
	// lastGrows is the grow-counter watermark already flushed to
	// metrics.PmapGrows.
	lastGrows int64

	loop loopScratch
}

// maxPooledBytes bounds the table a released state may keep: a state whose
// page pool, directories and activation list grew past it is dropped
// instead of retained, so one hub query cannot pin its footprint for the
// life of the process.
const maxPooledBytes = 4 << 20

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
	return &engineState{t: *pmap.NewFlat(64)}
}

func releaseState(st *engineState) {
	if mem.PoisonEnabled() {
		// Debug mode: scribble what the query could still be holding and drop
		// the state, so a use after Release reads values no query produces.
		st.poison()
		return
	}
	if st.t.Footprint() > maxPooledBytes {
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
// empty after a completed run; an aborted one may have left vertices behind,
// which Clear drops with the rest.
func (st *engineState) reset() {
	st.t.Clear()
	st.loop.reset()
}

func (st *engineState) poison() {
	st.t.Poison()
	fill := uint32(0xDBDBDBDB) // mem's poison byte, as an ID no shard holds
	poisonID := int32(fill)
	for _, s := range [][]int32{st.popLocals[:cap(st.popLocals)], st.popShards[:cap(st.popShards)]} {
		for i := range s {
			s[i] = poisonID
		}
	}
}

// NewSSPPR initializes the query state for the given source vertex of a
// graph whose shard s holds cores[s] core vertices: a key outside them fails
// the push that carries it. It panics when the source is outside them.
func NewSSPPR(sourceLocal, sourceShard int32, cores []int32, cfg Config) *SSPPR {
	m := newEmptySSPPR(cfg)
	m.st.t.Bound(cores)
	if err := m.seed(sourceLocal, sourceShard); err != nil {
		panic(err)
	}
	return m
}

// newEmptySSPPR draws an engine state with no seeded residual — the
// incremental path (core/incremental.go) loads a cached query's reserves and
// residuals into it before resuming the driver loop.
func newEmptySSPPR(cfg Config) *SSPPR {
	return &SSPPR{cfg: cfg, st: acquireState()}
}

// bind bounds the table to g's graph: a key of a shard g does not have, or
// past the shard's last core vertex, fails the push that carries it.
func (m *SSPPR) bind(g *DistGraphStorage) {
	st := m.st
	st.cores = st.cores[:0]
	for sh := int32(0); sh < g.NumShards; sh++ {
		st.cores = append(st.cores, g.Locator.CoreCount(sh))
	}
	st.t.Bound(st.cores)
}

// seed puts the source's unit residual in place and activates it.
func (m *SSPPR) seed(local, shard int32) error {
	s := m.st.t.Slot(shard, local)
	if s < 0 {
		return fmt.Errorf("core: source (local %d, shard %d) is not a vertex of the graph", local, shard)
	}
	m.st.t.SwapR(s, 1)
	m.st.t.Activate(s)
	return nil
}

// Release returns the query's table and scratch for reuse. Call it once the
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
// shard-ID slices and clears the set (paper §3.3): last activated first, or
// by (shard, local) under DeterministicPop. The returned slices are scratch
// owned by the SSPPR state and remain valid only until the next Pop call;
// callers that need to retain them across rounds must copy.
func (m *SSPPR) Pop() (locals, shards []int32) {
	st := m.st
	st.popLocals, st.popShards = st.t.Drain(st.popLocals[:0], st.popShards[:0])
	if len(st.popLocals) == 0 {
		return nil, nil
	}
	if m.cfg.DeterministicPop {
		st.sortPopped()
	}
	m.iterations++
	return st.popLocals, st.popShards
}

// sortPopped orders the popped vertices by (shard, local): packed order, as
// the table holds no negative ID.
func (st *engineState) sortPopped() {
	keys := st.popKeys[:0]
	for i, l := range st.popLocals {
		keys = append(keys, pmap.Key{Local: l, Shard: st.popShards[i]}.Packed())
	}
	slices.Sort(keys)
	for i, p := range keys {
		st.popLocals[i], st.popShards[i] = int32(uint32(p)), int32(p>>32)
	}
	st.popKeys = keys
}

// Push applies one fetched batch: batch row i holds the neighbor info of
// the source vertex (locals[i], shards[i]). It updates p and r and inserts
// newly activated vertices into the activated set. A neighbor outside the
// graph the query is bound to (a forged or corrupt row) fails the push.
//
// Each row's full residual is claimed (crediting p) and spread over the row's
// neighbors. Without DeterministicPop a row's claim is interleaved with its
// neighbor applies, so residual a row receives from an earlier row of the SAME
// batch propagates this round instead of waiting for the next: measurably
// fewer pushes. Deterministic runs claim every row first and apply in global
// row order afterwards — the order of the baseline engine's sequential and
// owner-compute pushes, which makes the engines bitwise identical (the
// -exp hotpath2 gate).
func (m *SSPPR) Push(batch NeighborBatch, locals, shards []int32) error {
	if batch.NumRows() != len(locals) || len(locals) != len(shards) {
		panic("core: Push batch size mismatch")
	}
	if batch.NumRows() == 0 {
		return nil
	}
	var err error
	if m.cfg.DeterministicPop {
		err = m.pushClaimsFirst(batch, locals, shards)
	} else {
		err = m.pushInterleaved(batch, locals, shards)
	}
	m.flushGrowMetrics()
	return err
}

func (m *SSPPR) pushInterleaved(batch NeighborBatch, locals, shards []int32) error {
	for i := 0; i < batch.NumRows(); i++ {
		nl, ns, nw, nd, rowWDeg := batch.Row(i)
		mass, err := m.claim(locals[i], shards[i], rowWDeg)
		if err == nil && mass != 0 {
			err = m.spread(mass/float64(rowWDeg), nl, ns, nw, nd)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (m *SSPPR) pushClaimsFirst(batch NeighborBatch, locals, shards []int32) error {
	st := m.st
	rows := batch.NumRows()
	if cap(st.masses) < rows {
		st.masses = make([]float64, rows)
	}
	masses := st.masses[:rows]
	for i := range masses {
		_, _, _, _, rowWDeg := batch.Row(i)
		var err error
		if masses[i], err = m.claim(locals[i], shards[i], rowWDeg); err != nil {
			return err
		}
	}
	for i, mass := range masses {
		if mass == 0 {
			continue
		}
		nl, ns, nw, nd, rowWDeg := batch.Row(i)
		if err := m.spread(mass/float64(rowWDeg), nl, ns, nw, nd); err != nil {
			return err
		}
	}
	return nil
}

// claim takes the residual of row (local, shard), credits alpha of it to the
// reserve, and returns the mass left to spread: 0 for a row with nothing to
// propagate this round, or a dangling one (its residual is absorbed).
func (m *SSPPR) claim(local, shard int32, rowWDeg float32) (float64, error) {
	t := &m.st.t
	k := t.Slot(shard, local)
	if k < 0 {
		return 0, badVertex(local, shard)
	}
	rv := t.SwapR(k, 0)
	if rv <= 0 {
		return 0, nil
	}
	t.AddP(k, m.cfg.Alpha*rv)
	if rowWDeg <= 0 {
		return 0, nil
	}
	m.pushes++
	return (1 - m.cfg.Alpha) * rv, nil
}

// spread adds inv·w to each neighbor's residual and activates the neighbors
// whose residual crosses eps·d.
func (m *SSPPR) spread(inv float64, nl, ns []int32, nw, nd []float32) error {
	t, eps := &m.st.t, m.cfg.Eps
	for j := range nl {
		s := t.Slot(ns[j], nl[j])
		if s < 0 {
			return badVertex(nl[j], ns[j])
		}
		if nv := t.AddR(s, float64(nw[j])*inv); nv > eps*float64(nd[j]) {
			t.Activate(s)
		}
	}
	return nil
}

// badVertex is the error of a key outside the graph the table is bound to.
func badVertex(local, shard int32) error {
	return fmt.Errorf("core: vertex (local %d, shard %d) is not in the graph", local, shard)
}

// flushGrowMetrics forwards the table's grow counter to the global metric,
// once per push instead of once per grow.
func (m *SSPPR) flushGrowMetrics() {
	st := m.st
	if d := st.t.Grows() - st.lastGrows; d > 0 {
		metrics.PmapGrows.Inc(d)
		st.lastGrows = st.t.Grows()
	}
}

// Work returns the Pop rounds and push operations performed so far.
func (m *SSPPR) Work() (iterations int, pushes int64) { return m.iterations, m.pushes }

// ScoreCount returns the number of nodes holding PPR mass.
func (m *SSPPR) ScoreCount() int { return m.st.t.Reserves() }

// Score returns one node's PPR estimate (0 when it holds no mass).
func (m *SSPPR) Score(k pmap.Key) float64 {
	if s := m.st.t.Find(k.Shard, k.Local); s >= 0 {
		return m.st.t.P(s)
	}
	return 0
}

// RangeScores iterates the PPR estimates. Call only after the driver loop
// finished (iteration requires quiescence).
func (m *SSPPR) RangeScores(f func(pmap.Key, float64) bool) { m.st.t.RangeP(f) }

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

// RangeResiduals iterates the non-zero residuals. Like RangeScores, call
// only after the driver loop finished.
func (m *SSPPR) RangeResiduals(f func(pmap.Key, float64) bool) { m.st.t.RangeR(f) }

// ResidualMass returns the total remaining residual (diagnostics: the
// engine's approximation error mass).
func (m *SSPPR) ResidualMass() float64 {
	s := 0.0
	m.st.t.RangeR(func(_ pmap.Key, v float64) bool {
		s += v
		return true
	})
	return s
}
