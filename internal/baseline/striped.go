// Package baseline holds the SSPPR engine the paper's ablations compare
// against and the served engine is checked against: pop/push over the
// mutex-striped Go maps of pmap (a parallel-hashmap in the paper's sense,
// §3.3), with the three push schemes of Table 3 and Fig. 6 — sequential,
// owner-compute (lock-eliminated) and per-submap locking. Nothing on the
// serving path imports it; internal/experiments, internal/cluster's
// EngineStriped and bench_test.go select it explicitly.
//
// Under Config.DeterministicPop every scheme but the locked one claims all of
// a batch's row residuals before applying any neighbor delta, in global row
// order — the served engine's order too, so the two are bitwise identical
// (the -exp hotpath2 gate).
package baseline

import (
	"context"
	"runtime"
	"sort"
	"sync"

	"pprengine/internal/core"
	"pprengine/internal/metrics"
	"pprengine/internal/pmap"
)

// Options selects the push scheme — the ablation axes of Table 3 and Fig. 6.
// The zero value is the paper's "simple strategy": owner-compute pushes on
// GOMAXPROCS workers for batches over 64 rows.
type Options struct {
	// Workers is the most goroutines one push forks (<= 0 means GOMAXPROCS;
	// 1 keeps every push sequential).
	Workers int
	// Threshold is the batch size above which a push forks (<= 0 means 64).
	Threshold int
	// Locked switches the forked push from the owner-compute
	// (lock-eliminated) scheme to plain per-submap locking.
	Locked bool
}

// Striped is one query's state on the striped maps: the PPR map p, the
// residual map r and the activated set. It implements core.Engine.
type Striped struct {
	cfg       core.Config
	opt       Options
	p         *pmap.Striped
	r         *pmap.Striped
	activated *pmap.ConcurrentSet

	pushes     int64
	iterations int

	// Pop and claim scratch, reused across rounds.
	popKeys   []pmap.Key
	popLocals []int32
	popShards []int32
	masses    []float64
}

// NewStriped initializes the query state for the given source vertex.
func NewStriped(sourceLocal, sourceShard int32, cfg core.Config, opt Options) *Striped {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.Threshold <= 0 {
		opt.Threshold = 64
	}
	m := &Striped{
		cfg:       cfg,
		opt:       opt,
		p:         pmap.NewStriped(1024),
		r:         pmap.NewStriped(1024),
		activated: pmap.NewConcurrentSet(256),
	}
	src := pmap.Key{Local: sourceLocal, Shard: sourceShard}
	m.r.Set(src, 1)
	m.activated.Insert(src)
	return m
}

// RunSSPPR is core.RunSSPPR on the baseline engine: same driver loop, same
// admission, tracing and epoch pinning.
func RunSSPPR(ctx context.Context, g *core.DistGraphStorage, sourceLocal int32, cfg core.Config, opt Options, bd *metrics.Breakdown) (*Striped, core.QueryStats, error) {
	m := NewStriped(sourceLocal, g.ShardID, cfg, opt)
	stats, err := core.RunEngine(ctx, g, m, cfg, bd)
	return m, stats, err
}

// Pop returns the current activated vertices as parallel local-ID and
// shard-ID slices and clears the set (paper §3.3). The slices are valid until
// the next Pop.
func (m *Striped) Pop() (locals, shards []int32) {
	m.popKeys = m.activated.Drain(m.popKeys[:0])
	keys := m.popKeys
	if len(keys) == 0 {
		return nil, nil
	}
	if m.cfg.DeterministicPop {
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Shard != keys[j].Shard {
				return keys[i].Shard < keys[j].Shard
			}
			return keys[i].Local < keys[j].Local
		})
	}
	m.iterations++
	m.popLocals = m.popLocals[:0]
	m.popShards = m.popShards[:0]
	for _, k := range keys {
		m.popLocals = append(m.popLocals, k.Local)
		m.popShards = append(m.popShards, k.Shard)
	}
	return m.popLocals, m.popShards
}

// Push applies one fetched batch: batch row i holds the neighbor info of the
// source vertex (locals[i], shards[i]). Following §3.3, the batch goes
// multi-threaded only above the configured threshold; below it a single
// thread avoids fork-join overhead. The maps take any key, so Push never
// fails: a row naming a vertex no shard holds fails its fetch instead.
func (m *Striped) Push(batch core.NeighborBatch, locals, shards []int32) error {
	if batch.NumRows() != len(locals) || len(locals) != len(shards) {
		panic("baseline: Push batch size mismatch")
	}
	if batch.NumRows() == 0 {
		return nil
	}
	workers := m.opt.Workers
	if batch.NumRows() <= m.opt.Threshold || workers <= 1 {
		m.pushSequential(batch, locals, shards)
		return nil
	}
	if m.opt.Locked {
		m.pushLocked(batch, locals, shards, workers)
		return nil
	}
	m.pushOwned(batch, locals, shards, workers)
	return nil
}

// claimRow atomically takes the full residual of a source vertex and
// credits its PPR value. Returns the propagating mass m (0 when the row is
// stale or a dangling node).
func (m *Striped) claimRow(key pmap.Key, rowWDeg float32) float64 {
	rv := m.r.Swap(key, 0)
	if rv <= 0 {
		return 0 // nothing to propagate this round
	}
	m.p.Add(key, m.cfg.Alpha*rv)
	if rowWDeg <= 0 {
		return 0 // dangling: the residual is absorbed
	}
	return (1 - m.cfg.Alpha) * rv
}

// visitResidual checks the activation condition after a residual update.
func (m *Striped) visitResidual(k pmap.Key, newVal, wdeg float64) {
	if newVal > m.cfg.Eps*wdeg {
		m.activated.Insert(k)
	}
}

// claimMasses runs the claim phase of the deterministic sequential push: row
// i's residual is swapped out and credited to p, and masses[i] receives its
// propagating mass (0 when stale or dangling).
func (m *Striped) claimMasses(batch core.NeighborBatch, locals, shards []int32) []float64 {
	rows := batch.NumRows()
	if cap(m.masses) < rows {
		m.masses = make([]float64, rows)
	}
	masses := m.masses[:rows]
	alpha := m.cfg.Alpha
	for i := 0; i < rows; i++ {
		masses[i] = 0
		key := pmap.Key{Local: locals[i], Shard: shards[i]}
		rv := m.r.SwapSeq(key, 0)
		if rv <= 0 {
			continue
		}
		m.p.AddSeq(key, alpha*rv)
		if _, _, _, _, rowWDeg := batch.Row(i); rowWDeg <= 0 {
			continue
		}
		m.pushes++
		masses[i] = (1 - alpha) * rv
	}
	return masses
}

// pushSequential is the single-threaded push over the maps' lock-free fast
// paths: no other goroutine touches this query's state while the driver is
// in Push.
func (m *Striped) pushSequential(batch core.NeighborBatch, locals, shards []int32) {
	eps := m.cfg.Eps
	if !m.cfg.DeterministicPop {
		// Single-pass: each row's claim is interleaved with its neighbor
		// applies, so residual a row receives from an earlier row of the SAME
		// batch propagates this round instead of waiting for the next. That
		// converges in measurably fewer pushes, but the row-visit interleaving
		// is not reproducible across engines — deterministic runs take the
		// claims-first path below so all engines agree bitwise.
		alpha := m.cfg.Alpha
		for i := 0; i < batch.NumRows(); i++ {
			nl, ns, nw, nd, rowWDeg := batch.Row(i)
			key := pmap.Key{Local: locals[i], Shard: shards[i]}
			rv := m.r.SwapSeq(key, 0)
			if rv <= 0 {
				continue
			}
			m.p.AddSeq(key, alpha*rv)
			if rowWDeg <= 0 {
				continue
			}
			m.pushes++
			inv := (1 - alpha) * rv / float64(rowWDeg)
			for j := range nl {
				k := pmap.Key{Local: nl[j], Shard: ns[j]}
				nv := m.r.AddSeq(k, float64(nw[j])*inv)
				if nv > eps*float64(nd[j]) {
					m.activated.InsertSeq(k)
				}
			}
		}
		return
	}
	masses := m.claimMasses(batch, locals, shards)
	for i := range masses {
		if masses[i] == 0 {
			continue
		}
		nl, ns, nw, nd, rowWDeg := batch.Row(i)
		inv := masses[i] / float64(rowWDeg)
		for j := range nl {
			k := pmap.Key{Local: nl[j], Shard: ns[j]}
			nv := m.r.AddSeq(k, float64(nw[j])*inv)
			if nv > eps*float64(nd[j]) {
				m.activated.InsertSeq(k)
			}
		}
	}
}

// pushLocked is the straightforward multi-threaded push: rows in parallel,
// every residual update takes its submap lock. Kept as the locking-scheme
// ablation; it claims per-row inside the parallel loop, so it is not
// bitwise-comparable to the other paths (it never was deterministic).
func (m *Striped) pushLocked(batch core.NeighborBatch, locals, shards []int32, workers int) {
	rows := batch.NumRows()
	var wg sync.WaitGroup
	var pushes int64
	var mu sync.Mutex
	chunk := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= rows {
			break
		}
		hi := min(lo+chunk, rows)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			local := int64(0)
			for i := lo; i < hi; i++ {
				nl, ns, nw, nd, rowWDeg := batch.Row(i)
				mass := m.claimRow(pmap.Key{Local: locals[i], Shard: shards[i]}, rowWDeg)
				if mass == 0 {
					continue
				}
				local++
				inv := mass / float64(rowWDeg)
				for j := range nl {
					k := pmap.Key{Local: nl[j], Shard: ns[j]}
					nv := m.r.Add(k, float64(nw[j])*inv)
					m.visitResidual(k, nv, float64(nd[j]))
				}
			}
			mu.Lock()
			pushes += local
			mu.Unlock()
		}(lo, hi)
	}
	wg.Wait()
	m.pushes += pushes
}

// pushOwned is the lock-eliminated push of §3.3: phase 1 claims row
// residuals and materializes all neighbor deltas; phase 2 applies them with
// ApplyOwned, which partitions updates by submap index across workers so no
// locks are taken while mutating the residual map. Claims happen before any
// apply and the concatenation below preserves global row order, so scores
// match the deterministic sequential path bitwise.
func (m *Striped) pushOwned(batch core.NeighborBatch, locals, shards []int32, workers int) {
	rows := batch.NumRows()
	perWorker := make([][]pmap.Update, workers)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var pushes int64
	chunk := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= rows {
			break
		}
		hi := min(lo+chunk, rows)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var ups []pmap.Update
			local := int64(0)
			for i := lo; i < hi; i++ {
				nl, ns, nw, nd, rowWDeg := batch.Row(i)
				mass := m.claimRow(pmap.Key{Local: locals[i], Shard: shards[i]}, rowWDeg)
				if mass == 0 {
					continue
				}
				local++
				inv := mass / float64(rowWDeg)
				for j := range nl {
					ups = append(ups, pmap.Update{
						Key:   pmap.Key{Local: nl[j], Shard: ns[j]},
						Delta: float64(nw[j]) * inv,
						Aux:   float64(nd[j]),
					})
				}
			}
			perWorker[w] = ups
			mu.Lock()
			pushes += local
			mu.Unlock()
		}(w, lo, hi)
	}
	wg.Wait()
	m.pushes += pushes
	total := 0
	for _, u := range perWorker {
		total += len(u)
	}
	updates := make([]pmap.Update, 0, total)
	for _, u := range perWorker {
		updates = append(updates, u...)
	}
	m.r.ApplyOwned(updates, workers, m.visitResidual)
}

// Work returns the Pop rounds and push operations performed so far.
func (m *Striped) Work() (iterations int, pushes int64) { return m.iterations, m.pushes }

// ScoreCount returns the number of nodes holding PPR mass.
func (m *Striped) ScoreCount() int { return m.p.Len() }

// RangeScores iterates the PPR estimates. Call only after the run finished.
func (m *Striped) RangeScores(f func(pmap.Key, float64) bool) { m.p.Range(f) }

// ResidualMass returns the total remaining residual.
func (m *Striped) ResidualMass() float64 {
	s := 0.0
	m.r.Range(func(_ pmap.Key, v float64) bool {
		s += v
		return true
	})
	return s
}
