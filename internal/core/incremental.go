package core

import (
	"context"
	"sort"
	"sync"

	"pprengine/internal/metrics"
	"pprengine/internal/pmap"
)

// Incremental SSPPR over the delta tier (ISSUE 10, ROADMAP item 4): a repeat
// query for a source whose previous reserve/residual state is cached does not
// start from r[src]=1 — it reuses the cached state and only repairs what the
// mutations since then actually disturbed.
//
// Forward push maintains the invariant
//
//	r = e_s − p/α + ((1−α)/α) · p·P
//
// where P(u,t) = w(u,t)/d(u) is the weighted transition matrix (0 for
// dangling u). When mutations change P to P′, the cached (p, r) pair is
// restored to a valid pair for the NEW graph — keeping p fixed — by the
// correction
//
//	r′(t) = r(t) + ((1−α)/α) · Σ_u p(u) · (w′(u,t)/d′(u) − w(u,t)/d(u))
//
// where the sum runs over mutated vertices u only: unmutated rows have
// identical old and new transition rows and contribute nothing. The corrected
// state is then drained by the ordinary driver loop from the (usually tiny)
// frontier of vertices the corrections re-activated.
//
// Two cases are exact to the bit against a fresh full run at the same epoch
// (under DeterministicPop, which makes runs reproducible at all):
//
//   - Footprint miss: no mutated vertex appears in keys(p) ∪ keys(r). Every
//     row the cached run fetched, and every neighbor degree it tested, is
//     unchanged — a fresh run would replay the identical pushes. The cached
//     state IS the new-epoch state; no work at all.
//   - Config.IncrementalExact with an overlapping footprint: full recompute.
//
// The default overlapping path (seeded re-push) converges to the same
// eps-approximation guarantee — signed residuals push back exactly like
// positive ones — but interleaves pushes differently than a fresh run, so its
// scores agree to approximation level, not bit level.

// ResidCache holds, per source vertex of this machine, the final state of its
// last completed SSPPR query: the reserve map p, the residual map r, and the
// epoch the run was pinned to. One cache per compute handle (sources are
// owner-compute, so a source's state never lives on two machines).
type ResidCache struct {
	mu      sync.Mutex
	max     int
	entries map[int32]*residState
	order   []int32 // insertion order, for FIFO eviction
}

type residState struct {
	epoch      uint64
	alpha, eps float64
	p, r       map[pmap.Key]float64
}

// NewResidCache builds a cache bounded to maxSources entries (<= 0 means the
// default 64). Eviction is FIFO by source insertion.
func NewResidCache(maxSources int) *ResidCache {
	if maxSources <= 0 {
		maxSources = 64
	}
	return &ResidCache{max: maxSources, entries: make(map[int32]*residState)}
}

// Len returns the number of cached sources.
func (c *ResidCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *ResidCache) get(src int32) *residState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[src]
}

func (c *ResidCache) put(src int32, st *residState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[src]; !ok {
		for len(c.entries) >= c.max && len(c.order) > 0 {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
		}
		c.order = append(c.order, src)
	}
	c.entries[src] = st
}

// advance bumps a state's epoch in place after a footprint miss proved the
// state unchanged through (st.epoch, epoch].
func (c *ResidCache) advance(src int32, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.entries[src]; st != nil && st.epoch < epoch {
		st.epoch = epoch
	}
}

// IncStats describes how one incremental query was answered.
type IncStats struct {
	// Mode is "hit" (cached state valid as-is), "repush" (corrected re-push
	// from the mutation frontier), or "full" (fresh run; also the cold path).
	Mode string
	// Epoch is the mutation epoch the answer is consistent with.
	Epoch uint64
	// Mutated is the size of the mutated-vertex set diffed against the cached
	// footprint (0 on cold runs).
	Mutated int
	// Corrections is the number of residual entries the re-push adjusted.
	Corrections int
}

// RunSSPPRIncrementalTopK answers a top-k SSPPR query for a source of this
// machine, reusing cache's state for the source when the mutation delta since
// the cached epoch permits. It always refreshes the cache with the state it
// computed, so a stream of repeat queries pays the full push cost once per
// source, not once per mutation batch. Falls back to a plain full run when
// the handle has no delta store or the diff is unavailable (cached epoch
// compacted away).
func RunSSPPRIncrementalTopK(ctx context.Context, g *DistGraphStorage, cache *ResidCache, sourceLocal int32, k int, cfg Config, bd *metrics.Breakdown) ([]ScoredNode, QueryStats, IncStats, error) {
	ic := IncStats{Mode: "full"}
	if g.Delta == nil || cache == nil {
		top, stats, err := RunSSPPRTopK(ctx, g, sourceLocal, k, cfg, bd)
		return top, stats, ic, err
	}
	// Pin the epoch here so the diff below and every fetch of whichever path
	// runs agree on one snapshot. A caller-set PinnedEpoch is honored as-is.
	epoch := cfg.PinnedEpoch
	if epoch == 0 {
		if epoch = g.Delta.PinCurrent(); epoch != 0 {
			defer g.Delta.Unpin(epoch)
			cfg.PinnedEpoch = epoch
		}
	}
	ic.Epoch = epoch

	full := func() ([]ScoredNode, QueryStats, IncStats, error) {
		ic.Mode = "full"
		metrics.IncrementalFullRuns.Inc(1)
		m, stats, err := RunSSPPR(ctx, g, sourceLocal, cfg, bd)
		if err != nil {
			return nil, stats, ic, err
		}
		cache.put(sourceLocal, snapshotState(m, epoch, cfg))
		top := m.TopK(k)
		m.Release()
		return top, stats, ic, nil
	}

	st := cache.get(sourceLocal)
	if st == nil || st.alpha != cfg.Alpha || st.eps != cfg.Eps || st.epoch > epoch {
		return full()
	}
	if st.epoch == epoch {
		// The cached run was pinned to exactly this epoch: its state is the
		// answer, verbatim.
		ic.Mode = "hit"
		metrics.IncrementalHits.Inc(1)
		return topKOfMap(st.p, k), QueryStats{}, ic, nil
	}
	mutated, ok := g.Delta.MutatedSince(st.epoch, epoch)
	if !ok {
		return full() // diff compacted away (or epoch raced ahead of the store)
	}
	ic.Mutated = len(mutated)
	overlap := false
	for _, mk := range mutated {
		key := pmap.Key{Local: mk.Local, Shard: mk.Shard}
		if _, inP := st.p[key]; inP {
			overlap = true
			break
		}
		if _, inR := st.r[key]; inR {
			overlap = true
			break
		}
	}
	if !overlap {
		// Footprint miss: the cached run never touched a mutated vertex, so a
		// fresh run at the new epoch would replay the same pushes bit for bit.
		ic.Mode = "hit"
		metrics.IncrementalHits.Inc(1)
		cache.advance(sourceLocal, epoch)
		return topKOfMap(st.p, k), QueryStats{}, ic, nil
	}
	if cfg.IncrementalExact {
		return full()
	}

	// Corrected re-push. Seed a fresh engine state with the cached reserves
	// and residuals, apply the invariant-restoring corrections, re-activate
	// whatever crossed the (possibly moved) threshold, and resume the
	// ordinary driver loop.
	ic.Mode = "repush"
	metrics.IncrementalRepushes.Inc(1)
	m := newEmptySSPPR(cfg)
	defer m.Release()
	for key, v := range st.p {
		m.st.p.Set(key, v)
	}
	for key, v := range st.r {
		m.st.r.Set(key, v)
	}
	sort.Slice(mutated, func(i, j int) bool {
		if mutated[i].Shard != mutated[j].Shard {
			return mutated[i].Shard < mutated[j].Shard
		}
		return mutated[i].Local < mutated[j].Local
	})
	factor := (1 - cfg.Alpha) / cfg.Alpha
	corr := make(map[pmap.Key]float64)
	// wdegAt collects each touched vertex's weighted degree at the NEW epoch,
	// for the activation tests below. New-row degree columns are already
	// patched to the new epoch by the store; an old-row-only neighbor keeps
	// its old value unless it is itself mutated, in which case its own
	// RowPair entry overwrites with the authoritative new degree.
	wdegAt := make(map[pmap.Key]float64)
	for _, mk := range mutated {
		ukey := pmap.Key{Local: mk.Local, Shard: mk.Shard}
		oldVP, newVP, okOld, okNew := g.Delta.RowPair(mk, st.epoch, epoch)
		if okNew {
			wdegAt[ukey] = float64(newVP.WDeg)
		}
		pv := st.p[ukey]
		if pv == 0 {
			// The cached run never pushed from u: u's transition row never
			// entered the state, so its change needs no correction. (u may
			// still hold residual; the threshold recheck below covers it.)
			continue
		}
		if okNew && newVP.WDeg > 0 {
			inv := pv * factor / float64(newVP.WDeg)
			for j := range newVP.Locals {
				t := pmap.Key{Local: newVP.Locals[j], Shard: newVP.Shards[j]}
				corr[t] += float64(newVP.Weights[j]) * inv
				if _, seen := wdegAt[t]; !seen {
					wdegAt[t] = float64(newVP.WDegs[j])
				}
			}
		}
		if okOld && oldVP.WDeg > 0 {
			inv := pv * factor / float64(oldVP.WDeg)
			for j := range oldVP.Locals {
				t := pmap.Key{Local: oldVP.Locals[j], Shard: oldVP.Shards[j]}
				corr[t] -= float64(oldVP.Weights[j]) * inv
				if _, seen := wdegAt[t]; !seen {
					wdegAt[t] = float64(oldVP.WDegs[j])
				}
			}
		}
	}
	ic.Corrections = len(corr)
	// Apply corrections in sorted key order so the seeded frontier — and with
	// DeterministicPop the whole re-push — is reproducible run to run.
	ckeys := make([]pmap.Key, 0, len(corr))
	for t := range corr {
		ckeys = append(ckeys, t)
	}
	sort.Slice(ckeys, func(i, j int) bool {
		if ckeys[i].Shard != ckeys[j].Shard {
			return ckeys[i].Shard < ckeys[j].Shard
		}
		return ckeys[i].Local < ckeys[j].Local
	})
	for _, t := range ckeys {
		if nv := m.st.r.AddP(t.Packed(), corr[t]); nv > cfg.Eps*wdegAt[t] {
			m.st.act.InsertP(t.Packed())
		}
	}
	// Mutated vertices whose residual predates the corrections: their degree
	// — and with it the activation threshold eps·d(u) — may have moved, so
	// recheck even where no correction landed.
	for _, mk := range mutated {
		ukey := pmap.Key{Local: mk.Local, Shard: mk.Shard}
		if _, corrected := corr[ukey]; corrected {
			continue
		}
		if rv, _ := m.st.r.Get(ukey); rv > cfg.Eps*wdegAt[ukey] {
			m.st.act.InsertP(ukey.Packed())
		}
	}
	stats, err := runLoop(ctx, g, m, &m.st.loop, cfg, bd)
	if err != nil {
		return nil, stats, ic, err
	}
	cache.put(sourceLocal, snapshotState(m, epoch, cfg))
	return m.TopK(k), stats, ic, nil
}

// snapshotState copies a finished run's reserve and residual maps into a
// cache entry (plain maps — the engine state itself goes back to the free
// list).
func snapshotState(m *SSPPR, epoch uint64, cfg Config) *residState {
	st := &residState{
		epoch: epoch,
		alpha: cfg.Alpha,
		eps:   cfg.Eps,
		p:     make(map[pmap.Key]float64, m.ScoreCount()),
		r:     make(map[pmap.Key]float64),
	}
	m.RangeScores(func(k pmap.Key, v float64) bool {
		st.p[k] = v
		return true
	})
	m.RangeResiduals(func(k pmap.Key, v float64) bool {
		if v != 0 {
			st.r[k] = v
		}
		return true
	})
	return st
}
