package delta

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"pprengine/internal/graph"
	"pprengine/internal/metrics"
	"pprengine/internal/shard"
)

// CompactStats summarizes one compaction pass.
type CompactStats struct {
	Boundary      uint64        // epoch everything at or below was folded to
	EpochsRetired int           // live epochs pruned
	RowsBaked     int           // version chains folded or dropped
	ShardsRebuilt int           // based shards whose CSR was replaced
	Pause         time.Duration // time the store's write lock was held (plan + publish)
	Build         time.Duration // time spent rebuilding shard arrays, holding no lock
}

// Compact merges deltas into fresh base CSRs and retires old epochs. The
// boundary B is the oldest pinned epoch (or the newest epoch when nothing is
// pinned): queries pinned at or above B observe identical reads before and
// after, because every based shard's CSR is rebuilt to its exact as-of-B
// state, non-based chains are folded to a single as-of-B version, and the
// degree-override chains keep an as-of-B entry (re-patching a baked value is
// idempotent). Epochs at or below B become unpinnable; an incremental query
// whose cached epoch fell below B falls back to a full run.
//
// A pass has three steps and holds the store's write lock only for the first
// and the last, each proportional to the number of vertices mutated since the
// previous pass, never to the size of a shard:
//
//   - plan (locked): choose B and copy out the as-of-B row version and degree
//     override of every vertex mutated in (retired, B], plus the base
//     pointers;
//   - build (no lock): assemble the replacement shards beside the live ones,
//     while reads, Apply and PinCurrent carry on against the old bases;
//   - publish (locked): swap the base pointers, fold the chains at or below B
//     and retire the epochs.
//
// The plan stays true while the lock is released because (1) a version or
// override at or below B is never rewritten — Apply only replaces entries of
// the batch it is applying, (2) Apply only appends above B, and (3)
// PinCurrent only pins the newest epoch, which is at or above B. One pass
// runs at a time: a caller that finds one in flight waits for it and returns
// its stats.
func (s *Store) Compact() CompactStats {
	// Everything the locked steps fill is allocated out here: an allocation
	// under the lock can be made to help a running GC cycle first (and a pass
	// is the process's largest allocator), which holds the lock for
	// milliseconds.
	s.mu.RLock()
	named := 0 // vertices the live epochs' logs name, counted once per epoch
	for _, e := range s.epochs {
		named += len(s.log[e])
	}
	nbases := len(s.bases)
	s.mu.RUnlock()
	p := &compactPlan{
		loc:   s.loc,
		bases: make(map[int32]*shard.Shard, nbases),
		rows:  make(map[Key]rowV, named),
		wdegs: make(map[Key]float32, named),
	}
	c := &compaction{done: make(chan struct{})}

	start := time.Now()
	s.mu.Lock()
	if running := s.compacting; running != nil {
		s.mu.Unlock()
		<-running.done
		return running.stats
	}
	s.planLocked(p)
	if p.boundary <= s.retired {
		s.mu.Unlock()
		return CompactStats{Boundary: p.boundary}
	}
	s.compacting = c
	s.mu.Unlock()
	planned := time.Since(start)

	rebuilt := p.build()
	c.stats.Build = time.Since(start) - planned
	if s.afterBuild != nil {
		s.afterBuild()
	}

	publish := time.Now()
	s.mu.Lock()
	c.stats.Boundary = p.boundary
	s.publishLocked(p, rebuilt, &c.stats)
	c.stats.Pause = planned + time.Since(publish)
	s.lastPause, s.lastBuild = c.stats.Pause, c.stats.Build
	s.compacting = nil
	s.mu.Unlock()
	close(c.done)

	metrics.Compactions.Inc(1)
	metrics.EpochsRetired.Inc(int64(c.stats.EpochsRetired))
	return c.stats
}

// compaction is the pass in flight; stats is complete once done is closed.
type compaction struct {
	done  chan struct{}
	stats CompactStats
}

// compactPlan is what a pass copies out under the lock: everything build
// needs, none of it mutable by Apply.
type compactPlan struct {
	boundary uint64
	loc      *shard.Locator
	bases    map[int32]*shard.Shard // current bases; only a compaction replaces them
	// As-of-B state of the vertices mutated in (retired, B]: each one's newest
	// row version and newest degree override at or below B.
	rows  map[Key]rowV
	wdegs map[Key]float32
}

// planLocked picks the boundary and gathers the plan from the live epochs'
// mutation logs. A vertex changed in (retired, B] is named by one of those
// logs, and its newest version and override at or below B are then newer than
// retired; whatever the logs do not name is already part of the bases.
func (s *Store) planLocked(p *compactPlan) {
	b := s.epoch
	for e, n := range s.pins {
		if n > 0 && e < b {
			b = e
		}
	}
	p.boundary = b
	if b <= s.retired {
		return
	}
	for sh, base := range s.bases {
		p.bases[sh] = base
	}
	for _, e := range s.epochs {
		if e > b {
			break
		}
		for _, k := range s.log[e] {
			if v := versionAt(s.rows[k], b); v != nil {
				p.rows[k] = *v
			}
			if w, ok := s.wdegAtLocked(k, b); ok {
				p.wdegs[k] = w
			}
		}
	}
}

// build assembles the replacement of every based shard the plan changes and
// returns them by shard ID; a shard with no mutated row and no neighbor entry
// whose degree changed is left out and keeps its pointer. It reads only the
// plan and the (immutable) bases.
func (p *compactPlan) build() map[int32]*shard.Shard {
	changed := degreeTable{set: newLocalSet(p.loc.NumShards()), val: p.wdegs}
	for k := range p.wdegs {
		changed.set.add(k.Shard, k.Local)
	}

	// Hand each planned version to the tables that hold its row: the core
	// table of its own shard if based here, and the halo table of every based
	// shard that caches it. The version carries the row's own degree as of B:
	// Apply writes each override of a stored row into the version it creates
	// alongside.
	core := make(map[int32][]dirtyRow)
	halo := make(map[int32][]dirtyRow)
	for k, v := range p.rows {
		if p.bases[k.Shard] != nil {
			core[k.Shard] = append(core[k.Shard], dirtyRow{k.Local, v})
		}
		for sh, base := range p.bases {
			if ri, ok := base.HaloRowIndex(k.Shard, k.Local); ok {
				halo[sh] = append(halo[sh], dirtyRow{ri, v})
			}
		}
	}

	rebuilt := make(map[int32]*shard.Shard)
	for sh, base := range p.bases {
		if len(core[sh]) == 0 && len(halo[sh]) == 0 &&
			!changed.hits(base.NbrShard, base.NbrLocal) &&
			!changed.hits(base.HaloNbrShard, base.HaloNbrLocal) {
			continue
		}
		t := rowTable{base.Indptr, base.NbrLocal, base.NbrShard, base.NbrWeight, base.NbrWDeg, base.CoreWDeg}.splice(core[sh])
		changed.patch(t.shards, t.locals, t.wdegs)
		ns := &shard.Shard{
			ShardID: sh, NumShards: base.NumShards,
			CoreGlobal: base.CoreGlobal,
			Indptr:     t.indptr,
			NbrLocal:   t.locals, NbrShard: t.shards, NbrWeight: t.weights, NbrWDeg: t.wdegs,
			CoreWDeg: t.rowWDeg,
		}
		// Rows past the old base are the vertices appended at or below B: a
		// dense suffix, because locals are handed out in creation order.
		if n0, n := base.NumCore(), len(t.rowWDeg); n > n0 {
			ns.CoreGlobal = make([]graph.NodeID, n)
			copy(ns.CoreGlobal, base.CoreGlobal)
			for l := n0; l < n; l++ {
				ns.CoreGlobal[l] = p.loc.Global(sh, int32(l))
			}
		}
		if base.HasHaloRows() {
			h := rowTable{base.HaloIndptr, base.HaloNbrLocal, base.HaloNbrShard, base.HaloNbrWeight, base.HaloNbrWDeg, base.HaloWDeg}.splice(halo[sh])
			changed.patch(h.shards, h.locals, h.wdegs)
			ns.ShareHaloKeys(base) // a compaction never changes which halo nodes are cached
			ns.HaloIndptr = h.indptr
			ns.HaloNbrLocal, ns.HaloNbrShard, ns.HaloNbrWeight, ns.HaloNbrWDeg = h.locals, h.shards, h.weights, h.wdegs
			ns.HaloWDeg = h.rowWDeg
		}
		rebuilt[sh] = ns
	}
	return rebuilt
}

// rowTable is one CSR row table of a shard — its core rows or its cached halo
// rows: row r's neighbor tuples are [indptr[r], indptr[r+1]) of the four
// parallel columns, and rowWDeg[r] is its own weighted degree.
type rowTable struct {
	indptr  []int64
	locals  []int32
	shards  []int32
	weights []float32
	wdegs   []float32
	rowWDeg []float32
}

// dirtyRow replaces (or, past the table's end, appends) one row.
type dirtyRow struct {
	row int32
	v   rowV
}

// splice returns a copy of t with each dirty row replaced by its version and
// dirty rows at or past t's end appended (they must be dense). Every array is
// allocated once at its final length and every maximal run of untouched rows
// is moved by one copy per column.
func (t rowTable) splice(dirty []dirtyRow) rowTable {
	slices.SortFunc(dirty, func(a, b dirtyRow) int { return cmp.Compare(a.row, b.row) })
	n0 := len(t.rowWDeg)
	n, m := n0, t.indptr[n0]
	for _, d := range dirty {
		if int(d.row) < n0 {
			m -= t.indptr[d.row+1] - t.indptr[d.row]
		} else {
			n++
		}
		m += int64(len(d.v.locals))
	}
	out := rowTable{
		indptr:  make([]int64, n+1),
		locals:  make([]int32, m),
		shards:  make([]int32, m),
		weights: make([]float32, m),
		wdegs:   make([]float32, m),
		rowWDeg: make([]float32, n),
	}
	var off int64 // entries written so far
	next := 0     // first row of t not yet carried over
	carry := func(upto int) {
		lo, hi := t.indptr[next], t.indptr[upto]
		copy(out.locals[off:], t.locals[lo:hi])
		copy(out.shards[off:], t.shards[lo:hi])
		copy(out.weights[off:], t.weights[lo:hi])
		copy(out.wdegs[off:], t.wdegs[lo:hi])
		copy(out.rowWDeg[next:upto], t.rowWDeg[next:upto])
		for r, shift := next, off-lo; r < upto; r++ {
			out.indptr[r+1] = t.indptr[r+1] + shift
		}
		if (off+hi-lo)/yieldEntries != off/yieldEntries {
			runtime.Gosched()
		}
		off += hi - lo
		next = upto
	}
	for _, d := range dirty {
		r := int(d.row)
		carry(min(r, n0))
		copy(out.locals[off:], d.v.locals)
		copy(out.shards[off:], d.v.shards)
		copy(out.weights[off:], d.v.weights)
		copy(out.wdegs[off:], d.v.wdegs)
		off += int64(len(d.v.locals))
		out.indptr[r+1] = off
		out.rowWDeg[r] = d.v.wdeg
		if r < n0 {
			next = r + 1
		}
	}
	carry(n0)
	return out
}

// degreeTable holds the as-of-B weighted degree of every vertex whose degree
// changed since the previous compaction. The bitmap fronts the map: a pass
// over a shard's neighbor entries pays a bit test per entry and a map probe
// only for the few that name such a vertex.
type degreeTable struct {
	set localSet
	val map[Key]float32
}

// hits reports whether any neighbor entry names a vertex in the table.
func (d degreeTable) hits(shards, locals []int32) bool {
	for i, sh := range shards {
		if d.set.has(sh, locals[i]) {
			return true
		}
	}
	return false
}

// patch rewrites the degree column of the entries that name a vertex in the
// table.
func (d degreeTable) patch(shards, locals []int32, wdegs []float32) {
	for i, sh := range shards {
		if d.set.has(sh, locals[i]) {
			wdegs[i] = d.val[Key{sh, locals[i]}]
		}
		if i%yieldEntries == yieldEntries-1 {
			runtime.Gosched()
		}
	}
}

// yieldEntries is how many neighbor entries build copies or scans between
// two runtime.Gosched calls. A pass is background work that can run for tens
// of milliseconds on a large shard; yielding every ~100 µs keeps it from
// holding a processor against a waiting query for a scheduler time slice.
const yieldEntries = 1 << 16

// localSet is a set of (shard, local) addresses, one bitmap per shard.
type localSet [][]uint64

func newLocalSet(numShards int) localSet { return make(localSet, numShards) }

func (ls localSet) has(sh, l int32) bool {
	if uint(sh) >= uint(len(ls)) {
		return false
	}
	w := ls[sh]
	i := uint(l) >> 6
	return i < uint(len(w)) && w[i]&(1<<(uint(l)&63)) != 0
}

// add inserts (sh, l), growing sh's bitmap to reach l. Addresses outside the
// shard range cannot name a stored row and are ignored.
func (ls localSet) add(sh, l int32) {
	if uint(sh) >= uint(len(ls)) || l < 0 {
		return
	}
	i := int(l >> 6)
	if i >= len(ls[sh]) {
		ls[sh] = append(ls[sh], make([]uint64, i+1-len(ls[sh]))...)
	}
	ls[sh][i] |= 1 << (uint(l) & 63)
}

// publishLocked installs the rebuilt shards and folds everything at or below
// the boundary. Apply may have extended the planned chains while build ran,
// so each is re-cut at B from its current state.
func (s *Store) publishLocked(p *compactPlan, rebuilt map[int32]*shard.Shard, st *CompactStats) {
	b := p.boundary
	for sh, ns := range rebuilt {
		s.bases[sh] = ns
		st.ShardsRebuilt++
	}

	// Fold chains: based-shard keys are fully baked into the rebuilt CSRs,
	// so their versions at or below B are dropped; other keys keep a single
	// as-of-B version so halo patching and remote-miss materialization still
	// resolve.
	for k := range p.rows {
		chain := s.rows[k]
		i := len(chain)
		for i > 0 && chain[i-1].epoch > b {
			i--
		}
		st.RowsBaked++
		if _, based := s.bases[k.Shard]; !based {
			i-- // keep the newest version at or below B, as the fold
			chain[i].epoch = b
		}
		// Cut in place (publish allocates nothing); the dropped versions are
		// cleared so the chain's array does not keep their rows alive.
		clear(chain[:i])
		if i == len(chain) {
			delete(s.rows, k)
		} else {
			s.rows[k] = chain[i:]
		}
	}
	for k := range p.wdegs {
		chain := s.wdeg[k]
		i := len(chain)
		for i > 0 && chain[i-1].epoch > b {
			i--
		}
		chain[i-1].epoch = b
		s.wdeg[k] = chain[i-1:]
	}
	// Appended vertices of based shards with creation at or below B now have
	// real base rows; forget their append records.
	for k := range s.newV {
		if _, based := s.bases[k.Shard]; !based {
			continue
		}
		if _, still := s.rows[k]; !still {
			delete(s.newV, k)
		}
	}

	// Retire epochs at or below the boundary.
	keep := s.epochs[:0]
	for _, e := range s.epochs {
		if e <= b {
			delete(s.log, e)
			st.EpochsRetired++
		} else {
			keep = append(keep, e)
		}
	}
	s.epochs = keep
	s.retired = b
	s.compactions++
}

// NeedsCompact reports whether the live-epoch count exceeds the configured
// cap.
func (s *Store) NeedsCompact() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.maxEpochs > 0 && len(s.epochs) > s.maxEpochs
}

// StartCompactor runs Compact every interval (and immediately when an Apply
// overflows MaxEpochs) until the returned stop function is called.
func (s *Store) StartCompactor(interval time.Duration) (stop func()) {
	s.mu.Lock()
	s.compactorOn = true
	s.mu.Unlock()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				s.Compact()
			case <-s.kick:
				s.Compact()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			s.compactorOn = false
			s.mu.Unlock()
			close(done)
			wg.Wait()
		})
	}
}

// sortKeys orders keys by (shard, local) — deterministic iteration for tests
// and the incremental re-push.
func sortKeys(keys []Key) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Shard != keys[j].Shard {
			return keys[i].Shard < keys[j].Shard
		}
		return keys[i].Local < keys[j].Local
	})
}

// SortKeys exposes the canonical (shard, local) ordering of mutation keys.
func SortKeys(keys []Key) { sortKeys(keys) }
