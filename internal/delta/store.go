// Package delta is the streaming-mutation tier layered over the immutable
// per-shard CSR (ROADMAP item 4). Each machine runs one Store shared by its
// primary server, its hosted replica servers, and its compute processes. The
// Store keeps, per mutated vertex, a chain of materialized row *versions*
// (full neighbor tuples, one per mutation epoch) plus a chain of weighted-
// degree overrides, all layered over the untouched base shards:
//
//   - A query pins an epoch at admission. Every read it makes — local fetch,
//     remote fetch, halo row — resolves to "newest version at or below the
//     pinned epoch, else the base CSR", with the denormalized neighbor-degree
//     columns re-patched through the override chains. Two queries pinned at
//     different epochs see two consistent graphs through the same arrays.
//   - Mutations arrive as *resolved* batches (wire.MutationBatch): global IDs
//     already translated to (shard, local), new vertices already placed, and
//     pre-op weighted degrees already resolved by the coordinator. Applying a
//     batch is therefore deterministic pure arithmetic, so every machine —
//     owner, replica host, or bystander — lands in the identical state and a
//     failover stays score-identical.
//   - A compactor (compact.go) periodically rebuilds the based shards' CSRs
//     as of the oldest pinned epoch beside the live ones, swaps them in, folds
//     the chains below that boundary, and retires the epochs underneath.
//
// Epoch 0 is the pre-mutation base graph: a zero pinned epoch bypasses the
// store entirely and reads are byte-for-byte the legacy static path.
package delta

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pprengine/internal/graph"
	"pprengine/internal/metrics"
	"pprengine/internal/shard"
	"pprengine/internal/wire"
)

// Key addresses a vertex by its (shard, local) pair.
type Key struct {
	Shard int32
	Local int32
}

// rowV is one materialized version of a vertex's neighbor row. The wdegs
// column holds values resolved as of this version's epoch; read-time patching
// re-resolves any neighbor whose degree changed later, so stale baked values
// are never observable.
type rowV struct {
	epoch   uint64
	wdeg    float32
	locals  []int32
	shards  []int32
	weights []float32
	wdegs   []float32
}

// view returns the version as a row view of vertex local.
func (v *rowV) view(local int32) shard.VertexProp {
	return shard.VertexProp{
		Local: local, WDeg: v.wdeg,
		Locals: v.locals, Shards: v.shards,
		Weights: v.weights, WDegs: v.wdegs,
	}
}

// versionAt returns the newest version of chain at or below epoch e, or nil.
func versionAt(chain []rowV, e uint64) *rowV {
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].epoch <= e {
			return &chain[i]
		}
	}
	return nil
}

// wdegV is one weighted-degree override: vertex's out-degree as of epoch.
type wdegV struct {
	epoch uint64
	val   float32
}

// Store is one machine's delta overlay. All methods are safe for concurrent
// use; reads take a shared lock per batch, not per row.
type Store struct {
	loc *shard.Locator

	mu    sync.RWMutex
	bases map[int32]*shard.Shard // shards this machine serves (own + replicas)
	rows  map[Key][]rowV         // version chains, ascending epoch
	wdeg  map[Key][]wdegV        // degree-override chains, ascending epoch
	newV  map[Key]graph.NodeID   // appended vertices not yet baked into a base
	// overridden holds the keys of wdeg (chains are folded, never dropped): a
	// row read tests a bit per neighbor and probes the map only on a hit.
	overridden localSet

	epoch   uint64           // newest applied epoch
	retired uint64           // epochs <= retired are folded and unpinnable
	epochs  []uint64         // live epochs, ascending
	log     map[uint64][]Key // vertices whose row or degree changed at epoch
	pins    map[uint64]int   // epoch -> pinned-query refcount

	maxEpochs   int
	kick        chan struct{} // nudges a running compactor
	waitCh      chan struct{} // closed+replaced on every Apply, wakes WaitEpoch
	compactorOn bool
	compactions uint64
	opsApplied  uint64
	lastPause   time.Duration
	lastBuild   time.Duration
	compacting  *compaction // the pass in flight, if any (compact.go)
	afterBuild  func()      // test seam: runs between a pass's build and its publish
}

// NewStore builds a Store over the shards this machine serves. The locator is
// shared machine state: Apply extends it (idempotently) when vertices are
// appended.
func NewStore(loc *shard.Locator, bases map[int32]*shard.Shard) *Store {
	bs := make(map[int32]*shard.Shard, len(bases))
	for sh, b := range bases {
		bs[sh] = b
	}
	return &Store{
		loc:        loc,
		bases:      bs,
		rows:       make(map[Key][]rowV),
		wdeg:       make(map[Key][]wdegV),
		newV:       make(map[Key]graph.NodeID),
		overridden: newLocalSet(loc.NumShards()),
		log:        make(map[uint64][]Key),
		pins:       make(map[uint64]int),
		kick:       make(chan struct{}, 1),
		waitCh:     make(chan struct{}),
	}
}

// WaitEpoch blocks until the store has applied epoch e (returning nil
// immediately if it already has) or ctx ends. It closes the coordinator's
// resolve-then-broadcast window: the coordinator's local store advances to
// a new epoch before the mirrors finish delivering, so a query admitted on
// the coordinator's machine in that window can pin an epoch a remote
// machine is still about to apply. The remote's epoch-pinned read path
// waits here instead of failing — the epoch is known to exist (a pin names
// an assigned epoch), so the mirror is in flight or the machine is stale
// and the caller's deadline converts the wait into the error.
func (s *Store) WaitEpoch(ctx context.Context, e uint64) error {
	for {
		s.mu.RLock()
		cur, ch := s.epoch, s.waitCh
		s.mu.RUnlock()
		if cur >= e {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return fmt.Errorf("delta: epoch %d not applied here (store at %d): %w", e, cur, ctx.Err())
		}
	}
}

// SetMaxEpochs caps the number of live (uncompacted) epochs: when an Apply
// pushes past the cap, the store compacts — via the background compactor if
// one is running, else synchronously.
func (s *Store) SetMaxEpochs(n int) {
	s.mu.Lock()
	s.maxEpochs = n
	s.mu.Unlock()
}

// Locator returns the shared locator the store patches.
func (s *Store) Locator() *shard.Locator { return s.loc }

// Epoch returns the newest applied epoch (0 before any mutation).
func (s *Store) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// RetiredFloor returns the compaction boundary: epochs at or below it are
// folded and can no longer be pinned or diffed against.
func (s *Store) RetiredFloor() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.retired
}

// PinCurrent pins the newest epoch and returns it. A pinned epoch's deltas
// survive compaction until every pin is released. Epoch 0 (no mutations yet)
// is not refcounted — the base graph never goes away.
func (s *Store) PinCurrent() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epoch > 0 {
		s.pins[s.epoch]++
	}
	return s.epoch
}

// Unpin releases one PinCurrent reference on e. Unpinning epoch 0 is a no-op.
func (s *Store) Unpin(e uint64) {
	if e == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.pins[e]; n > 1 {
		s.pins[e] = n - 1
	} else {
		delete(s.pins, e)
	}
}

// HasBase reports whether this store serves shard sh locally.
func (s *Store) HasBase(sh int32) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bases[sh] != nil
}

// Base returns the current (possibly compacted) base CSR for shard sh.
func (s *Store) Base(sh int32) *shard.Shard {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bases[sh]
}

// Apply installs one resolved mutation batch. Batches must arrive in epoch
// order: a batch at or below the store's epoch is a mirrored retry and is
// ignored; a gap means this machine missed a broadcast (it was down) and the
// store refuses to apply, leaving itself stale — epoch-pinned reads beyond
// its epoch fail and queries fail over to an up-to-date replica.
func (s *Store) Apply(b *wire.MutationBatch) error {
	s.mu.Lock()
	if b.Epoch <= s.epoch {
		s.mu.Unlock()
		return nil
	}
	if b.Epoch != s.epoch+1 {
		at, want := s.epoch, b.Epoch
		s.mu.Unlock()
		return fmt.Errorf("delta: epoch gap: store at %d, batch is %d", at, want)
	}
	e := b.Epoch
	touched := make(map[Key]struct{})
	for i := range b.Ops {
		if err := s.applyOpLocked(e, &b.Ops[i], touched); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("delta: batch %d op %d: %w", e, i, err)
		}
	}
	keys := make([]Key, 0, len(touched))
	for k := range touched {
		keys = append(keys, k)
	}
	s.log[e] = keys
	s.epochs = append(s.epochs, e)
	s.epoch = e
	s.opsApplied += uint64(len(b.Ops))
	close(s.waitCh) // wake epoch waiters (WaitEpoch)
	s.waitCh = make(chan struct{})
	needCompact := s.maxEpochs > 0 && len(s.epochs) > s.maxEpochs
	background := s.compactorOn
	s.mu.Unlock()

	metrics.MutationBatches.Inc(1)
	metrics.MutationOps.Inc(int64(len(b.Ops)))
	if needCompact {
		if background {
			select {
			case s.kick <- struct{}{}:
			default: // compactor already nudged
			}
		} else {
			s.Compact()
		}
	}
	return nil
}

func (s *Store) applyOpLocked(e uint64, op *wire.MutOp, touched map[Key]struct{}) error {
	switch op.Kind {
	case wire.MutAddVertex:
		k := Key{op.SrcShard, op.SrcLocal}
		if err := s.loc.Extend(graph.NodeID(op.Global), op.SrcShard, op.SrcLocal); err != nil {
			return err
		}
		s.newV[k] = graph.NodeID(op.Global)
		s.rows[k] = appendVersion(s.rows[k], rowV{epoch: e})
		s.setWDegLocked(k, e, 0)
		touched[k] = struct{}{}
		metrics.VerticesAppended.Inc(1)
		return nil

	case wire.MutAddEdge:
		src := Key{op.SrcShard, op.SrcLocal}
		newW := op.SrcWDeg + op.Weight
		s.setWDegLocked(src, e, newW)
		touched[src] = struct{}{}
		if old, ok := s.rowAtLocked(src, e); ok {
			dst := Key{op.DstShard, op.DstLocal}
			dstW := op.DstWDeg
			if w, ok := s.wdegAtLocked(dst, e); ok {
				dstW = w
			}
			nv := rowV{
				epoch:   e,
				wdeg:    newW,
				locals:  append(append(make([]int32, 0, len(old.Locals)+1), old.Locals...), op.DstLocal),
				shards:  append(append(make([]int32, 0, len(old.Shards)+1), old.Shards...), op.DstShard),
				weights: append(append(make([]float32, 0, len(old.Weights)+1), old.Weights...), op.Weight),
				wdegs:   append(append(make([]float32, 0, len(old.WDegs)+1), old.WDegs...), dstW),
			}
			s.rows[src] = appendVersion(s.rows[src], nv)
		}
		metrics.EdgesInserted.Inc(1)
		return nil

	case wire.MutDelEdge:
		src := Key{op.SrcShard, op.SrcLocal}
		s.setWDegLocked(src, e, op.SrcWDeg-op.Weight)
		touched[src] = struct{}{}
		if old, ok := s.rowAtLocked(src, e); ok {
			j := -1
			for i := range old.Locals {
				if old.Shards[i] == op.DstShard && old.Locals[i] == op.DstLocal {
					j = i
					break
				}
			}
			if j < 0 {
				return fmt.Errorf("edge (%d,%d)->(%d,%d) not present",
					op.SrcShard, op.SrcLocal, op.DstShard, op.DstLocal)
			}
			n := len(old.Locals) - 1
			nv := rowV{
				epoch:   e,
				wdeg:    op.SrcWDeg - op.Weight,
				locals:  dropIdx32(old.Locals, j, n),
				shards:  dropIdx32(old.Shards, j, n),
				weights: dropIdxF(old.Weights, j, n),
				wdegs:   dropIdxF(old.WDegs, j, n),
			}
			s.rows[src] = appendVersion(s.rows[src], nv)
		}
		metrics.EdgesDeleted.Inc(1)
		return nil
	}
	return fmt.Errorf("unknown op kind %d", op.Kind)
}

func dropIdx32(a []int32, j, n int) []int32 {
	out := make([]int32, 0, n)
	out = append(out, a[:j]...)
	return append(out, a[j+1:]...)
}

func dropIdxF(a []float32, j, n int) []float32 {
	out := make([]float32, 0, n)
	out = append(out, a[:j]...)
	return append(out, a[j+1:]...)
}

// appendVersion appends v to chain, replacing the last version if it carries
// the same epoch (intra-batch re-materialization).
func appendVersion(chain []rowV, v rowV) []rowV {
	if n := len(chain); n > 0 && chain[n-1].epoch == v.epoch {
		chain[n-1] = v
		return chain
	}
	return append(chain, v)
}

func (s *Store) setWDegLocked(k Key, e uint64, v float32) {
	chain := s.wdeg[k]
	if n := len(chain); n > 0 && chain[n-1].epoch == e {
		chain[n-1].val = v
		return
	}
	s.wdeg[k] = append(chain, wdegV{epoch: e, val: v})
	s.overridden.add(k.Shard, k.Local)
}

// wdegAtLocked returns the newest degree override for k at or below e.
func (s *Store) wdegAtLocked(k Key, e uint64) (float32, bool) {
	chain := s.wdeg[k]
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].epoch <= e {
			return chain[i].val, true
		}
	}
	return 0, false
}

// rowAtLocked resolves the row of k as of epoch e: newest materialized
// version at or below e, else the base CSR, else a based shard's halo cache.
// The returned view has its degree columns patched through the override
// chains (copy-on-write — shared arrays are never scribbled on). ok=false
// means this store has no local source for the row.
func (s *Store) rowAtLocked(k Key, e uint64) (shard.VertexProp, bool) {
	if v := versionAt(s.rows[k], e); v != nil {
		return s.patchVPLocked(v.view(k.Local), k, e), true
	}
	if base := s.bases[k.Shard]; base != nil {
		// The base's own core count bounds what it answers, not the locator's
		// preprocessing-time one: a compaction bakes appended vertices into the
		// base as real core rows and drops their chains.
		if k.Local >= 0 && int(k.Local) < base.NumCore() {
			return s.patchVPLocked(base.VertexProp(k.Local), k, e), true
		}
		return shard.VertexProp{}, false
	}
	if k.Local < s.loc.BaseCoreCount(k.Shard) {
		for _, b := range s.bases {
			if vp, ok := b.HaloRow(k.Shard, k.Local); ok {
				return s.patchVPLocked(vp, k, e), true
			}
		}
	}
	return shard.VertexProp{}, false
}

// patchVPLocked re-resolves vp's denormalized degree columns as of epoch e.
// It copies WDegs only when an override actually changes a value.
func (s *Store) patchVPLocked(vp shard.VertexProp, k Key, e uint64) shard.VertexProp {
	if len(s.wdeg) == 0 {
		return vp
	}
	if s.overridden.has(k.Shard, k.Local) {
		if w, ok := s.wdegAtLocked(k, e); ok {
			vp.WDeg = w
		}
	}
	copied := false
	for i, sh := range vp.Shards {
		if !s.overridden.has(sh, vp.Locals[i]) {
			continue
		}
		w, ok := s.wdegAtLocked(Key{sh, vp.Locals[i]}, e)
		if !ok || w == vp.WDegs[i] {
			continue
		}
		if !copied {
			vp.WDegs = append([]float32(nil), vp.WDegs...)
			copied = true
		}
		vp.WDegs[i] = w
	}
	return vp
}

// VertexProps resolves a batch of rows of shard sh as of epoch e under one
// shared lock — the read behind both the local fetch and the epoch-pinned
// remote handler. It fails if e has not reached this store (stale mirror) or
// a local is unknown at e.
func (s *Store) VertexProps(sh int32, locals []int32, e uint64) ([]shard.VertexProp, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e > s.epoch {
		return nil, fmt.Errorf("delta: epoch %d not applied here (store at %d)", e, s.epoch)
	}
	if e < s.retired {
		return nil, fmt.Errorf("delta: epoch %d retired (floor %d)", e, s.retired)
	}
	out := make([]shard.VertexProp, len(locals))
	for i, l := range locals {
		vp, ok := s.rowAtLocked(Key{sh, l}, e)
		if !ok {
			return nil, fmt.Errorf("delta: shard %d local %d unknown at epoch %d", sh, l, e)
		}
		out[i] = vp
	}
	return out, nil
}

// CheckLocalAt validates that (sh, local) names a vertex that exists at
// epoch e, including appended vertices.
func (s *Store) CheckLocalAt(sh, local int32, e uint64) error {
	if local < 0 {
		return fmt.Errorf("delta: negative local %d", local)
	}
	if local < s.loc.BaseCoreCount(sh) {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if base := s.bases[sh]; base != nil && int(local) < base.NumCore() {
		return nil // appended, since baked into the base by a compaction
	}
	for _, v := range s.rows[Key{sh, local}] {
		if v.epoch <= e {
			return nil
		}
	}
	return fmt.Errorf("delta: shard %d local %d does not exist at epoch %d", sh, local, e)
}

// PatchHalo re-resolves a halo-cached row as of epoch e: the row's
// materialized version if it was mutated, else the cached row with its degree
// columns patched. Chains are global state (every machine applies every
// batch), so halo reads never need an RPC to stay epoch-consistent.
func (s *Store) PatchHalo(vp shard.VertexProp, sh, local int32, e uint64) shard.VertexProp {
	s.mu.RLock()
	defer s.mu.RUnlock()
	k := Key{sh, local}
	if v := versionAt(s.rows[k], e); v != nil {
		vp = v.view(local)
	}
	return s.patchVPLocked(vp, k, e)
}

// MutatedSince returns the set of vertices whose row or degree changed in
// (since, asOf]. ok=false means the diff is unavailable — since has been
// retired by compaction or asOf has not reached this store — and the caller
// must fall back to a full recompute.
func (s *Store) MutatedSince(since, asOf uint64) ([]Key, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if since < s.retired || asOf > s.epoch || since > asOf {
		return nil, false
	}
	set := make(map[Key]struct{})
	for _, e := range s.epochs {
		if e <= since {
			continue
		}
		if e > asOf {
			break
		}
		for _, k := range s.log[e] {
			set[k] = struct{}{}
		}
	}
	out := make([]Key, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	return out, true
}

// RowPair returns k's row at two epochs in one locked pass — the incremental
// SSPPR re-push needs (old, new) views of every mutated vertex to compute the
// residual correction. okOld/okNew report per-epoch availability.
func (s *Store) RowPair(k Key, oldE, newE uint64) (oldVP, newVP shard.VertexProp, okOld, okNew bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if oldE >= s.retired {
		oldVP, okOld = s.rowAtLocked(k, oldE)
	}
	if newE >= s.retired && newE <= s.epoch {
		newVP, okNew = s.rowAtLocked(k, newE)
	}
	return
}

// CurrentRow resolves k's row at the newest epoch, for coordinator-side
// resolution. The returned slices are copies safe to hold across mutations.
func (s *Store) CurrentRow(k Key) (locals, shards []int32, weights []float32, wdeg float32, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vp, ok := s.rowAtLocked(k, s.epoch)
	if !ok {
		return nil, nil, nil, 0, false
	}
	return append([]int32(nil), vp.Locals...), append([]int32(nil), vp.Shards...),
		append([]float32(nil), vp.Weights...), vp.WDeg, true
}

// CurrentWDeg resolves k's weighted out-degree at the newest epoch: override
// chain first, then any based shard's core or halo arrays.
func (s *Store) CurrentWDeg(k Key) (float32, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if w, ok := s.wdegAtLocked(k, s.epoch); ok {
		return w, true
	}
	if base := s.bases[k.Shard]; base != nil && int(k.Local) < base.NumCore() {
		return base.CoreWDeg[k.Local], true
	}
	for _, b := range s.bases {
		if vp, ok := b.HaloRow(k.Shard, k.Local); ok {
			return vp.WDeg, true
		}
	}
	return 0, false
}

// Snapshot is a point-in-time summary of the store, JSON-shaped for the
// pprserve /debug/epochs endpoint.
type Snapshot struct {
	Epoch         uint64         `json:"epoch"`
	RetiredFloor  uint64         `json:"retired_floor"`
	LiveEpochs    int            `json:"live_epochs"`
	PinnedEpochs  map[uint64]int `json:"pinned_epochs"`
	DeltaRows     int            `json:"delta_rows"`
	WDegOverrides int            `json:"wdeg_overrides"`
	NewVertices   int            `json:"new_vertices"`
	OpsApplied    uint64         `json:"ops_applied"`
	Compactions   uint64         `json:"compactions"`
	LastPauseNs   int64          `json:"last_compact_pause_ns"`
	LastBuildNs   int64          `json:"last_compact_build_ns"`
}

// Stats returns a snapshot of the store's state.
func (s *Store) Stats() Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pins := make(map[uint64]int, len(s.pins))
	for e, n := range s.pins {
		pins[e] = n
	}
	return Snapshot{
		Epoch:         s.epoch,
		RetiredFloor:  s.retired,
		LiveEpochs:    len(s.epochs),
		PinnedEpochs:  pins,
		DeltaRows:     len(s.rows),
		WDegOverrides: len(s.wdeg),
		NewVertices:   len(s.newV),
		OpsApplied:    s.opsApplied,
		Compactions:   s.compactions,
		LastPauseNs:   int64(s.lastPause),
		LastBuildNs:   int64(s.lastBuild),
	}
}
