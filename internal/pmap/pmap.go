// Package pmap holds the tables behind the engine's PPR operators (paper
// §3.3). Keys are (local ID, shard ID) node identifiers and values are
// float64 PPR or residual masses. The served engine keeps a query's whole
// state in one vertex-indexed Flat (flat.go); the parallel hash maps below
// back internal/baseline and the paper's locking ablations:
//
//   - Striped: a segmented ("submap") hash map in the style of
//     parallel-hashmap, with one mutex per submap for arbitrary concurrent
//     access, plus an owner-compute mode (ApplyOwned) that assigns each
//     submap to exactly one worker so the hot update path runs without any
//     locking — this mirrors the paper's "eliminate the need for locks by
//     assigning map update operations to each thread based on the index of
//     the submap".
//
//   - LockFree: an open-addressing map whose inserts and float accumulations
//     use compare-and-swap only, for the ablation comparing locking schemes.
package pmap

import (
	"math"
	"sync"
	"sync/atomic"
)

// Key identifies a node as a (local ID, shard ID) pair, the engine's native
// node addressing (paper §3.2.2): no global-ID conversion is ever needed.
type Key struct {
	Local int32
	Shard int32
}

// pack encodes a Key into a single comparable 64-bit integer.
func (k Key) pack() uint64 {
	return uint64(uint32(k.Shard))<<32 | uint64(uint32(k.Local))
}

// Packed returns the Key's packed 64-bit form: shard in the high half,
// local in the low, so that non-negative keys sort by (shard, local).
func (k Key) Packed() uint64 { return k.pack() }

func unpack(p uint64) Key {
	return Key{Local: int32(uint32(p)), Shard: int32(uint32(p >> 32))}
}

// hash64 is a Fibonacci/xor mix good enough to spread packed node IDs across
// submaps and table slots.
func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// NumSubmaps is the fixed segment count of Striped maps. A power of two so
// submap selection is a mask. 64 segments keeps contention negligible for
// up to a few dozen workers while keeping per-map overhead small.
const NumSubmaps = 64

type submap struct {
	mu sync.Mutex
	m  map[uint64]float64
	_  [40]byte // pad to reduce false sharing between adjacent locks
}

// Striped is a segmented concurrent map from Key to float64.
// The zero value is not usable; call NewStriped.
type Striped struct {
	subs [NumSubmaps]submap
}

// NewStriped returns an empty Striped map with capacity hint per submap.
func NewStriped(capacityHint int) *Striped {
	s := &Striped{}
	per := capacityHint / NumSubmaps
	if per < 4 {
		per = 4
	}
	for i := range s.subs {
		s.subs[i].m = make(map[uint64]float64, per)
	}
	return s
}

// SubmapIndex returns the segment that owns k. Exposed so callers can group
// work by owner for the lock-free ApplyOwned path.
func SubmapIndex(k Key) int {
	return int(hash64(k.pack()) & (NumSubmaps - 1))
}

// Get returns the value for k and whether it is present.
func (s *Striped) Get(k Key) (float64, bool) {
	p := k.pack()
	sm := &s.subs[hash64(p)&(NumSubmaps-1)]
	sm.mu.Lock()
	v, ok := sm.m[p]
	sm.mu.Unlock()
	return v, ok
}

// Set stores v for k.
func (s *Striped) Set(k Key, v float64) {
	p := k.pack()
	sm := &s.subs[hash64(p)&(NumSubmaps-1)]
	sm.mu.Lock()
	sm.m[p] = v
	sm.mu.Unlock()
}

// Add atomically adds delta to k's value (missing keys start at 0) and
// returns the new value.
func (s *Striped) Add(k Key, delta float64) float64 {
	p := k.pack()
	sm := &s.subs[hash64(p)&(NumSubmaps-1)]
	sm.mu.Lock()
	nv := sm.m[p] + delta
	sm.m[p] = nv
	sm.mu.Unlock()
	return nv
}

// Swap stores v for k and returns the previous value (0 if absent).
func (s *Striped) Swap(k Key, v float64) float64 {
	p := k.pack()
	sm := &s.subs[hash64(p)&(NumSubmaps-1)]
	sm.mu.Lock()
	old := sm.m[p]
	sm.m[p] = v
	sm.mu.Unlock()
	return old
}

// Delete removes k.
func (s *Striped) Delete(k Key) {
	p := k.pack()
	sm := &s.subs[hash64(p)&(NumSubmaps-1)]
	sm.mu.Lock()
	delete(sm.m, p)
	sm.mu.Unlock()
}

// Len returns the total number of keys. It locks each submap in turn, so the
// result is only a consistent snapshot when no writers are active.
func (s *Striped) Len() int {
	n := 0
	for i := range s.subs {
		s.subs[i].mu.Lock()
		n += len(s.subs[i].m)
		s.subs[i].mu.Unlock()
	}
	return n
}

// Range calls f for every (key, value) pair. Iteration holds one submap lock
// at a time; f must not call back into the same map.
func (s *Striped) Range(f func(Key, float64) bool) {
	for i := range s.subs {
		sm := &s.subs[i]
		sm.mu.Lock()
		for p, v := range sm.m {
			if !f(unpack(p), v) {
				sm.mu.Unlock()
				return
			}
		}
		sm.mu.Unlock()
	}
}

// Clear removes all keys, retaining the submap storage.
func (s *Striped) Clear() {
	for i := range s.subs {
		sm := &s.subs[i]
		sm.mu.Lock()
		clear(sm.m)
		sm.mu.Unlock()
	}
}

// Update is one deferred mutation for ApplyOwned: add Delta to the value of
// Key, then pass the new value (and the caller-supplied Aux) to the visitor.
// Aux lets push carry each neighbor's weighted degree to the activation
// check without a second lookup.
type Update struct {
	Key   Key
	Delta float64
	Aux   float64
}

// ApplyOwned applies a batch of updates using the owner-compute scheme:
// updates are grouped by submap index and each of the workers processes a
// disjoint set of submaps, so no locks are taken during map mutation. visit,
// when non-nil, is called with each key's value after its update plus the
// update's Aux, from the owning worker (it must be safe for concurrent
// invocation on distinct keys).
//
// This is the paper's lock-elimination strategy for the multi-threaded push.
func (s *Striped) ApplyOwned(updates []Update, workers int, visit func(Key, float64, float64)) {
	if workers <= 1 || len(updates) < 2 {
		for _, u := range updates {
			nv := s.addNoLock(u.Key, u.Delta)
			if visit != nil {
				visit(u.Key, nv, u.Aux)
			}
		}
		return
	}
	if workers > NumSubmaps {
		workers = NumSubmaps
	}
	// Group updates by submap. Single pass bucket sort.
	var counts [NumSubmaps]int32
	idxs := make([]int32, len(updates))
	for i, u := range updates {
		si := int32(SubmapIndex(u.Key))
		idxs[i] = si
		counts[si]++
	}
	var offsets [NumSubmaps + 1]int32
	for i := 0; i < NumSubmaps; i++ {
		offsets[i+1] = offsets[i] + counts[i]
	}
	order := make([]int32, len(updates))
	var cursor [NumSubmaps]int32
	copy(cursor[:], offsets[:NumSubmaps])
	for i := range updates {
		si := idxs[i]
		order[cursor[si]] = int32(i)
		cursor[si]++
	}
	// Each worker owns submaps w, w+workers, w+2*workers, ...
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for si := w; si < NumSubmaps; si += workers {
				for _, oi := range order[offsets[si]:offsets[si+1]] {
					u := updates[oi]
					nv := s.addNoLock(u.Key, u.Delta)
					if visit != nil {
						visit(u.Key, nv, u.Aux)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// addNoLock adds delta without taking the submap lock. Safe only under the
// ApplyOwned ownership discipline or single-threaded use.
func (s *Striped) addNoLock(k Key, delta float64) float64 {
	p := k.pack()
	sm := &s.subs[hash64(p)&(NumSubmaps-1)]
	nv := sm.m[p] + delta
	sm.m[p] = nv
	return nv
}

// AddSeq is the lock-free single-threaded fast path of Add. The caller must
// guarantee no concurrent access to the map (the engine's sequential push
// below the multi-threading threshold).
func (s *Striped) AddSeq(k Key, delta float64) float64 {
	return s.addNoLock(k, delta)
}

// SwapSeq is the lock-free single-threaded fast path of Swap.
func (s *Striped) SwapSeq(k Key, v float64) float64 {
	p := k.pack()
	sm := &s.subs[hash64(p)&(NumSubmaps-1)]
	old := sm.m[p]
	sm.m[p] = v
	return old
}

// --- Lock-free open addressing map ---

const (
	emptySlot = uint64(0)
	// sentinel distinguishes a stored packed key of 0 (node local=0,
	// shard=0) from an empty slot.
	keyBias = uint64(1)
)

// LockFree is an open-addressing concurrent map from Key to float64 using
// only atomic operations on the hot path (CAS key claims, CAS float-bits
// accumulate). The table grows by building a larger table under a mutex and
// migrating — growth is rare when the caller provides a sensible initial
// capacity; reads and updates remain lock-free between growths.
type LockFree struct {
	mu    sync.Mutex // guards resize only
	state atomic.Pointer[lfTable]
}

type lfTable struct {
	mask  uint64
	keys  []atomic.Uint64 // 0 = empty, else packed key + keyBias
	vals  []atomic.Uint64 // math.Float64bits
	count atomic.Int64
}

// NewLockFree returns an empty LockFree map sized for capacityHint entries.
func NewLockFree(capacityHint int) *LockFree {
	n := 64
	for n < capacityHint*2 { // keep load factor under 0.5
		n <<= 1
	}
	lf := &LockFree{}
	lf.state.Store(newLFTable(n))
	return lf
}

func newLFTable(n int) *lfTable {
	return &lfTable{
		mask: uint64(n - 1),
		keys: make([]atomic.Uint64, n),
		vals: make([]atomic.Uint64, n),
	}
}

// Get returns the value for k and whether it is present.
func (lf *LockFree) Get(k Key) (float64, bool) {
	t := lf.state.Load()
	p := k.pack() + keyBias
	i := hash64(p) & t.mask
	for {
		kv := t.keys[i].Load()
		if kv == emptySlot {
			return 0, false
		}
		if kv == p {
			return math.Float64frombits(t.vals[i].Load()), true
		}
		i = (i + 1) & t.mask
	}
}

// Add atomically adds delta to k's value and returns the new value. Missing
// keys are inserted with initial value 0 before the addition.
func (lf *LockFree) Add(k Key, delta float64) float64 {
	for {
		t := lf.state.Load()
		if v, ok := t.add(k, delta); ok {
			return v
		}
		lf.grow(t)
	}
}

// add returns ok=false when the table is too full and must grow.
func (t *lfTable) add(k Key, delta float64) (float64, bool) {
	p := k.pack() + keyBias
	i := hash64(p) & t.mask
	probes := uint64(0)
	for {
		kv := t.keys[i].Load()
		if kv == emptySlot {
			if t.count.Load()*2 >= int64(t.mask+1) {
				return 0, false // over load factor: grow
			}
			if t.keys[i].CompareAndSwap(emptySlot, p) {
				t.count.Add(1)
				kv = p
			} else {
				kv = t.keys[i].Load() // someone else claimed it
			}
		}
		if kv == p {
			for {
				old := t.vals[i].Load()
				nv := math.Float64frombits(old) + delta
				if t.vals[i].CompareAndSwap(old, math.Float64bits(nv)) {
					return nv, true
				}
			}
		}
		i = (i + 1) & t.mask
		probes++
		if probes > t.mask {
			return 0, false // table full
		}
	}
}

func (lf *LockFree) grow(old *lfTable) {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	cur := lf.state.Load()
	if cur != old {
		return // someone else grew it
	}
	// Concurrent writers may still be mutating `cur` during migration; the
	// engine's usage (grow between batches, sized hints) makes this safe in
	// practice, but to be strict we require quiescence: callers that may
	// race growth should prefer Striped. We still migrate atomically-read
	// snapshots, which is the standard fixed-point approach.
	nt := newLFTable(int(cur.mask+1) * 2)
	for i := range cur.keys {
		kv := cur.keys[i].Load()
		if kv == emptySlot {
			continue
		}
		v := math.Float64frombits(cur.vals[i].Load())
		nt.add(unpack(kv-keyBias), v)
	}
	lf.state.Store(nt)
}

// Set stores v for k (implemented as a read-modify CAS loop).
func (lf *LockFree) Set(k Key, v float64) {
	for {
		t := lf.state.Load()
		if ok := t.set(k, v); ok {
			return
		}
		lf.grow(t)
	}
}

func (t *lfTable) set(k Key, v float64) bool {
	p := k.pack() + keyBias
	i := hash64(p) & t.mask
	probes := uint64(0)
	for {
		kv := t.keys[i].Load()
		if kv == emptySlot {
			if t.count.Load()*2 >= int64(t.mask+1) {
				return false
			}
			if t.keys[i].CompareAndSwap(emptySlot, p) {
				t.count.Add(1)
				kv = p
			} else {
				kv = t.keys[i].Load()
			}
		}
		if kv == p {
			t.vals[i].Store(math.Float64bits(v))
			return true
		}
		i = (i + 1) & t.mask
		probes++
		if probes > t.mask {
			return false
		}
	}
}

// Len returns the number of keys currently stored.
func (lf *LockFree) Len() int {
	return int(lf.state.Load().count.Load())
}

// Range calls f for every (key, value) pair in the current table snapshot.
func (lf *LockFree) Range(f func(Key, float64) bool) {
	t := lf.state.Load()
	for i := range t.keys {
		kv := t.keys[i].Load()
		if kv == emptySlot {
			continue
		}
		if !f(unpack(kv-keyBias), math.Float64frombits(t.vals[i].Load())) {
			return
		}
	}
}

// Clear drops all keys by installing a fresh table of the same size.
func (lf *LockFree) Clear() {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	t := lf.state.Load()
	lf.state.Store(newLFTable(int(t.mask + 1)))
}

// Map is the interface satisfied by both implementations; the PPR operators
// are written against it so the locking scheme is an ablation axis.
type Map interface {
	Get(Key) (float64, bool)
	Set(Key, float64)
	Add(Key, float64) float64
	Len() int
	Range(func(Key, float64) bool)
	Clear()
}

var (
	_ Map = (*Striped)(nil)
	_ Map = (*LockFree)(nil)
)
