// Flat and FlatSet are the open-addressed, single-owner probe tables of the
// SSPPR engine (DESIGN.md §5j). Where Striped pays Go-map overhead (hashing
// twice, bucket chains, pointer-heavy internals) plus a mutex per submap, a
// Flat stripe is one bare open-addressed array of 16-byte {key, value} slots
// — packed keys biased by one so zero means empty — probed linearly from the
// upper bits of the same hash that picked the stripe, so a residual update
// touches one cache line. There are no locks and no atomics: a table belongs
// to one query, and one goroutine at a time runs that query's pop and push.
// The stripes remain so that growth rehashes 1/64 of a table at a time.
//
// Both tables keep a dense per-stripe list of the slots they filled, in
// insertion order. Iteration follows the list, so its order depends only on
// the order keys were inserted, never on table capacity; and clearing costs
// time proportional to the entries a query touched, which is what lets one
// table serve query after query (core's recycled engine state).
package pmap

import "math"

// submapBits is log2(NumSubmaps): stripe selection uses the hash's low
// submapBits bits, slot probing starts from the bits above them, so the two
// derivations never correlate.
const submapBits = 6

// flatMinStripeCap is the smallest per-stripe table (power of two).
const flatMinStripeCap = 8

// stripeCapFor sizes one stripe's table for a total capacity hint, keeping
// the load factor under 3/4 at the hinted size.
func stripeCapFor(capacityHint int) int {
	per := capacityHint / NumSubmaps
	n := flatMinStripeCap
	for n*3 < per*4 {
		n <<= 1
	}
	return n
}

// resetSparse reports whether clearing a table of capacity slots by walking
// its used list touches less memory than one memclr of the whole table.
func resetSparse(used, capacity int) bool { return used*4 < capacity }

type flatSlot struct {
	key uint64 // packed key + keyBias; 0 = empty
	val float64
}

type flatStripe struct {
	slots []flatSlot
	used  []int32 // insertion-ordered indices of the occupied slots
}

// Flat is a striped open-addressed map from Key to float64 with no internal
// synchronization: single-goroutine use only.
type Flat struct {
	stripes [NumSubmaps]flatStripe
	grows   int64
}

// NewFlat returns an empty Flat map sized for capacityHint total entries.
func NewFlat(capacityHint int) *Flat {
	f := &Flat{}
	per := stripeCapFor(capacityHint)
	for i := range f.stripes {
		f.stripes[i].slots = make([]flatSlot, per)
	}
	return f
}

// Packed returns the Key's packed 64-bit form, the representation the flat
// tables take on the hot path.
func (k Key) Packed() uint64 { return k.pack() }

// slot returns packed key p's slot, claiming an empty one (value 0) when the
// key is absent.
func (f *Flat) slot(p uint64) *flatSlot {
	h := hash64(p)
	st := &f.stripes[h&(NumSubmaps-1)]
	if len(st.used)*4 >= len(st.slots)*3 {
		f.growStripe(st)
	}
	b := p + keyBias
	slots := st.slots
	mask := uint64(len(slots) - 1)
	i := (h >> submapBits) & mask
	for {
		s := &slots[i]
		if s.key == b {
			return s
		}
		if s.key == emptySlot {
			s.key = b
			st.used = append(st.used, int32(i))
			return s
		}
		i = (i + 1) & mask
	}
}

// AddP adds delta to packed key p's value (missing keys start at 0) and
// returns the new value.
func (f *Flat) AddP(p uint64, delta float64) float64 {
	s := f.slot(p)
	s.val += delta
	return s.val
}

// SwapP stores v for packed key p and returns the previous value (0 if
// absent).
func (f *Flat) SwapP(p uint64, v float64) float64 {
	s := f.slot(p)
	old := s.val
	s.val = v
	return old
}

// growStripe doubles one stripe's table, reinserting the entries in
// insertion order so the used list stays valid.
func (f *Flat) growStripe(st *flatStripe) {
	old := st.slots
	slots := make([]flatSlot, len(old)*2)
	mask := uint64(len(slots) - 1)
	for idx, sl := range st.used {
		e := old[sl]
		i := (hash64(e.key-keyBias) >> submapBits) & mask
		for slots[i].key != emptySlot {
			i = (i + 1) & mask
		}
		slots[i] = e
		st.used[idx] = int32(i)
	}
	st.slots = slots
	f.grows++
}

// Grows returns how many stripe rehashes this map has performed (the
// ppr_pmap_grows_total feed; growth vanishes once a recycled table has seen
// the workload's largest query).
func (f *Flat) Grows() int64 { return f.grows }

// Get returns the value for k and whether it is present.
func (f *Flat) Get(k Key) (float64, bool) {
	p := k.pack()
	h := hash64(p)
	slots := f.stripes[h&(NumSubmaps-1)].slots
	b := p + keyBias
	mask := uint64(len(slots) - 1)
	i := (h >> submapBits) & mask
	for {
		s := &slots[i]
		if s.key == b {
			return s.val, true
		}
		if s.key == emptySlot {
			return 0, false
		}
		i = (i + 1) & mask
	}
}

// Set stores v for k.
func (f *Flat) Set(k Key, v float64) { f.slot(k.pack()).val = v }

// Len returns the total number of keys.
func (f *Flat) Len() int {
	n := 0
	for i := range f.stripes {
		n += len(f.stripes[i].used)
	}
	return n
}

// Cap returns the total number of slots across stripes — what the map
// retains when it is kept for reuse.
func (f *Flat) Cap() int {
	n := 0
	for i := range f.stripes {
		n += len(f.stripes[i].slots)
	}
	return n
}

// Range calls f2 for every (key, value) pair, stripe-major and in insertion
// order within a stripe.
func (f *Flat) Range(f2 func(Key, float64) bool) {
	for i := range f.stripes {
		st := &f.stripes[i]
		for _, sl := range st.used {
			e := st.slots[sl]
			if !f2(unpack(e.key-keyBias), e.val) {
				return
			}
		}
	}
}

// Clear removes all keys, retaining the stripe storage. It costs time
// proportional to the entries present: a sparse stripe resets slot by slot
// along its used list, a dense one with a single memclr.
func (f *Flat) Clear() {
	for i := range f.stripes {
		st := &f.stripes[i]
		if resetSparse(len(st.used), len(st.slots)) {
			for _, sl := range st.used {
				st.slots[sl] = flatSlot{}
			}
		} else {
			clear(st.slots)
		}
		st.used = st.used[:0]
	}
}

// PoisonValue is what Poison leaves in every value: the 0xDB fill of
// internal/mem's poison mode, read as a float64 (about -1.7e132).
var PoisonValue = math.Float64frombits(0xDBDBDBDBDBDBDBDB)

// Poison overwrites every stored value with PoisonValue, keys and lookups
// intact, so that a reader of a map its owner has given up sees scores no
// query produces instead of plausible stale ones (debug aid, see
// mem.SetPoison).
func (f *Flat) Poison() {
	for i := range f.stripes {
		st := &f.stripes[i]
		for _, sl := range st.used {
			st.slots[sl].val = PoisonValue
		}
	}
}

type flatSetStripe struct {
	keys []uint64 // probe table: packed key + keyBias; 0 = empty
	used []int32  // insertion-ordered slot indices into keys
}

// FlatSet is the engine's activated-vertex set: a striped probe table for
// O(1) dedup plus the dense per-stripe insertion list, so draining is a
// straight scan instead of a table walk. Single-goroutine use, like Flat.
type FlatSet struct {
	stripes [NumSubmaps]flatSetStripe
	grows   int64
}

// NewFlatSet returns an empty set sized for capacityHint total keys.
func NewFlatSet(capacityHint int) *FlatSet {
	s := &FlatSet{}
	per := stripeCapFor(capacityHint)
	for i := range s.stripes {
		s.stripes[i].keys = make([]uint64, per)
	}
	return s
}

// InsertP adds packed key p and reports whether it was newly added.
func (s *FlatSet) InsertP(p uint64) bool {
	h := hash64(p)
	st := &s.stripes[h&(NumSubmaps-1)]
	if len(st.used)*4 >= len(st.keys)*3 {
		s.growStripe(st)
	}
	b := p + keyBias
	keys := st.keys
	mask := uint64(len(keys) - 1)
	i := (h >> submapBits) & mask
	for {
		k := keys[i]
		if k == b {
			return false
		}
		if k == emptySlot {
			keys[i] = b
			st.used = append(st.used, int32(i))
			return true
		}
		i = (i + 1) & mask
	}
}

// growStripe doubles one stripe's probe table, reinserting the live keys in
// insertion order so the used list stays valid.
func (s *FlatSet) growStripe(st *flatSetStripe) {
	n := len(st.keys) * 2
	keys := make([]uint64, n)
	mask := uint64(n - 1)
	for idx, sl := range st.used {
		b := st.keys[sl]
		i := (hash64(b-keyBias) >> submapBits) & mask
		for keys[i] != emptySlot {
			i = (i + 1) & mask
		}
		keys[i] = b
		st.used[idx] = int32(i)
	}
	st.keys = keys
	s.grows++
}

// Grows returns how many stripe rehashes this set has performed.
func (s *FlatSet) Grows() int64 { return s.grows }

// Drain appends all keys to dst (stripe-major, insertion order within a
// stripe) and clears the set, at a cost proportional to the keys present.
func (s *FlatSet) Drain(dst []Key) []Key {
	for si := range s.stripes {
		st := &s.stripes[si]
		if len(st.used) == 0 {
			continue
		}
		keys := st.keys
		for _, sl := range st.used {
			dst = append(dst, unpack(keys[sl]-keyBias))
		}
		if resetSparse(len(st.used), len(keys)) {
			for _, sl := range st.used {
				keys[sl] = emptySlot
			}
		} else {
			clear(keys)
		}
		st.used = st.used[:0]
	}
	return dst
}

// Len returns the number of keys.
func (s *FlatSet) Len() int {
	n := 0
	for i := range s.stripes {
		n += len(s.stripes[i].used)
	}
	return n
}
