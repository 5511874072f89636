// Flat is the SSPPR engine's whole per-query state (DESIGN.md §5j): the
// residual r, the reserve p and the activated set of one query, in one
// vertex-indexed table. A shard's local IDs are dense CSR row numbers, so
// (shard, local) already names an array slot; there is no hash, no probe
// loop and no rehash. A page covers 64 consecutive locals of one shard and
// holds their residual and reserve columns plus a 64-bit activation word; a
// per-shard directory maps local>>6 to the page (dir[shard][local>>6], 0
// meaning absent), so a residual update is two dependent array loads.
//
// Pages are claimed in first-touch order and the activated set is a list of
// slots, so every iteration order — Drain, RangeP, RangeR — depends only on
// the order keys were touched, never on capacity. Clearing walks the claimed
// pages: its cost is proportional to what the query touched, which is what
// lets one table serve query after query (core's recycled engine state).
//
// There are no locks and no atomics: a table belongs to one query, and one
// goroutine at a time runs that query's pop and push.
package pmap

import (
	"math"
	"math/bits"
	"unsafe"
)

const (
	pageBits = 6
	// PageLocals is how many consecutive locals one page covers.
	PageLocals = 1 << pageBits
	pageMask   = PageLocals - 1
)

type page struct {
	r, p  [PageLocals]float64
	act   uint64 // activated locals (bit = local & pageMask)
	has   uint64 // locals holding a reserve
	shard int32
	base  int32 // local >> pageBits of the page's first local
}

// Flat maps (shard, local) keys to a slot — page<<6 | local&63 — through
// which the residual, the reserve and the activation bit are read and
// written. Single-goroutine use only.
type Flat struct {
	dir     [][]int32 // dir[shard][local>>pageBits]: index into pages, 0 = absent
	bounds  []int32   // bounds[shard]: locals per shard
	pages   []page    // pages[0] is the absent sentinel
	active  []int32   // activated slots, in activation order
	reserve int       // keys holding a reserve
	grows   int64
}

// NewFlat returns an empty table with room for capacityHint pages before
// its page pool grows. It holds no shard until Bound declares them.
func NewFlat(capacityHint int) *Flat {
	return &Flat{pages: make([]page, 1, 1+capacityHint)}
}

// Bound declares the key space: shard s holds locals [0, cores[s]), and no
// other shard exists. Slot refuses a key whose page lies outside it, so a
// forged ID costs nothing in proportion to its value: a directory never
// grows past its shard's pages. (A local past cores[s] on the shard's last
// page is not refused: like any ID no vertex has, it fails its fetch.) Call
// it on an empty table (new, or after Clear); the bounds hold until the
// next Bound.
func (t *Flat) Bound(cores []int32) {
	t.bounds = append(t.bounds[:0], cores...)
	if cap(t.dir) < len(cores) {
		t.dir = append(t.dir[:cap(t.dir)], make([][]int32, len(cores)-cap(t.dir))...)
	}
	t.dir = t.dir[:len(cores)]
	for s, n := range cores {
		// Entries past a directory's length are zero (Clear zeroes every
		// entry it set), so reslicing within capacity is safe either way;
		// no directory is ever longer than its shard's pages.
		if need := pagesFor(n); cap(t.dir[s]) >= need {
			t.dir[s] = t.dir[s][:need]
		}
	}
}

func pagesFor(locals int32) int { return int(locals+pageMask) >> pageBits }

// Slot returns the slot of (shard, local), claiming a zeroed page when the
// key's page is absent; -1 when the key is negative or outside the bounds.
func (t *Flat) Slot(shard, local int32) int32 {
	if s := t.Find(shard, local); s >= 0 {
		return s
	}
	return t.claim(shard, local)
}

// Find returns the slot of (shard, local) without claiming: -1 when the
// key's page is absent.
func (t *Flat) Find(shard, local int32) int32 {
	if uint32(shard) < uint32(len(t.dir)) {
		d := t.dir[shard]
		if pi := uint32(local) >> pageBits; pi < uint32(len(d)) && d[pi] != 0 {
			return d[pi]<<pageBits | local&pageMask
		}
	}
	return -1
}

// claim is Slot's miss path: it validates the key against the bounds, sizes
// the shard's directory and hands out the next page.
func (t *Flat) claim(shard, local int32) int32 {
	if uint32(shard) >= uint32(len(t.bounds)) || local < 0 {
		return -1
	}
	pi, limit := int(local>>pageBits), pagesFor(t.bounds[shard])
	if pi >= limit {
		return -1
	}
	if pi >= len(t.dir[shard]) {
		t.growDir(shard, min(limit, max(pi+1, 2*len(t.dir[shard]))))
	}
	n := len(t.pages)
	if n < cap(t.pages) {
		t.pages = t.pages[:n+1]
		t.pages[n] = page{}
	} else {
		t.pages = append(t.pages, page{})
		t.grows++
	}
	t.pages[n].shard, t.pages[n].base = shard, int32(pi)
	t.dir[shard][pi] = int32(n)
	return int32(n)<<pageBits | local&pageMask
}

// growDir lengthens shard's directory to n entries.
func (t *Flat) growDir(shard int32, n int) {
	d := t.dir[shard]
	if cap(d) >= n {
		t.dir[shard] = d[:n]
		return
	}
	nd := make([]int32, n)
	copy(nd, d)
	t.dir[shard] = nd
	t.grows++
}

// R returns the residual at slot s.
func (t *Flat) R(s int32) float64 { return t.pages[s>>pageBits].r[s&pageMask] }

// AddR adds delta to the residual at slot s and returns the new value.
func (t *Flat) AddR(s int32, delta float64) float64 {
	r := &t.pages[s>>pageBits].r[s&pageMask]
	*r += delta
	return *r
}

// SwapR stores v as the residual at slot s and returns the previous one.
func (t *Flat) SwapR(s int32, v float64) float64 {
	r := &t.pages[s>>pageBits].r[s&pageMask]
	old := *r
	*r = v
	return old
}

// P returns the reserve at slot s (0 when it holds none).
func (t *Flat) P(s int32) float64 { return t.pages[s>>pageBits].p[s&pageMask] }

// AddP adds delta to the reserve at slot s, entering the key into the
// reserve set.
func (t *Flat) AddP(s int32, delta float64) {
	pg := &t.pages[s>>pageBits]
	o := s & pageMask
	pg.p[o] += delta
	if bit := uint64(1) << o; pg.has&bit == 0 {
		pg.has |= bit
		t.reserve++
	}
}

// Activate enters slot s into the activated set; a slot already in it keeps
// its place.
func (t *Flat) Activate(s int32) {
	pg := &t.pages[s>>pageBits]
	if bit := uint64(1) << (s & pageMask); pg.act&bit == 0 {
		pg.act |= bit
		t.active = append(t.active, s)
	}
}

// Drain appends the activated keys to locals and shards, last activated
// first, and empties the activated set. The order is the engine's served
// pop order: the keys activated earliest in a round are popped last in the
// next, after the rest of the frontier has pushed into them, which takes
// fewer rounds than the reverse (DESIGN.md §5j).
func (t *Flat) Drain(locals, shards []int32) ([]int32, []int32) {
	for i := len(t.active) - 1; i >= 0; i-- {
		s := t.active[i]
		pg := &t.pages[s>>pageBits]
		o := s & pageMask
		pg.act &^= 1 << o
		locals = append(locals, pg.base<<pageBits|o)
		shards = append(shards, pg.shard)
	}
	t.active = t.active[:0]
	return locals, shards
}

// Reserves returns the number of keys holding a reserve.
func (t *Flat) Reserves() int { return t.reserve }

// Footprint returns the bytes the table retains when it is kept for reuse:
// its page pool, directories and activation list.
func (t *Flat) Footprint() int {
	n := cap(t.pages)*int(unsafe.Sizeof(page{})) + cap(t.active)*4 + cap(t.bounds)*4
	for _, d := range t.dir[:cap(t.dir)] {
		n += int(unsafe.Sizeof(d)) + cap(d)*4
	}
	return n
}

// Grows returns how many times the page pool or a directory has grown (the
// ppr_pmap_grows_total feed; growth vanishes once a recycled table has seen
// the workload's largest query).
func (t *Flat) Grows() int64 { return t.grows }

// RangeP calls f for every key holding a reserve: pages in claim order,
// locals ascending within a page.
func (t *Flat) RangeP(f func(Key, float64) bool) {
	for i := 1; i < len(t.pages); i++ {
		pg := &t.pages[i]
		for m := pg.has; m != 0; m &= m - 1 {
			o := int32(bits.TrailingZeros64(m))
			if !f(Key{Local: pg.base<<pageBits | o, Shard: pg.shard}, pg.p[o]) {
				return
			}
		}
	}
}

// RangeR calls f for every non-zero residual, in RangeP's order.
func (t *Flat) RangeR(f func(Key, float64) bool) {
	for i := 1; i < len(t.pages); i++ {
		pg := &t.pages[i]
		for o, v := range pg.r {
			if v != 0 && !f(Key{Local: pg.base<<pageBits | int32(o), Shard: pg.shard}, v) {
				return
			}
		}
	}
}

// Clear empties the table, keeping its bounds, page pool and directories.
// It zeroes the directory entry of every claimed page; pages are zeroed when
// next claimed.
func (t *Flat) Clear() {
	for i := 1; i < len(t.pages); i++ {
		pg := &t.pages[i]
		t.dir[pg.shard][pg.base] = 0
	}
	t.pages = t.pages[:1]
	t.active = t.active[:0]
	t.reserve = 0
}

// PoisonValue is what Poison leaves in every value: the 0xDB fill of
// internal/mem's poison mode, read as a float64 (about -1.7e132).
var PoisonValue = math.Float64frombits(0xDBDBDBDBDBDBDBDB)

// Poison overwrites every reserve and residual of the claimed pages with
// PoisonValue, keys intact, so that a reader of a table its owner has given
// up sees scores no query produces instead of plausible stale ones (debug
// aid, see mem.SetPoison).
func (t *Flat) Poison() {
	for i := 1; i < len(t.pages); i++ {
		pg := &t.pages[i]
		for o := range pg.r {
			pg.r[o], pg.p[o] = PoisonValue, PoisonValue
		}
	}
}
