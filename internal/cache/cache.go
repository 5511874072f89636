// Package cache implements the dynamic remote-row cache tier of the fetch
// chain (DESIGN.md "Fetch chain"). The paper's halo cache (§3.2.1) is static:
// it short-circuits remote fetches only for neighbors captured at partition
// time. Under a heavy query stream the same hub vertices are re-fetched over
// RPC by every query that touches them — on power-law graphs a small set of
// high-degree vertices dominates that traffic. This package adds the missing
// dynamic layer, once, for every row type the engine fetches:
//
//   - a sharded, byte-budgeted cache keyed by (shard ID, local ID,
//     mutation epoch). The base graph is immutable and the delta tier
//     (internal/delta) never rewrites an epoch once applied, so entries never
//     need invalidation: a row cached at epoch N simply cannot answer a read
//     pinned at epoch N+1 — the keys differ — and stale epochs age out.
//     Static deployments use epoch 0 throughout;
//
//   - single-flight deduplication of in-flight fetches: when several
//     concurrent queries miss on the same vertex, exactly one RPC is issued
//     and every query gets the row that one response carries.
//
// Each stripe keeps its rows in a value-typed slot array, found through an
// open-addressed index of slot numbers and recycled through a free list, so
// in steady state a hit allocates nothing and a miss allocates only the row's
// own storage. A reservation turns a free slot pending — the flight lives in
// the slot, and a Flight is a (stripe, slot, generation) handle onto it —
// and its Fulfill turns the slot resident, or frees it. Eviction is a CLOCK
// hand with sampled recency: a hit stamps the slot with the stripe's clock,
// and the hand, sweeping the slot array, evicts the stalest of the next
// resident slots it passes. Eviction only drops the cache's reference to a
// row; the cache never reuses a row's storage, so a view a query still holds
// stays valid until the query drops it.
//
// LRU is instantiated twice: Cache holds decoded neighbor rows and admits
// every fetched row; FeatureCache holds feature rows and admits by PPR mass.
// A cache is shared by all queries of a machine (like the shard itself); all
// methods are safe for concurrent use.
package cache

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"pprengine/internal/metrics"
)

// Row is one remote vertex's decoded neighbor row — the cached analogue of
// shard.VertexProp, with slices the cache owns (copied out of the RPC
// response so one hot row does not pin a whole response buffer).
type Row struct {
	Locals  []int32
	Shards  []int32
	Weights []float32
	WDegs   []float32
	// WDeg is the vertex's own weighted out-degree.
	WDeg float32
}

// rowOverhead approximates a neighbor row's fixed per-entry cost: its slot
// (the four slice headers among it) and its index entry.
const rowOverhead = 96

// Bytes returns the approximate memory footprint charged against the budget.
func (r Row) Bytes() int64 {
	return rowOverhead + int64(len(r.Locals))*16 // 2×int32 + 2×float32 per neighbor
}

// featRowOverhead is a feature row's fixed cost: its slot and index entry.
const featRowOverhead = 64

func featBytes(row []float32) int64 { return featRowOverhead + 4*int64(len(row)) }

// Cache is the neighbor-row instantiation: every fetched row is admitted.
type Cache = LRU[Row]

// FeatureCache is the feature-row instantiation. Feature rows are fixed-size
// and a serving workload's working set is the union of many top-K subgraphs,
// so caching every fetched row would cycle the cache with one-off cold
// vertices. Following the probabilistic-caching idea of Kaler et al.
// (communication-efficient GNN sampling), a fetched row is admitted only
// when the PPR mass that requested it clears a threshold: hub vertices that
// dominate many egos' top-K sets carry high mass and stick, long-tail rows
// pass through without evicting them.
type FeatureCache = LRU[[]float32]

// New returns a neighbor-row cache bounded by maxBytes (split evenly across
// the lock stripes). It returns nil when maxBytes <= 0, and a nil cache is
// the "disabled" value callers test against.
func New(maxBytes int64) *Cache {
	return newLRU(maxBytes, rowOverhead, Row.Bytes, nil, counters{
		hits: &metrics.CacheHits, misses: &metrics.CacheMisses, coalesced: &metrics.CacheCoalesced,
		evictions: &metrics.CacheEvictions, rejected: &metrics.CacheRejected,
		bytes: &metrics.CacheBytes, entries: &metrics.CacheEntries,
	})
}

// NewFeatures returns a feature-row cache bounded by maxBytes. Rows are
// admitted only when the highest PPR mass among the queries that reserved
// them reaches admitMass; 0 admits every row. nil when maxBytes <= 0.
func NewFeatures(maxBytes int64, admitMass float64) *FeatureCache {
	return newLRU(maxBytes, featRowOverhead, featBytes,
		func(mass float64) bool { return mass >= admitMass }, counters{
			hits: &metrics.FeatCacheHits, misses: &metrics.FeatCacheMisses, coalesced: &metrics.FeatCacheCoalesced,
			evictions: &metrics.FeatCacheEvictions, rejected: &metrics.FeatCacheRejected,
			bytes: &metrics.FeatCacheBytes, entries: &metrics.FeatCacheEntries,
		})
}

// counters names the process-wide /metrics series one instantiation feeds.
type counters struct {
	hits, misses, coalesced, evictions, rejected *metrics.Counter
	bytes, entries                               *metrics.Gauge
}

// numShards is the lock-striping factor. Addresses are packed
// (shard<<32|local), so the mix below must spread both halves.
const numShards = 16

// stripeBits is log2(numShards): the stripe takes the hash's low bits, index
// probing starts from the bits above them.
const stripeBits = 4

func pack(sh, local int32) uint64 {
	return uint64(uint32(sh))<<32 | uint64(uint32(local))
}

// ckey is the full cache key: a packed (shard, local) address plus the
// mutation epoch the row was resolved at. Exact equality — never a hash — is
// what guarantees an epoch-N row is invisible to an epoch-N+1 read. The
// stripe is derived from the address alone, so every epoch of one vertex
// lives on one stripe.
type ckey struct {
	addr  uint64
	epoch uint64
}

// mix is a 64-bit finalizer (splitmix64) so consecutive local IDs spread
// across stripes.
func mix(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

func stripeOf(addr uint64) uint8 { return uint8(mix(addr) & (numShards - 1)) }

// probeStart is key k's home position in a stripe's index (before masking).
// The epoch is folded in so the live epochs of one hot vertex do not share a
// probe run.
func probeStart(k ckey) uint64 {
	return mix(k.addr)>>stripeBits ^ k.epoch*0x9e3779b97f4a7c15
}

// Slot states. A free slot is on its stripe's free list and in no index
// entry; pending and resident slots are indexed by their key.
const (
	slotFree uint8 = iota
	slotPending
	slotResident
)

// slot is one row of a stripe: the flight fetching it (pending) or the
// cached row (resident).
type slot[R any] struct {
	key     ckey
	row     R          // resident: the cached row
	waiters *waiter[R] // pending: the coalesced reservers to hand the row to
	mass    float64    // pending: the highest PPR mass among the reservers
	bytes   int64      // resident: the bytes charged against the budget
	gen     uint32     // bumped whenever the slot is freed
	state   uint8
}

// waiter is the delivery record of a reserver that coalesced onto a pending
// flight: the flight's Fulfill writes the row (or error) into it, so the
// outcome survives the slot being evicted and reused before the reserver
// reads it. Guarded by the stripe lock; done is made by a Wait that blocks.
type waiter[R any] struct {
	next     *waiter[R]
	row      R
	err      error
	resolved bool
	done     chan struct{}
}

type stripe[R any] struct {
	mu    sync.Mutex
	slots []slot[R]
	// used holds, per slot, the clock reading of the resident row's last use
	// (insert or hit); 0 for a pending or free slot. It is kept apart from
	// the slots so the hand reads a run of stamps from one or two cache
	// lines.
	used   []uint64
	clock  uint64
	free   []int32 // free slot numbers
	index  []int32 // open-addressed by probeStart: slot number + 1, 0 = empty
	hand   int     // the CLOCK hand: the next slot the sweep looks at
	bytes  int64
	budget int64
	// entries counts resident slots.
	entries int64
}

// evictSample is how many resident slots the hand compares per eviction. On
// the benchmark's Zipf workloads a single reference bit per slot hits about
// 1.4 points less often than an exact LRU (+9.5 % wire requests); on replayed
// access streams of all four workloads the stalest of 16 is within 0.002.
const evictSample = 16

// minIndex is a stripe index's initial size (a power of two).
const minIndex = 16

// LRU is a sharded, byte-budgeted row cache (evicting by a sampled CLOCK
// hand, which approximates least-recently-used) plus the single-flight table for
// in-flight fetches. size and admit are fixed at construction — they are
// what differs between the two instantiations.
type LRU[R any] struct {
	stripes [numShards]stripe[R]
	size    func(R) int64
	// admit decides, from the highest PPR mass among a flight's reservers,
	// whether the fetched row is cached; nil admits every row.
	admit func(mass float64) bool
	ctr   counters

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64
	rejected  atomic.Int64
}

func newLRU[R any](maxBytes, overhead int64, size func(R) int64, admit func(float64) bool, ctr counters) *LRU[R] {
	if maxBytes <= 0 {
		return nil
	}
	c := &LRU[R]{size: size, admit: admit, ctr: ctr}
	per := maxBytes / numShards
	if per < overhead {
		per = overhead // always admit at least one minimal row per stripe
	}
	for i := range c.stripes {
		c.stripes[i].budget = per
		c.stripes[i].index = make([]int32, minIndex)
	}
	return c
}

func (c *LRU[R]) stripeFor(key ckey) *stripe[R] {
	return &c.stripes[stripeOf(key.addr)]
}

// find returns key's index position and slot number, or the empty position
// ending its probe run and -1. Caller holds s.mu.
func (s *stripe[R]) find(key ckey) (pos uint64, sl int32) {
	mask := uint64(len(s.index) - 1)
	for i := probeStart(key) & mask; ; i = (i + 1) & mask {
		e := s.index[i]
		if e == 0 {
			return i, -1
		}
		if s.slots[e-1].key == key {
			return i, e - 1
		}
	}
}

// claimLocked takes a free slot — growing the slot array, and with it the
// index, only when none is free — makes it pending for key and indexes it.
// pos is key's empty index position from find. Caller holds s.mu.
func (s *stripe[R]) claimLocked(key ckey, pos uint64, mass float64) int32 {
	var sl int32
	if n := len(s.free); n > 0 {
		sl = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		sl = int32(len(s.slots))
		s.slots = append(s.slots, slot[R]{})
		s.used = append(s.used, 0)
		if 2*len(s.slots) > len(s.index) {
			s.reindexLocked(2 * len(s.index))
			pos, _ = s.find(key)
		}
	}
	p := &s.slots[sl]
	p.key, p.mass, p.state = key, mass, slotPending
	s.index[pos] = sl + 1
	return sl
}

// reindexLocked rebuilds the index at size n (a power of two) over every
// slot in use. Caller holds s.mu.
func (s *stripe[R]) reindexLocked(n int) {
	s.index = make([]int32, n)
	mask := uint64(n - 1)
	for sl := range s.slots {
		if s.slots[sl].state == slotFree {
			continue
		}
		i := probeStart(s.slots[sl].key) & mask
		for s.index[i] != 0 {
			i = (i + 1) & mask
		}
		s.index[i] = int32(sl) + 1
	}
}

// freeLocked unindexes slot sl, drops its row and returns it to the free
// list; the generation bump retires every Flight handle onto it. Caller holds
// s.mu.
func (s *stripe[R]) freeLocked(sl int32) {
	p := &s.slots[sl]
	i, _ := s.find(p.key)
	// Backward-shift deletion: close the hole by moving later members of
	// the probe run into it, so no lookup stops early at a false empty.
	mask := uint64(len(s.index) - 1)
	for j := (i + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		home := probeStart(s.slots[s.index[j]-1].key) & mask
		if (j-home)&mask >= (j-i)&mask {
			s.index[i] = s.index[j]
			i = j
		}
	}
	s.index[i] = 0
	var zero R
	p.row, p.waiters, p.mass, p.bytes = zero, nil, 0, 0
	p.state = slotFree
	p.gen++
	s.used[sl] = 0
	s.free = append(s.free, sl)
}

// touchLocked records a use of resident slot sl. Caller holds s.mu.
func (s *stripe[R]) touchLocked(sl int32) {
	s.clock++
	s.used[sl] = s.clock
}

// evictLocked evicts until need more bytes fit the budget. For each
// eviction the hand moves past the next evictSample resident slots —
// pending and free ones are passed over — and the one used longest ago goes.
// need must not exceed the budget, so a resident slot is always there to
// evict. Caller holds s.mu.
func (s *stripe[R]) evictLocked(need int64, d *tally) {
	for s.bytes+need > s.budget {
		victim, oldest := 0, uint64(math.MaxUint64)
		used, hand := s.used, s.hand
		for seen := min(evictSample, s.entries); seen > 0; hand++ {
			if hand >= len(used) {
				hand = 0
			}
			if u := used[hand]; u != 0 {
				if u < oldest {
					victim, oldest = hand, u
				}
				seen--
			}
		}
		s.hand = hand
		p := &s.slots[victim]
		s.bytes -= p.bytes
		s.entries--
		d.bytes -= p.bytes
		d.entries--
		d.evicted++
		s.freeLocked(int32(victim))
	}
}

// tally is what a locked operation changed, published to the atomic
// counters and /metrics gauges after the lock is released.
type tally struct {
	hits, misses, coalesced int64
	bytes, entries          int64
	evicted, rejected       int64
}

func (c *LRU[R]) publish(d tally) {
	if d.hits > 0 {
		c.hits.Add(d.hits)
		c.ctr.hits.Inc(d.hits)
	}
	if d.misses > 0 {
		c.misses.Add(d.misses)
		c.ctr.misses.Inc(d.misses)
	}
	if d.coalesced > 0 {
		c.coalesced.Add(d.coalesced)
		c.ctr.coalesced.Inc(d.coalesced)
	}
	if d.evicted > 0 {
		c.evictions.Add(d.evicted)
		c.ctr.evictions.Inc(d.evicted)
	}
	if d.rejected > 0 {
		c.rejected.Add(d.rejected)
		c.ctr.rejected.Inc(d.rejected)
	}
	if d.bytes != 0 || d.entries != 0 {
		// Process-wide occupancy gauges for the /metrics endpoint.
		c.ctr.bytes.Add(d.bytes)
		c.ctr.entries.Add(d.entries)
	}
}

// Get returns the row cached for (sh, local) at the base epoch, counting it
// as a use — a peek for probes and tests; the fetch chain enters through
// GetOrReserveAll.
func (c *LRU[R]) Get(sh, local int32) (R, bool) {
	return c.get(ckey{addr: pack(sh, local)})
}

func (c *LRU[R]) get(key ckey) (R, bool) {
	s := c.stripeFor(key)
	s.mu.Lock()
	_, sl := s.find(key)
	if sl < 0 || s.slots[sl].state != slotResident {
		s.mu.Unlock()
		var zero R
		return zero, false
	}
	s.touchLocked(sl)
	row := s.slots[sl].row
	s.mu.Unlock()
	c.hits.Add(1)
	c.ctr.hits.Inc(1)
	return row, true
}

// State is the outcome of reserving one row.
type State uint8

const (
	// Hit: the row was resident and is in the Lookup's Row.
	Hit State = iota
	// Lead: a new flight; the caller must fetch the row and fulfil the flight
	// whether or not it still waits itself (the fetch chain does so in the
	// response's completion hook).
	Lead
	// Coalesced: another caller's flight will deliver the row; Wait on it.
	Coalesced
)

// Lookup is one row's outcome of a batched reserve (GetOrReserveAll).
type Lookup[R any] struct {
	// Row is the row of a hit. A leader stores the fetched row here before
	// FulfillAll inserts it.
	Row    R
	Flight Flight[R] // the flight a Lead fulfils and a Coalesced row waits on
	State  State
	next   int32 // the next lookup on the same stripe, while batching
}

// GetOrReserve is GetOrReserveAt at the base epoch with no mass signal.
func (c *LRU[R]) GetOrReserve(sh, local int32) (R, bool, Flight[R], bool) {
	return c.GetOrReserveAt(sh, local, 0, 0)
}

// GetOrReserveAt is GetOrReserveAll for one row. It returns exactly one of a
// hit (row, true, _, false), leadership of a new flight (_, false, flight,
// true) or a coalesced wait on an existing one (_, false, flight, false).
func (c *LRU[R]) GetOrReserveAt(sh, local int32, epoch uint64, mass float64) (R, bool, Flight[R], bool) {
	key := ckey{addr: pack(sh, local), epoch: epoch}
	si := stripeOf(key.addr)
	s := &c.stripes[si]
	var l Lookup[R]
	var d tally
	s.mu.Lock()
	c.reserveLocked(s, si, key, mass, &l, &d)
	s.mu.Unlock()
	c.publish(d)
	return l.Row, l.State == Hit, l.Flight, l.State == Lead
}

// GetOrReserveAll is the fetch path's entry point: it resolves rows locals of
// shard sh, keyed by (shard, local, epoch), into out (len(out) >= len(locals))
// and reports how many rows hit, lead a new flight and coalesced onto an
// existing one. It takes each stripe lock the list touches once. Hits,
// flights and fills are all epoch-exact, so a query pinned at epoch N+1 can
// never be served — or coalesced onto — a row resolved at epoch N. Epoch 0
// is the static base graph.
//
// mass, when non-nil, is each row's PPR mass (indexed like locals): a flight
// remembers the highest mass among its reservers and the admit predicate
// reads that maximum at Fulfill time — a row two low-mass queries collide on
// may still earn its slot from a third, high-mass one.
func (c *LRU[R]) GetOrReserveAll(sh int32, epoch uint64, locals []int32, mass []float64, out []Lookup[R]) (hits, leads, coalesced int) {
	out = out[:len(locals)]
	var heads [numShards]int32
	for i := range heads {
		heads[i] = -1
	}
	for i := len(locals) - 1; i >= 0; i-- {
		si := stripeOf(pack(sh, locals[i]))
		out[i].Flight.si = si
		out[i].next, heads[si] = heads[si], int32(i)
	}
	var d tally
	for si, i := range heads {
		if i < 0 {
			continue
		}
		s := &c.stripes[si]
		s.mu.Lock()
		for ; i >= 0; i = out[i].next {
			m := 0.0
			if mass != nil {
				m = mass[i]
			}
			c.reserveLocked(s, uint8(si), ckey{addr: pack(sh, locals[i]), epoch: epoch}, m, &out[i], &d)
		}
		s.mu.Unlock()
	}
	c.publish(d)
	return int(d.hits), int(d.misses), int(d.coalesced)
}

// reserveLocked resolves one key into l: a hit (the row copied out and the
// use recorded), a coalesced wait (a delivery record linked onto the
// pending slot) or a new pending slot this caller leads. s is stripe si;
// the caller holds s.mu.
func (c *LRU[R]) reserveLocked(s *stripe[R], si uint8, key ckey, mass float64, l *Lookup[R], d *tally) {
	pos, sl := s.find(key)
	if sl < 0 {
		sl = s.claimLocked(key, pos, mass)
		l.State, l.Flight = Lead, Flight[R]{c: c, slot: sl, gen: s.slots[sl].gen, si: si}
		d.misses++
		return
	}
	p := &s.slots[sl]
	if p.state == slotResident {
		s.touchLocked(sl)
		l.State, l.Row = Hit, p.row
		d.hits++
		return
	}
	if mass > p.mass {
		p.mass = mass
	}
	w := &waiter[R]{next: p.waiters}
	p.waiters = w
	l.State, l.Flight = Coalesced, Flight[R]{c: c, w: w, slot: sl, gen: p.gen, si: si}
	d.coalesced++
}

// FulfillAll resolves the flights of every Lead lookup in ls: with the row
// the caller stored in its Row, or with err when err is non-nil. Build the
// rows before the call — copying is the expensive part, and only the inserts
// happen under the stripe locks, each taken once. Flights already resolved
// are left alone.
func (c *LRU[R]) FulfillAll(ls []Lookup[R], err error) {
	var heads [numShards]int32
	for i := range heads {
		heads[i] = -1
	}
	for i := len(ls) - 1; i >= 0; i-- {
		if ls[i].State == Lead {
			si := ls[i].Flight.si
			ls[i].next, heads[si] = heads[si], int32(i)
		}
	}
	var d tally
	for si, i := range heads {
		if i < 0 {
			continue
		}
		s := &c.stripes[si]
		s.mu.Lock()
		for ; i >= 0; i = ls[i].next {
			c.resolveLocked(s, ls[i].Flight, ls[i].Row, err, &d)
		}
		s.mu.Unlock()
	}
	c.publish(d)
}

// resolveLocked completes flight f: every coalesced reserver receives the
// row (or err), then the slot turns resident — evicting until it fits —
// or, on an error, an admission decline or a row larger than the
// whole stripe budget, is freed. A handle whose slot was already resolved is
// a no-op. Caller holds s.mu.
func (c *LRU[R]) resolveLocked(s *stripe[R], f Flight[R], row R, err error, d *tally) {
	p := &s.slots[f.slot]
	if p.gen != f.gen || p.state != slotPending {
		return
	}
	for w := p.waiters; w != nil; w = w.next {
		w.row, w.err, w.resolved = row, err, true
		if w.done != nil {
			close(w.done)
		}
	}
	p.waiters = nil
	if err != nil {
		s.freeLocked(f.slot)
		return
	}
	b := c.size(row)
	if b > s.budget || (c.admit != nil && !c.admit(p.mass)) {
		d.rejected++
		s.freeLocked(f.slot)
		return
	}
	s.evictLocked(b, d)
	p.row, p.bytes, p.state, p.mass = row, b, slotResident, 0
	s.touchLocked(f.slot)
	s.bytes += b
	s.entries++
	d.bytes += b
	d.entries++
}

// Stats is a point-in-time snapshot of one cache's counters.
type Stats struct {
	Hits      int64 // rows served from the cache
	Misses    int64 // rows that started a fetch (flight leaders)
	Coalesced int64 // rows that piggybacked on another query's fetch
	Evictions int64 // rows evicted to stay under the byte budget
	// Rejected counts fetched rows not cached: declined by the admit
	// predicate, or larger than a whole stripe's budget.
	Rejected int64
	Entries  int64 // resident rows
	Bytes    int64 // resident bytes (approximate)
}

// FeatStats is the feature cache's snapshot — the same shape.
type FeatStats = Stats

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Coalesced += other.Coalesced
	s.Evictions += other.Evictions
	s.Rejected += other.Rejected
	s.Entries += other.Entries
	s.Bytes += other.Bytes
}

// Stats returns a snapshot. A nil cache reports zeros.
func (c *LRU[R]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Rejected:  c.rejected.Load(),
	}
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		st.Entries += s.entries
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// Flight is a handle on one in-flight fetch of a single row: the pending
// slot's (stripe, slot, generation), plus — for a reserver that coalesced
// onto someone else's flight — the record the row will be delivered to. The
// leader (the caller reservation elected) issues the fetch, and its
// completion hook — not a waiter — calls Fulfill, so the flight resolves
// whether or not its leader still waits.
type Flight[R any] struct {
	c    *LRU[R]
	w    *waiter[R] // a coalesced reserver's delivery record; nil for the leader
	slot int32
	gen  uint32
	si   uint8
}

// errGone is what a leader's Wait reports once its flight has resolved and
// the slot has let go of the row (failed, declined or evicted): the leader
// already has whatever it fulfilled the flight with.
var errGone = errors.New("cache: flight resolved and its row left the cache")

// Fulfill completes the flight: on success the row (which must be
// cache-owned: copied out of the RPC response) is inserted into the cache iff
// it fits a stripe and the admit predicate accepts the flight's highest
// requester mass; in all cases the slot stops being pending and every
// coalesced reserver receives the row or err. Extra calls are no-ops.
func (f Flight[R]) Fulfill(row R, err error) {
	c := f.c
	s := &c.stripes[f.si]
	var d tally
	s.mu.Lock()
	c.resolveLocked(s, f, row, err, &d)
	s.mu.Unlock()
	c.publish(d)
}

// Wait blocks until the flight resolves or ctx ends. A ctx expiry abandons
// only this waiter; the flight itself stays pending for the others and still
// populates the cache when the response arrives. On a coalesced reserver's
// handle it returns the delivered row or error. On the leader's handle it
// returns the resident row, or an error once the slot has let go of it.
func (f Flight[R]) Wait(ctx context.Context) (R, error) {
	var zero R
	s := &f.c.stripes[f.si]
	s.mu.Lock()
	w := f.w
	if w == nil {
		p := &s.slots[f.slot]
		switch {
		case p.gen != f.gen:
			s.mu.Unlock()
			return zero, errGone
		case p.state == slotResident:
			row := p.row
			s.mu.Unlock()
			return row, nil
		}
		w = &waiter[R]{next: p.waiters}
		p.waiters = w
	}
	if w.resolved {
		s.mu.Unlock()
		return w.row, w.err
	}
	if w.done == nil {
		w.done = make(chan struct{})
	}
	done := w.done
	s.mu.Unlock()
	select {
	case <-done:
		return w.row, w.err
	case <-ctx.Done():
		return zero, ctx.Err()
	}
}
