// Package cache implements the dynamic remote-row cache tier of the fetch
// chain (DESIGN.md "Fetch chain"). The paper's halo cache (§3.2.1) is static:
// it short-circuits remote fetches only for neighbors captured at partition
// time. Under a heavy query stream the same hub vertices are re-fetched over
// RPC by every query that touches them — on power-law graphs a small set of
// high-degree vertices dominates that traffic. This package adds the missing
// dynamic layer, once, for every row type the engine fetches:
//
//   - a sharded, byte-budgeted LRU keyed by (shard ID, local ID, mutation
//     epoch). The base graph is immutable and the delta tier (internal/delta)
//     never rewrites an epoch once applied, so entries never need
//     invalidation: a row cached at epoch N simply cannot answer a read
//     pinned at epoch N+1 — the keys differ — and stale epochs age out of the
//     LRU. Static deployments use epoch 0 throughout;
//
//   - single-flight deduplication of in-flight fetches: when several
//     concurrent queries miss on the same vertex, exactly one RPC is issued
//     and every query waits on the same Flight. The response populates the
//     cache and resolves all waiters at once.
//
// LRU is instantiated twice: Cache holds decoded neighbor rows and admits
// every fetched row; FeatureCache holds feature rows and admits by PPR mass.
// A cache is shared by all queries of a machine (like the shard itself); all
// methods are safe for concurrent use.
package cache

import (
	"context"
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

// rowOverhead approximates a neighbor row's fixed per-entry cost: the entry
// struct, the map slot, and the four slice headers.
const rowOverhead = 96

// Bytes returns the approximate memory footprint charged against the budget.
func (r Row) Bytes() int64 {
	return rowOverhead + int64(len(r.Locals))*16 // 2×int32 + 2×float32 per neighbor
}

// featRowOverhead is a feature row's fixed cost: entry, map slot, one header.
const featRowOverhead = 64

func featBytes(row []float32) int64 { return featRowOverhead + 4*int64(len(row)) }

// Cache is the neighbor-row instantiation: every fetched row is admitted.
type Cache = LRU[Row]

// FeatureCache is the feature-row instantiation. Feature rows are fixed-size
// and a serving workload's working set is the union of many top-K subgraphs,
// so caching every fetched row would cycle the LRU with one-off cold
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
		evictions: &metrics.CacheEvictions, bytes: &metrics.CacheBytes, entries: &metrics.CacheEntries,
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

// entry is one resident row in a stripe's LRU list (head = most recent).
type entry[R any] struct {
	key        ckey
	row        R
	bytes      int64
	prev, next *entry[R]
}

type stripe[R any] struct {
	mu      sync.Mutex
	items   map[ckey]*entry[R]
	head    *entry[R]
	tail    *entry[R]
	bytes   int64
	budget  int64
	flights map[ckey]*Flight[R]
}

// LRU is a sharded LRU of rows under a global byte budget, plus the
// single-flight table for in-flight fetches. size and admit are fixed at
// construction — they are what differs between the two instantiations.
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
		c.stripes[i] = stripe[R]{
			items:   make(map[ckey]*entry[R]),
			budget:  per,
			flights: make(map[ckey]*Flight[R]),
		}
	}
	return c
}

func (c *LRU[R]) stripeFor(key ckey) *stripe[R] {
	return &c.stripes[mix(key.addr)&(numShards-1)]
}

// Get returns the row cached for (sh, local) at the base epoch, marking it
// most recently used — a peek for probes and tests; the fetch chain enters
// through GetOrReserveAt.
func (c *LRU[R]) Get(sh, local int32) (R, bool) {
	return c.get(ckey{addr: pack(sh, local)})
}

func (c *LRU[R]) get(key ckey) (R, bool) {
	s := c.stripeFor(key)
	s.mu.Lock()
	e, ok := s.items[key]
	if ok {
		s.moveToFront(e)
	}
	s.mu.Unlock()
	if !ok {
		var zero R
		return zero, false
	}
	c.hits.Add(1)
	c.ctr.hits.Inc(1)
	return e.row, true
}

// GetOrReserve is GetOrReserveAt at the base epoch with no mass signal.
func (c *LRU[R]) GetOrReserve(sh, local int32) (R, bool, *Flight[R], bool) {
	return c.GetOrReserveAt(sh, local, 0, 0)
}

// GetOrReserveAt is the fetch-path entry point, keyed by (shard, local,
// epoch): hits, flights, and fills are all epoch-exact, so a query pinned at
// epoch N+1 can never be served — or coalesced onto — a row resolved at epoch
// N. Epoch 0 is the static base graph. It returns exactly one of:
//
//   - a cache hit: (row, true, nil, false);
//   - leadership of a new flight: (_, false, flight, true) — the caller MUST
//     issue the fetch and have the flight Fulfilled whether or not it still
//     waits itself (the fetch chain does so in the response's hook);
//   - a coalesced wait on an existing flight: (_, false, flight, false) —
//     the caller just Waits.
//
// mass is the requesting row's PPR mass; the flight remembers the highest
// mass seen across all reservers and the admit predicate reads that maximum
// at Fulfill time — a row two low-mass queries collide on may still earn its
// slot from a third, high-mass one.
func (c *LRU[R]) GetOrReserveAt(sh, local int32, epoch uint64, mass float64) (R, bool, *Flight[R], bool) {
	key := ckey{addr: pack(sh, local), epoch: epoch}
	s := c.stripeFor(key)
	s.mu.Lock()
	if e, ok := s.items[key]; ok {
		s.moveToFront(e)
		s.mu.Unlock()
		c.hits.Add(1)
		c.ctr.hits.Inc(1)
		return e.row, true, nil, false
	}
	var zero R // declared past the hit path, which must not pay for zeroing it
	if f, ok := s.flights[key]; ok {
		if mass > f.mass {
			f.mass = mass // guarded by the stripe lock, like the table itself
		}
		s.mu.Unlock()
		c.coalesced.Add(1)
		c.ctr.coalesced.Inc(1)
		return zero, false, f, false
	}
	f := &Flight[R]{c: c, key: key, mass: mass}
	s.flights[key] = f
	s.mu.Unlock()
	c.misses.Add(1)
	c.ctr.misses.Inc(1)
	return zero, false, f, true
}

// moveToFront makes e the list head. Caller holds s.mu.
func (s *stripe[R]) moveToFront(e *entry[R]) {
	if s.head == e {
		return
	}
	s.unlink(e)
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// unlink removes e from the list. Caller holds s.mu.
func (s *stripe[R]) unlink(e *entry[R]) {
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if s.head == e {
		s.head = e.next
	}
	if s.tail == e {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// insertLocked inserts a row, evicting from the LRU tail until the stripe fits
// its budget, and returns the resident bytes/entries deltas and the eviction
// count for the caller to publish after unlocking. Rows larger than the whole
// stripe budget are not admitted. Caller holds s.mu.
func (c *LRU[R]) insertLocked(s *stripe[R], key ckey, row R) (bytes, entries, evicted int64) {
	b := c.size(row)
	// A (vertex, epoch) pair resolves to exactly one row, so a duplicate
	// insert carries identical data.
	if _, dup := s.items[key]; dup || b > s.budget {
		return 0, 0, 0
	}
	for s.bytes+b > s.budget && s.tail != nil {
		victim := s.tail
		s.unlink(victim)
		delete(s.items, victim.key)
		s.bytes -= victim.bytes
		bytes -= victim.bytes
		evicted++
	}
	e := &entry[R]{key: key, row: row, bytes: b}
	s.items[key] = e
	s.moveToFront(e)
	s.bytes += b
	return bytes + b, 1 - evicted, evicted
}

// Stats is a point-in-time snapshot of one cache's counters.
type Stats struct {
	Hits      int64 // rows served from the cache
	Misses    int64 // rows that started a fetch (flight leaders)
	Coalesced int64 // rows that piggybacked on another query's fetch
	Evictions int64 // rows evicted to stay under the byte budget
	Rejected  int64 // fetched rows the admit predicate declined to cache
	Entries   int64 // resident rows
	Bytes     int64 // resident bytes (approximate)
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
		st.Entries += int64(len(s.items))
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// Flight is one in-flight fetch of a single row, shared by every query that
// missed on the key while the fetch was pending. The leader (the caller
// GetOrReserveAt elected) issues the fetch and its completion hook — not a
// waiter — calls Fulfill, so the flight resolves whether or not its leader
// still waits, and a waiter blocks on the flight's one channel.
type Flight[R any] struct {
	c   *LRU[R]
	key ckey

	// Guarded by the key's stripe lock; row and err are immutable once
	// resolved is set.
	mass     float64       // max PPR mass among reservers
	done     chan struct{} // made by the first waiter that has to block
	resolved bool
	row      R
	err      error
}

// Fulfill completes the flight: on success the row (which must be
// cache-owned: copied out of the RPC response) is inserted into the cache
// iff the admit predicate accepts the flight's highest requester mass; in
// all cases the flight leaves the in-flight table and every waiter is
// released. Extra calls are no-ops.
func (f *Flight[R]) Fulfill(row R, err error) {
	c := f.c
	s := c.stripeFor(f.key)
	s.mu.Lock()
	if f.resolved {
		s.mu.Unlock()
		return
	}
	rejected := err == nil && c.admit != nil && !c.admit(f.mass)
	var bytes, entries, evicted int64
	if err == nil && !rejected {
		// Inserted under the same lock hold that removes the flight, so a
		// concurrent reserver always finds the row or the flight — never a
		// gap that would elect a second leader.
		bytes, entries, evicted = c.insertLocked(s, f.key, row)
	}
	f.row, f.err, f.resolved = row, err, true
	// Identity-compared, so a successor flight for the same key is never
	// removed by a stale completion.
	if s.flights[f.key] == f {
		delete(s.flights, f.key)
	}
	done := f.done
	s.mu.Unlock()
	if done != nil {
		close(done)
	}
	if rejected {
		c.rejected.Add(1)
		c.ctr.rejected.Inc(1)
	}
	if evicted > 0 {
		c.evictions.Add(evicted)
		c.ctr.evictions.Inc(evicted)
	}
	// Process-wide occupancy gauges for the /metrics endpoint.
	c.ctr.bytes.Add(bytes)
	c.ctr.entries.Add(entries)
}

// Wait blocks until the flight resolves or ctx ends. A ctx expiry abandons
// only this waiter; the flight itself stays pending for the others and still
// populates the cache when the response arrives.
func (f *Flight[R]) Wait(ctx context.Context) (R, error) {
	s := f.c.stripeFor(f.key)
	s.mu.Lock()
	if f.resolved {
		s.mu.Unlock()
		return f.row, f.err
	}
	if f.done == nil {
		f.done = make(chan struct{})
	}
	done := f.done
	s.mu.Unlock()
	select {
	case <-done:
		return f.row, f.err
	case <-ctx.Done():
		var zero R
		return zero, ctx.Err()
	}
}
