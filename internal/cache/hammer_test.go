package cache

import (
	"container/list"
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pprengine/internal/mem"
)

// The hammer's key space: two shards, hammerLocals vertices each, three
// epochs. Every key has one canonical row — its size and tag derived from the
// key — so any row the cache answers with can be checked exactly.
const (
	hammerLocals = 300
	hammerEpochs = 3
	hammerKeys   = 2 * hammerLocals * hammerEpochs
	// hammerStripeRows is roughly how many average rows one stripe holds:
	// small enough that the workload evicts constantly.
	hammerStripeRows = 12
)

func keyIndex(sh, local int32, epoch uint64) int {
	return (int(sh)*hammerLocals+int(local))*hammerEpochs + int(epoch)
}

// canonical returns the size and tag of a key's one row. One key in 97 is
// larger than any stripe budget, so admission declines it.
func canonical(sh, local int32, epoch uint64) (n int, tag float32) {
	k := keyIndex(sh, local, epoch)
	n = int(mix(uint64(k)) % 40)
	if k%97 == 5 {
		n = 4096
	}
	return n, float32(k) + 0.5
}

func hammerBudget(overhead int64) int64 { return numShards * hammerStripeRows * (overhead + 16*20) }

var errHammer = errors.New("hammer: fetch failed")

// refLRU is the reference model's residency half: an exact LRU per stripe
// under the same byte budget and row sizes. It answers what an LRU would
// have hit on the same access stream.
type refLRU struct {
	budget int64
	bytes  [numShards]int64
	order  [numShards]*list.List // front = most recent; values are ckeys
	elems  map[ckey]*list.Element
	sizes  map[ckey]int64
}

func newRefLRU(budget int64) *refLRU {
	m := &refLRU{budget: budget / numShards, elems: map[ckey]*list.Element{}, sizes: map[ckey]int64{}}
	for i := range m.order {
		m.order[i] = list.New()
	}
	return m
}

// touch reports whether key is resident, making it the most recent.
func (m *refLRU) touch(key ckey) bool {
	e, ok := m.elems[key]
	if ok {
		m.order[stripeOf(key.addr)].MoveToFront(e)
	}
	return ok
}

// insert admits a fetched row as the most recent, evicting from the back
// until it fits; a row larger than the budget is declined. The model may
// still hold a row the cache evicted: then it is only touched.
func (m *refLRU) insert(key ckey, size int64) {
	si := stripeOf(key.addr)
	if m.touch(key) || size > m.budget {
		return
	}
	for m.bytes[si]+size > m.budget {
		victim := m.order[si].Back()
		vk := victim.Value.(ckey)
		m.order[si].Remove(victim)
		m.bytes[si] -= m.sizes[vk]
		delete(m.elems, vk)
	}
	m.elems[key] = m.order[si].PushFront(key)
	m.sizes[key] = size
	m.bytes[si] += size
}

// checkInvariants verifies every stripe's bookkeeping: each pending or
// resident slot is indexed under its key on its own stripe, the index holds
// nothing else, free slots are exactly the free list, exactly the resident
// slots carry a use stamp, and the resident bytes and entries add up and fit
// the budget.
func checkInvariants[R any](t *testing.T, c *LRU[R]) {
	t.Helper()
	for si := range c.stripes {
		s := &c.stripes[si]
		s.mu.Lock()
		var bytes, entries int64
		used := 0
		for sl := range s.slots {
			p := &s.slots[sl]
			if p.state == slotFree {
				continue
			}
			used++
			if int(stripeOf(p.key.addr)) != si {
				t.Errorf("stripe %d holds a key of stripe %d", si, stripeOf(p.key.addr))
			}
			if _, got := s.find(p.key); got != int32(sl) {
				t.Errorf("stripe %d: slot %d's key finds slot %d", si, sl, got)
			}
			if (p.state == slotResident) != (s.used[sl] != 0) {
				t.Errorf("stripe %d slot %d: state %d with use stamp %d", si, sl, p.state, s.used[sl])
			}
			if p.state == slotResident {
				bytes += p.bytes
				entries++
				if p.bytes != c.size(p.row) {
					t.Errorf("stripe %d slot %d charged %d bytes for a row of %d", si, sl, p.bytes, c.size(p.row))
				}
			}
		}
		indexed := 0
		for _, e := range s.index {
			if e != 0 {
				indexed++
			}
		}
		for _, sl := range s.free {
			if s.slots[sl].state != slotFree {
				t.Errorf("stripe %d: slot %d is on the free list but not free", si, sl)
			}
		}
		switch {
		case indexed != used:
			t.Errorf("stripe %d: %d index entries for %d slots in use", si, indexed, used)
		case used+len(s.free) != len(s.slots) || len(s.used) != len(s.slots):
			t.Errorf("stripe %d: %d used + %d free != %d slots", si, used, len(s.free), len(s.slots))
		case bytes != s.bytes || entries != s.entries:
			t.Errorf("stripe %d: counted %d bytes / %d entries, recorded %d / %d", si, bytes, entries, s.bytes, s.entries)
		case s.bytes > s.budget:
			t.Errorf("stripe %d: %d bytes over its %d budget", si, s.bytes, s.budget)
		}
		s.mu.Unlock()
	}
}

// TestHammerAgainstReference drives one cache through a seeded stream of
// batched reserves, fulfils, failures, declines, evictions and abandoned
// waits, beside a reference model: a map of the flights in progress plus an
// exact LRU under the same budget. Every row answered is the key's row, a key
// has exactly one leader while its flight is pending and none otherwise,
// every waiter receives its flight's outcome, the bytes stay in budget — and
// the sampled CLOCK hand earns at least 99 % of the LRU's hits on the same
// access stream.
func TestHammerAgainstReference(t *testing.T) { both(t, testHammer[Row], testHammer[[]float32]) }
func testHammer[R any](t *testing.T, s suite[R]) {
	for seed := int64(1); seed <= 3; seed++ {
		hammerOnce(t, s, seed)
	}
}

// flightRec is the model's record of one pending flight.
type flightRec[R any] struct {
	sh      int32
	local   int32
	epoch   uint64
	leader  Flight[R]
	waiters []Flight[R]
}

func hammerOnce[R any](t *testing.T, s suite[R], seed int64) {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 4, hammerLocals-1)
	budget := hammerBudget(s.overhead)
	c := s.new(budget, 0)
	ref := newRefLRU(budget)
	pending := map[ckey]*flightRec[R]{}
	var order []ckey // pending keys, for picking one at random
	var realHits, refHits, leads, coalesced int
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// Every wait below is on a resolved flight; the bound turns a lost
	// delivery into a failure instead of a hang.
	bounded, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()

	checkRow := func(what string, row R, sh, local int32, epoch uint64) {
		t.Helper()
		if n, tag := canonical(sh, local, epoch); !s.is(row, n, tag) {
			t.Fatalf("seed %d: %s of (%d,%d)@%d answered a wrong row", seed, what, sh, local, epoch)
		}
	}
	resolve := func(recs []*flightRec[R], batched bool) {
		err := error(nil)
		if rng.Intn(8) == 0 {
			err = errHammer
		}
		ls := make([]Lookup[R], len(recs))
		for i, r := range recs {
			ls[i].Flight, ls[i].State = r.leader, Lead
			if err == nil {
				ls[i].Row = s.mk(canonical(r.sh, r.local, r.epoch))
			}
		}
		if batched {
			c.FulfillAll(ls, err)
		} else {
			for i := range ls {
				ls[i].Flight.Fulfill(ls[i].Row, err)
			}
		}
		for i, r := range recs {
			if err == nil {
				ref.insert(ckey{pack(r.sh, r.local), r.epoch}, c.size(ls[i].Row))
			}
			for _, w := range r.waiters {
				row, werr := w.Wait(bounded)
				if !errors.Is(werr, err) {
					t.Fatalf("seed %d: waiter of (%d,%d)@%d got error %v, flight failed with %v", seed, r.sh, r.local, r.epoch, werr, err)
				}
				if err == nil {
					checkRow("a waiter", row, r.sh, r.local, r.epoch)
				}
			}
			if row, werr := r.leader.Wait(bounded); werr == nil {
				checkRow("the leader's handle", row, r.sh, r.local, r.epoch)
			} else if !errors.Is(werr, errGone) {
				t.Fatalf("seed %d: leader's Wait after fulfil: %v", seed, werr)
			}
			delete(pending, ckey{pack(r.sh, r.local), r.epoch})
		}
	}

	out := make([]Lookup[R], 8)
	locals := make([]int32, 8)
	for step := 0; step < 6000; step++ {
		switch op := rng.Intn(10); {
		case op < 6 || len(order) == 0:
			// A batched reserve on one shard at one epoch; duplicates allowed.
			sh, epoch := int32(rng.Intn(2)), uint64(rng.Intn(hammerEpochs))
			m := 1 + rng.Intn(len(locals))
			for i := 0; i < m; i++ {
				locals[i] = int32(zipf.Uint64())
			}
			h, l, co := c.GetOrReserveAll(sh, epoch, locals[:m], nil, out)
			if h+l+co != m {
				t.Fatalf("seed %d: %d+%d+%d outcomes for %d rows", seed, h, l, co, m)
			}
			for i := 0; i < m; i++ {
				key := ckey{pack(sh, locals[i]), epoch}
				rec, inFlight := pending[key]
				switch out[i].State {
				case Hit:
					if inFlight {
						t.Fatalf("seed %d: a pending key hit", seed)
					}
					checkRow("a hit", out[i].Row, sh, locals[i], epoch)
					realHits++
				case Lead:
					if inFlight {
						t.Fatalf("seed %d: a second leader for (%d,%d)@%d", seed, sh, locals[i], epoch)
					}
					pending[key] = &flightRec[R]{sh: sh, local: locals[i], epoch: epoch, leader: out[i].Flight}
					order = append(order, key)
					leads++
				case Coalesced:
					if !inFlight {
						t.Fatalf("seed %d: coalesced onto no flight", seed)
					}
					if !sameFlight(out[i].Flight, rec.leader) {
						t.Fatalf("seed %d: coalesced onto a different flight than the leader's", seed)
					}
					if rng.Intn(3) == 0 {
						// An abandoned wait detaches this waiter only.
						if _, err := out[i].Flight.Wait(cancelled); !errors.Is(err, context.Canceled) {
							t.Fatalf("seed %d: abandoned wait = %v", seed, err)
						}
					}
					rec.waiters = append(rec.waiters, out[i].Flight)
					coalesced++
				}
				if !inFlight && ref.touch(key) {
					refHits++
				}
			}
		case op < 9:
			// Resolve one to four pending flights, one by one or as a batch.
			var recs []*flightRec[R]
			for k := 1 + rng.Intn(4); k > 0 && len(order) > 0; k-- {
				j := rng.Intn(len(order))
				key := order[j]
				order[j] = order[len(order)-1]
				order = order[:len(order)-1]
				recs = append(recs, pending[key])
			}
			resolve(recs, rng.Intn(2) == 0)
		default:
			sh, local := int32(rng.Intn(2)), int32(zipf.Uint64())
			if row, ok := c.Get(sh, local); ok {
				checkRow("Get", row, sh, local, 0)
			}
			if _, inFlight := pending[ckey{pack(sh, local), 0}]; !inFlight {
				ref.touch(ckey{pack(sh, local), 0})
			}
		}
		if step%500 == 0 {
			checkInvariants(t, c)
		}
	}
	for len(order) > 0 {
		key := order[len(order)-1]
		order = order[:len(order)-1]
		resolve([]*flightRec[R]{pending[key]}, true)
	}
	checkInvariants(t, c)
	st := c.Stats()
	if st.Misses != int64(leads) || st.Coalesced != int64(coalesced) {
		t.Fatalf("seed %d: stats %+v, model saw %d leads and %d coalesced", seed, st, leads, coalesced)
	}
	if st.Bytes > budget || st.Evictions == 0 || st.Rejected == 0 {
		t.Fatalf("seed %d: stats %+v: want bytes within %d, evictions and rejections", seed, st, budget)
	}
	if float64(realHits) < 0.99*float64(refHits) {
		t.Fatalf("seed %d: CLOCK hit %d times, the LRU reference %d", seed, realHits, refHits)
	}
	t.Logf("seed %d: CLOCK %d hits, LRU %d; %d leads, %d coalesced, %d evictions, %d rejected",
		seed, realHits, refHits, leads, coalesced, st.Evictions, st.Rejected)
}

// TestConcurrentHammer runs the hammer's invariants from several goroutines
// at once: batched reserves across shared keys, leaders fulfilling (or
// failing) before they wait, coalesced waiters that wait, time out or walk
// away. Each key has one leader at a time, every row answered is the key's
// row, and the bookkeeping adds up afterwards.
func TestConcurrentHammer(t *testing.T) {
	both(t, testConcurrentHammer[Row], testConcurrentHammer[[]float32])
}
func testConcurrentHammer[R any](t *testing.T, s suite[R]) {
	const workers, rounds = 4, 1500
	budget := hammerBudget(s.overhead)
	c := s.new(budget, 0)
	var leading [hammerKeys]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			zipf := rand.NewZipf(rng, 1.1, 4, hammerLocals-1)
			out := make([]Lookup[R], 8)
			locals := make([]int32, 8)
			for r := 0; r < rounds; r++ {
				sh, epoch := int32(rng.Intn(2)), uint64(rng.Intn(hammerEpochs))
				m := 1 + rng.Intn(len(locals))
				for i := 0; i < m; i++ {
					locals[i] = int32(zipf.Uint64())
				}
				c.GetOrReserveAll(sh, epoch, locals[:m], nil, out)
				var err error
				if rng.Intn(10) == 0 {
					err = errHammer
				}
				for i := 0; i < m; i++ {
					n, tag := canonical(sh, locals[i], epoch)
					switch out[i].State {
					case Hit:
						if !s.is(out[i].Row, n, tag) {
							t.Errorf("hit on (%d,%d)@%d answered a wrong row", sh, locals[i], epoch)
						}
					case Lead:
						if !leading[keyIndex(sh, locals[i], epoch)].CompareAndSwap(0, 1) {
							t.Errorf("two leaders for (%d,%d)@%d", sh, locals[i], epoch)
						}
						if err == nil {
							out[i].Row = s.mk(n, tag)
						}
					}
				}
				// Leadership ends before the flight resolves: a reserver that
				// comes after the resolution may lead the key again.
				for i := 0; i < m; i++ {
					if out[i].State == Lead {
						leading[keyIndex(sh, locals[i], epoch)].Store(0)
					}
				}
				c.FulfillAll(out[:m], err)
				for i := 0; i < m; i++ {
					if out[i].State != Coalesced {
						continue
					}
					ctx, cancel := context.Background(), context.CancelFunc(func() {})
					switch rng.Intn(4) {
					case 0:
						continue // walk away without waiting
					case 1:
						ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(50))*time.Microsecond)
					}
					row, werr := out[i].Flight.Wait(ctx)
					cancel()
					if werr == nil {
						n, tag := canonical(sh, locals[i], epoch)
						if !s.is(row, n, tag) {
							t.Errorf("waiter of (%d,%d)@%d got a wrong row", sh, locals[i], epoch)
						}
					} else if !errors.Is(werr, errHammer) && !errors.Is(werr, context.DeadlineExceeded) {
						t.Errorf("waiter of (%d,%d)@%d: %v", sh, locals[i], epoch, werr)
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	checkInvariants(t, c)
	if st := c.Stats(); st.Bytes > budget || st.Hits == 0 || st.Coalesced == 0 || st.Evictions == 0 {
		t.Fatalf("stats %+v: want bytes within %d and hits, coalesced rows and evictions", st, budget)
	}
}

// TestRowCacheAllocs pins the allocation budgets: a batched reserve that
// hits everywhere allocates nothing, and a batch of misses costs one object
// per admitted row — the row's own storage, made by the caller — plus a
// constant, once the slot arrays have grown to the working set.
func TestRowCacheAllocs(t *testing.T) { both(t, testAllocs[Row], testAllocs[[]float32]) }
func testAllocs[R any](t *testing.T, s suite[R]) {
	if mem.RaceEnabled {
		t.Skip("race instrumentation skews alloc counts")
	}
	const batch = 64
	c := s.new(numShards*batch*(s.overhead+16*16), 0)
	out := make([]Lookup[R], batch)
	hot := make([]int32, batch)
	for i := range hot {
		hot[i] = int32(i)
	}
	c.GetOrReserveAll(0, 0, hot, nil, out)
	for i := range out {
		out[i].Row = s.one(16, 1)
	}
	c.FulfillAll(out, nil)
	hits := testing.AllocsPerRun(100, func() {
		if h, _, _ := c.GetOrReserveAll(0, 0, hot, nil, out); h != batch {
			t.Fatalf("%d of %d rows hit", h, batch)
		}
	})
	if hits > 1 {
		t.Errorf("an all-hit batch allocates %.1f objects, budget 1", hits)
	}

	next := int32(batch)
	missRound := func() {
		cold := hot[:0:0]
		cold = append(cold, make([]int32, batch)...)
		for i := range cold {
			cold[i] = next
			next++
		}
		if _, l, _ := c.GetOrReserveAll(1, 0, cold, nil, out); l != batch {
			t.Fatalf("%d of %d rows missed", l, batch)
		}
		for i := range out {
			out[i].Row = s.one(16, 1)
		}
		c.FulfillAll(out, nil)
	}
	for i := 0; i < 64; i++ {
		missRound() // grow the slot arrays and free lists to the working set
	}
	misses := testing.AllocsPerRun(100, missRound)
	if budget := float64(batch + 2); misses > budget {
		t.Errorf("a batch of %d misses allocates %.1f objects, budget %.0f", batch, misses, budget)
	}
	t.Logf("all-hit batch: %.1f allocs; %d-miss batch: %.1f allocs (%d rows admitted)", hits, batch, misses, batch)
}

// BenchmarkRowCache measures the neighbor-row cache's three paths on 64-row
// batches: all hits, all misses fulfilled (with evictions, rows prebuilt),
// and one row coalesced onto another reserver's flight.
func BenchmarkRowCache(b *testing.B) {
	const batch = 64
	row := rowSuite.mk(16, 1)
	b.Run("hit", func(b *testing.B) {
		c := New(64 << 20)
		out := make([]Lookup[Row], batch)
		keys := make([]int32, 64*batch)
		for i := range keys {
			keys[i] = int32(i)
		}
		for i := 0; i < len(keys); i += batch {
			c.GetOrReserveAll(0, 0, keys[i:i+batch], nil, out)
			for j := range out {
				out[j].Row = row
			}
			c.FulfillAll(out, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := i % 64 * batch
			c.GetOrReserveAll(0, 0, keys[off:off+batch], nil, out)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/row")
	})
	b.Run("miss+fulfil", func(b *testing.B) {
		c := New(4 << 20)
		out := make([]Lookup[Row], batch)
		keys := make([]int32, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range keys {
				keys[j] = int32(i*batch + j)
			}
			c.GetOrReserveAll(0, 0, keys, nil, out)
			for j := range out {
				out[j].Row = row
			}
			c.FulfillAll(out, nil)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/row")
	})
	b.Run("coalesce", func(b *testing.B) {
		c := New(4 << 20)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _, fl, _ := c.GetOrReserve(0, int32(i))
			_, _, w, _ := c.GetOrReserve(0, int32(i))
			fl.Fulfill(row, nil)
			if _, err := w.Wait(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
