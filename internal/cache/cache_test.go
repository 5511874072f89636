package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The suite below runs once per instantiation of LRU. suite[R] supplies what
// differs: a constructor, a row maker, and the size/identity of a row.
type suite[R any] struct {
	name string
	new  func(maxBytes int64, admitMass float64) *LRU[R]
	// mk builds a row of n units whose content encodes tag.
	mk func(n int, tag float32) R
	// is reports whether row is mk(n, tag).
	is func(row R, n int, tag float32) bool
	// one is mk in a single allocation, as the fetch chain builds rows.
	one      func(n int, tag float32) R
	overhead int64
}

var rowSuite = suite[Row]{
	name: "rows",
	new:  func(maxBytes int64, _ float64) *Cache { return New(maxBytes) },
	mk: func(deg int, tag float32) Row {
		r := Row{
			Locals: make([]int32, deg), Shards: make([]int32, deg),
			Weights: make([]float32, deg), WDegs: make([]float32, deg), WDeg: tag,
		}
		for i := range r.Locals {
			r.Locals[i] = int32(i)
		}
		return r
	},
	is: func(r Row, deg int, tag float32) bool { return len(r.Locals) == deg && r.WDeg == tag },
	one: func(deg int, tag float32) Row {
		ints := make([]int32, 2*deg)
		return Row{Locals: ints[:deg:deg], Shards: ints[deg:], WDeg: tag}
	},
	overhead: rowOverhead,
}

var featSuite = suite[[]float32]{
	name: "features",
	new:  NewFeatures,
	mk:   featRow,
	one:  featRow,
	is: func(r []float32, dim int, tag float32) bool {
		return len(r) == dim && (dim == 0 || r[0] == tag)
	},
	overhead: featRowOverhead,
}

func featRow(dim int, tag float32) []float32 {
	row := make([]float32, dim)
	for i := range row {
		row[i] = tag
	}
	return row
}

// both runs f over the two instantiations.
func both(t *testing.T, rows func(*testing.T, suite[Row]), feats func(*testing.T, suite[[]float32])) {
	t.Run(rowSuite.name, func(t *testing.T) { rows(t, rowSuite) })
	t.Run(featSuite.name, func(t *testing.T) { feats(t, featSuite) })
}

// lead reserves key, requires leadership, and returns the flight.
func lead[R any](t *testing.T, c *LRU[R], sh, local int32, epoch uint64, mass float64) Flight[R] {
	t.Helper()
	_, hit, fl, leader := c.GetOrReserveAt(sh, local, epoch, mass)
	if hit || !leader {
		t.Fatalf("reserve (%d,%d)@%d: hit=%v leader=%v, want fresh leader", sh, local, epoch, hit, leader)
	}
	return fl
}

// sameFlight reports whether two handles name the same flight: the same
// pending slot at the same generation.
func sameFlight[R any](a, b Flight[R]) bool {
	return a.c == b.c && a.si == b.si && a.slot == b.slot && a.gen == b.gen
}

// sameStripeLocals returns n shard-0 local IDs that all hash to one stripe,
// for deterministic LRU tests despite the striping.
func sameStripeLocals[R any](c *LRU[R], n int) []int32 {
	want := c.stripeFor(ckey{addr: pack(0, 0)})
	out := []int32{0}
	for l := int32(1); len(out) < n; l++ {
		if c.stripeFor(ckey{addr: pack(0, l)}) == want {
			out = append(out, l)
		}
	}
	return out
}

func TestDisabledCacheIsNil(t *testing.T) { both(t, testDisabled[Row], testDisabled[[]float32]) }
func testDisabled[R any](t *testing.T, s suite[R]) {
	if s.new(0, 0) != nil || s.new(-5, 0) != nil {
		t.Fatal("a non-positive budget must return nil")
	}
	var c *LRU[R]
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v, want zeros", st)
	}
}

func TestHitAfterFulfill(t *testing.T) { both(t, testHit[Row], testHit[[]float32]) }
func testHit[R any](t *testing.T, s suite[R]) {
	c := s.new(1<<20, 0)
	lead(t, c, 3, 7, 0, 0.3).Fulfill(s.mk(5, 1.5), nil)
	if row, ok := c.Get(3, 7); !ok || !s.is(row, 5, 1.5) {
		t.Fatalf("Get after Fulfill: ok=%v row=%+v", ok, row)
	}
	if row, hit, _, _ := c.GetOrReserve(3, 7); !hit || !s.is(row, 5, 1.5) {
		t.Fatalf("GetOrReserve after Fulfill: hit=%v", hit)
	}
	// Keys are shard-qualified.
	if _, ok := c.Get(2, 7); ok {
		t.Fatal("local 7 of shard 2 must not hit shard 3's entry")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Entries != 1 || st.Rejected != 0 {
		t.Fatalf("stats = %+v, want 1 miss, 2 hits, 1 entry", st)
	}
	if want := c.size(s.mk(5, 0)); st.Bytes != want {
		t.Fatalf("stats bytes = %d, want %d", st.Bytes, want)
	}
}

func TestLRUEviction(t *testing.T) { both(t, testEviction[Row], testEviction[[]float32]) }
func testEviction[R any](t *testing.T, s suite[R]) {
	// Per-stripe budget of 2 minimal rows.
	c := s.new(numShards*2*s.overhead, 0)
	ls := sameStripeLocals(c, 4)
	lead(t, c, 0, ls[0], 0, 0).Fulfill(s.mk(0, 0), nil)
	lead(t, c, 0, ls[1], 0, 0).Fulfill(s.mk(0, 0), nil)
	// Touch ls[0] so ls[1] is the LRU victim.
	if _, ok := c.Get(0, ls[0]); !ok {
		t.Fatal("ls[0] missing before eviction")
	}
	lead(t, c, 0, ls[2], 0, 0).Fulfill(s.mk(0, 0), nil)
	if resident(c, 0, ls[1]) {
		t.Fatal("LRU entry survived eviction")
	}
	if !resident(c, 0, ls[0]) {
		t.Fatal("recently used entry was evicted")
	}
	if !resident(c, 0, ls[2]) {
		t.Fatal("new entry not resident")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Bytes > numShards*2*s.overhead {
		t.Fatalf("stats = %+v, want 1 eviction within budget", st)
	}
	// A hit through the fetch path's reserve counts as a use the same way:
	// ls[0] is used after ls[2] was inserted, then ls[2] is hit through
	// GetOrReserve, so ls[0] is the stalest and the victim.
	if _, ok := c.Get(0, ls[0]); !ok {
		t.Fatal("ls[0] missing before the second eviction")
	}
	if _, hit, _, _ := c.GetOrReserve(0, ls[2]); !hit {
		t.Fatal("ls[2] missing before the second eviction")
	}
	lead(t, c, 0, ls[3], 0, 0).Fulfill(s.mk(0, 0), nil)
	if resident(c, 0, ls[0]) {
		t.Fatal("the stalest row survived the second eviction")
	}
	if !resident(c, 0, ls[2]) {
		t.Fatal("a row hit through GetOrReserve was evicted")
	}
}

// resident reports whether (sh, local) is cached at the base epoch, without
// counting a use as a Get would.
func resident[R any](c *LRU[R], sh, local int32) bool {
	key := ckey{addr: pack(sh, local)}
	s := c.stripeFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, sl := s.find(key)
	return sl >= 0 && s.slots[sl].state == slotResident
}

// Rows larger than a whole stripe's budget are declined, not evicted for.
func TestOversizeRowNotAdmitted(t *testing.T) { both(t, testOversize[Row], testOversize[[]float32]) }
func testOversize[R any](t *testing.T, s suite[R]) {
	c := s.new(1, 0) // stripe budget clamps to one minimal row
	fl := lead(t, c, 0, 1, 0, 1)
	_, _, waiter, _ := c.GetOrReserve(0, 1)
	fl.Fulfill(s.mk(1024, 1), nil)
	if _, ok := c.Get(0, 1); ok {
		t.Fatal("over-budget row must not be admitted")
	}
	// The decline is counted, and the row still reaches the flight's waiters.
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want an empty cache and 1 rejected row", st)
	}
	if row, err := waiter.Wait(context.Background()); err != nil || !s.is(row, 1024, 1) {
		t.Fatalf("waiter of a declined row: %+v, %v", row, err)
	}
	// A row that fits is admitted past the decline: the slot was freed.
	lead(t, c, 0, 1, 0, 1).Fulfill(s.mk(0, 2), nil)
	if row, ok := c.Get(0, 1); !ok || !s.is(row, 0, 2) {
		t.Fatalf("minimal row after a decline: ok=%v row=%+v", ok, row)
	}
}

func TestSingleFlightCoalesce(t *testing.T) { both(t, testCoalesce[Row], testCoalesce[[]float32]) }
func testCoalesce[R any](t *testing.T, s suite[R]) {
	c := s.new(1<<20, 0)
	leaderFl := lead(t, c, 2, 9, 0, 0)
	_, hit, waiterFl, leader2 := c.GetOrReserve(2, 9)
	if hit || leader2 || !sameFlight(waiterFl, leaderFl) {
		t.Fatalf("second reserve: hit=%v leader=%v sameFlight=%v, want coalesced wait", hit, leader2, sameFlight(waiterFl, leaderFl))
	}
	got := make(chan R, 1)
	go func() {
		row, err := waiterFl.Wait(context.Background())
		if err != nil {
			t.Error(err)
		}
		got <- row
	}()
	leaderFl.Fulfill(s.mk(3, 7), nil)
	select {
	case row := <-got:
		if !s.is(row, 3, 7) {
			t.Fatalf("waiter row = %+v", row)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never released")
	}
	if st := c.Stats(); st.Coalesced != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 miss + 1 coalesced", st)
	}
}

func TestFailedFlightNotCachedAndRetryable(t *testing.T) {
	both(t, testFailed[Row], testFailed[[]float32])
}
func testFailed[R any](t *testing.T, s suite[R]) {
	c := s.new(1<<20, 0)
	boom := errors.New("boom")
	fl := lead(t, c, 0, 4, 0, 1)
	_, _, waiter, _ := c.GetOrReserve(0, 4)
	var zero R
	fl.Fulfill(zero, boom)
	if _, err := waiter.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("waiter error = %v, want %v", err, boom)
	}
	// The leader fulfilled the flight itself; its handle no longer names it.
	if _, err := fl.Wait(context.Background()); !errors.Is(err, errGone) {
		t.Fatalf("leader's Wait after a failed fulfil = %v, want errGone", err)
	}
	if st := c.Stats(); st.Rejected != 0 {
		t.Fatalf("a failed fetch counted as rejected: %+v", st)
	}
	if _, ok := c.Get(0, 4); ok {
		t.Fatal("failed fetch must not populate the cache")
	}
	// The flight is gone: the next toucher becomes a fresh leader.
	lead(t, c, 0, 4, 0, 1).Fulfill(s.mk(1, 1), nil)
	if _, ok := c.Get(0, 4); !ok {
		t.Fatal("retry after failure did not cache")
	}
}

func TestWaitHonorsContext(t *testing.T) { both(t, testWaitCtx[Row], testWaitCtx[[]float32]) }
func testWaitCtx[R any](t *testing.T, s suite[R]) {
	c := s.new(1<<20, 0)
	fl := lead(t, c, 5, 5, 0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fl.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on cancelled ctx = %v, want Canceled", err)
	}
	// The ctx expiry abandons only that waiter; the flight still completes.
	fl.Fulfill(s.mk(2, 1), nil)
	if _, ok := c.Get(5, 5); !ok {
		t.Fatal("flight no longer populates the cache after a waiter gave up")
	}
}

// The leader disappears and the fetch's completion hook — some other
// goroutine, not a waiter — fulfils the flight: blocked waiters are released
// through the flight's one channel, a flight nobody waits on still populates
// the cache, and a second Fulfill is a no-op.
func TestFulfillWithoutLeader(t *testing.T) { both(t, testNoLeader[Row], testNoLeader[[]float32]) }
func testNoLeader[R any](t *testing.T, s suite[R]) {
	c := s.new(1<<20, 0)
	fl := lead(t, c, 1, 1, 0, 1)
	const waiters = 4
	got := make(chan R, waiters)
	for i := 0; i < waiters; i++ {
		_, _, waiterFl, leader := c.GetOrReserve(1, 1)
		if leader || !sameFlight(waiterFl, fl) {
			t.Fatal("a second reserver must coalesce onto the leader's flight")
		}
		go func() {
			row, err := waiterFl.Wait(context.Background())
			if err != nil {
				t.Error(err)
			}
			got <- row
		}()
	}
	go fl.Fulfill(s.mk(4, 2), nil) // the "hook"
	for i := 0; i < waiters; i++ {
		select {
		case row := <-got:
			if !s.is(row, 4, 2) {
				t.Fatalf("row = %+v", row)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter never released")
		}
	}
	fl.Fulfill(s.mk(9, 9), errors.New("late duplicate"))
	if row, err := fl.Wait(context.Background()); err != nil || !s.is(row, 4, 2) {
		t.Fatalf("resolved flight changed by a second Fulfill: %+v, %v", row, err)
	}

	lead(t, c, 1, 2, 0, 1).Fulfill(s.mk(1, 3), nil) // nobody ever waits
	if _, ok := c.Get(1, 2); !ok {
		t.Fatal("a flight nobody waits on must still populate the cache")
	}
}

func TestConcurrentReserveElectsOneLeader(t *testing.T) {
	both(t, testOneLeader[Row], testOneLeader[[]float32])
}
func testOneLeader[R any](t *testing.T, s suite[R]) {
	c := s.new(1<<20, 0)
	const workers = 32
	var leaders atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			row, hit, fl, leader := c.GetOrReserve(7, 7)
			switch {
			case hit:
			case leader:
				leaders.Add(1)
				fl.Fulfill(s.mk(2, 9), nil)
				return
			default:
				var err error
				if row, err = fl.Wait(context.Background()); err != nil {
					t.Error(err)
				}
			}
			if !s.is(row, 2, 9) {
				t.Errorf("row = %+v", row)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := leaders.Load(); n != 1 {
		t.Fatalf("%d leaders elected, want exactly 1", n)
	}
}

// A key is inserted only by resolving its one pending slot: a second
// Fulfill — through a copy of the handle, a batch that names the same flight,
// or a stale handle whose slot was freed and reused — changes nothing.
func TestDuplicateInsertIsNoop(t *testing.T) { both(t, testDuplicate[Row], testDuplicate[[]float32]) }
func testDuplicate[R any](t *testing.T, s suite[R]) {
	c := s.new(1<<20, 0)
	fl := lead(t, c, 0, 0, 0, 0)
	fl.Fulfill(s.mk(1, 1), nil)
	again := fl
	again.Fulfill(s.mk(9, 9), nil)
	c.FulfillAll([]Lookup[R]{{Row: s.mk(9, 9), Flight: fl, State: Lead}}, nil)
	if st := c.Stats(); st.Entries != 1 || st.Bytes != c.size(s.mk(1, 1)) {
		t.Fatalf("stats after duplicate insert = %+v", st)
	}
	if row, ok := c.Get(0, 0); !ok || !s.is(row, 1, 1) {
		t.Fatalf("resident row changed by a duplicate fulfil: %+v", row)
	}
	// Free the slot through a failed flight and reuse it: the old handle's
	// generation no longer matches, so it cannot resolve the new flight.
	f2 := lead(t, c, 0, 1, 0, 0)
	var zero R
	f2.Fulfill(zero, errors.New("boom"))
	f3 := lead(t, c, 0, 1, 0, 0)
	if f3.slot == f2.slot && f3.gen == f2.gen {
		t.Fatal("a reused slot kept its generation")
	}
	f2.Fulfill(s.mk(7, 7), nil)
	if _, ok := c.Get(0, 1); ok {
		t.Fatal("a stale handle resolved its slot's next flight")
	}
	f3.Fulfill(s.mk(2, 2), nil)
	if row, ok := c.Get(0, 1); !ok || !s.is(row, 2, 2) {
		t.Fatalf("new flight's row: ok=%v row=%+v", ok, row)
	}
}

// The mutation-tier regression test: a row cached at epoch N must never
// answer a read pinned at epoch N+1 (or any other epoch) — the delta tier
// relies on the cache key, not invalidation, to keep epoch-pinned queries
// consistent. Flights are epoch-exact as well.
func TestEpochKeyIsolation(t *testing.T) { both(t, testEpochs[Row], testEpochs[[]float32]) }
func testEpochs[R any](t *testing.T, s suite[R]) {
	c := s.new(1<<20, 0)
	lead(t, c, 0, 7, 5, 1).Fulfill(s.mk(2, 5), nil)
	if row, hit, _, _ := c.GetOrReserveAt(0, 7, 5, 1); !hit || !s.is(row, 2, 5) {
		t.Fatalf("epoch-5 reread: hit=%v row=%+v", hit, row)
	}
	// Epoch N+1 must miss — the cached epoch-5 row would be stale there.
	lead(t, c, 0, 7, 6, 1).Fulfill(s.mk(3, 6), nil)
	// Both epochs now resident, each serving its own view.
	if row, ok := c.get(ckey{addr: pack(0, 7), epoch: 5}); !ok || !s.is(row, 2, 5) {
		t.Fatalf("epoch-5 row clobbered: %+v, %v", row, ok)
	}
	if row, ok := c.get(ckey{addr: pack(0, 7), epoch: 6}); !ok || !s.is(row, 3, 6) {
		t.Fatalf("epoch-6 row wrong: %+v, %v", row, ok)
	}
	// The base epoch (0) was never filled and must miss too.
	if _, ok := c.Get(0, 7); ok {
		t.Fatal("epoch-0 read served a delta-epoch row")
	}
	// A pending epoch-7 fetch must not coalesce an epoch-8 reader.
	f7 := lead(t, c, 0, 9, 7, 1)
	f8 := lead(t, c, 0, 9, 8, 1)
	if sameFlight(f7, f8) {
		t.Fatal("epoch-8 read coalesced onto the epoch-7 flight")
	}
	f7.Fulfill(s.mk(1, 7), nil)
	f8.Fulfill(s.mk(1, 8), nil)
	// Every epoch of one vertex lives on one stripe.
	if c.stripeFor(ckey{addr: pack(0, 9), epoch: 7}) != c.stripeFor(ckey{addr: pack(0, 9), epoch: 8}) {
		t.Fatal("epochs of one vertex landed on different stripes")
	}
}

// The admit predicate reads the highest mass among a flight's reservers: the
// neighbor-row cache admits everything; the feature cache declines rows whose
// mass stays under its threshold.
func TestMassAdmission(t *testing.T) { both(t, testAdmission[Row], testAdmission[[]float32]) }
func testAdmission[R any](t *testing.T, s suite[R]) {
	c := s.new(1<<20, 0.5)
	gated := c.admit != nil
	// Below-threshold mass: the fetch completes; only a gated cache drops it.
	lead(t, c, 0, 1, 0, 0.1).Fulfill(s.mk(4, 1), nil)
	_, hit, _, _ := c.GetOrReserveAt(0, 1, 0, 0.1)
	if st := c.Stats(); hit == gated || (st.Rejected == 1) != gated {
		t.Fatalf("low-mass fulfill: hit=%v stats=%+v (gated=%v)", hit, st, gated)
	}
	// At the threshold: admitted.
	lead(t, c, 0, 2, 0, 0.5).Fulfill(s.mk(4, 2), nil)
	if _, ok := c.Get(0, 2); !ok {
		t.Fatal("at-threshold row was not admitted")
	}
	// The leader's own mass is below the threshold, but a high-mass query
	// coalesces onto the same flight: the row earns its slot from the maximum.
	f := lead(t, c, 1, 3, 0, 0.1)
	if _, hit, f2, leader := c.GetOrReserveAt(1, 3, 0, 0.9); hit || leader || !sameFlight(f2, f) {
		t.Fatalf("coalesce: hit=%v leader=%v sameFlight=%v", hit, leader, sameFlight(f2, f))
	}
	f.Fulfill(s.mk(4, 3), nil)
	if _, ok := c.Get(1, 3); !ok {
		t.Fatal("max-mass admission failed: row not resident")
	}
}
