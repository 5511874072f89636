package agg

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pprengine/internal/obs"
	"pprengine/internal/rpc"
	"pprengine/internal/wire"
)

// tierCase runs one suite over both instantiations of the aggregator: how the
// fake peer answers a request for ids, and how a ticket's row range is read.
type tierCase struct {
	name    string
	tier    *Tier
	respond func(ids []int32) []byte
	// check verifies rows [off, off+len(ids)) of b are ids' synthetic rows.
	check func(t *testing.T, b Batch, off int, ids []int32)
}

const featDim = 4

var tiers = []tierCase{
	{
		// Vertex v has the two neighbors (v, v+1) on shard 0, row degree 2.
		name: "neighbors", tier: Neighbors,
		respond: func(ids []int32) []byte {
			n := &wire.NeighborInfos{Indptr: []int32{0}}
			for _, v := range ids {
				n.Locals = append(n.Locals, v, v+1)
				n.Shards = append(n.Shards, 0, 0)
				n.Weights = append(n.Weights, 1, 1)
				n.WDegs = append(n.WDegs, 2, 2)
				n.Indptr = append(n.Indptr, int32(len(n.Locals)))
				n.RowWDeg = append(n.RowWDeg, 2)
			}
			return wire.EncodeCSR(n)
		},
		check: func(t *testing.T, b Batch, off int, ids []int32) {
			t.Helper()
			infos := b.(*wire.NeighborInfos)
			for i, id := range ids {
				locals, _, _, _ := infos.Row(off + i)
				if len(locals) != 2 || locals[0] != id || locals[1] != id+1 || infos.RowWDeg[off+i] != 2 {
					t.Fatalf("row %d for id %d = %v (wdeg %v)", off+i, id, locals, infos.RowWDeg[off+i])
				}
			}
		},
	},
	{
		// Row of v is [v, v+0.25, v+0.5, ...] at featDim.
		name: "features", tier: Features,
		respond: func(ids []int32) []byte {
			feats := make([]float32, 0, len(ids)*featDim)
			for _, v := range ids {
				for j := 0; j < featDim; j++ {
					feats = append(feats, float32(v)+float32(j)*0.25)
				}
			}
			return wire.EncodeFeatureResponse(featDim, feats)
		},
		check: func(t *testing.T, b Batch, off int, ids []int32) {
			t.Helper()
			fb := b.(*FeatureBlock)
			rows := fb.Rows(off, len(ids))
			if (fb.Dim != featDim && len(ids) > 0) || len(rows) != len(ids)*featDim {
				t.Fatalf("got %d floats at dim %d, want %d rows x %d", len(rows), fb.Dim, len(ids), featDim)
			}
			for i, v := range ids {
				for j := 0; j < featDim; j++ {
					if want := float32(v) + float32(j)*0.25; rows[i*featDim+j] != want {
						t.Fatalf("row %d (id %d) col %d = %v, want %v", i, v, j, rows[i*featDim+j], want)
					}
				}
			}
		},
	},
}

// fakePeer answers flushes in-process. A non-nil gate holds every response
// until it closes, letting a test pile tickets into one flush; hold holds only
// the first request. short truncates responses to that many rows.
type fakePeer struct {
	tc    tierCase
	gate  chan struct{}
	hold  chan struct{}
	fail  error
	short int

	mu       sync.Mutex
	calls    []call
	released atomic.Int64
}

type call struct {
	method rpc.Method
	epoch  uint64
	ids    []int32
}

type fakeResponse struct {
	sig      rpc.Completion
	payload  []byte
	err      error
	peer     *fakePeer
	released atomic.Bool
}

func (r *fakeResponse) OnDone(fn func()) bool { return r.sig.OnDone(fn) }
func (r *fakeResponse) Wait() ([]byte, error) { <-r.sig.Done(); return r.payload, r.err }
func (r *fakeResponse) WaitCtx(ctx context.Context) ([]byte, error) {
	select {
	case <-r.sig.Done():
		return r.payload, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
func (r *fakeResponse) Release() {
	if r.released.CompareAndSwap(false, true) {
		r.peer.released.Add(1)
	}
}

func (p *fakePeer) transport(_ context.Context, _ int32, m rpc.Method, payload []byte) Response {
	var c call
	var err error
	c.method = m
	if m == rpc.MethodGetNeighborInfosAt {
		c.epoch, c.ids, err = wire.DecodeIDListAt(payload)
	} else {
		c.ids, err = wire.DecodeIDList(payload)
	}
	if err != nil {
		panic(err)
	}
	p.mu.Lock()
	first := len(p.calls) == 0
	p.calls = append(p.calls, c)
	p.mu.Unlock()
	r := &fakeResponse{peer: p}
	go func() {
		if p.gate != nil {
			<-p.gate
		}
		if first && p.hold != nil {
			<-p.hold
		}
		ids := c.ids
		if p.short > 0 && len(ids) > p.short {
			ids = ids[:p.short]
		}
		r.payload, r.err = p.tc.respond(ids), p.fail
		r.sig.Complete()
	}()
	return r
}

func (p *fakePeer) numCalls() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.calls)
}

func forEachTier(t *testing.T, f func(t *testing.T, tc tierCase)) {
	for _, tc := range tiers {
		t.Run(tc.name, func(t *testing.T) { f(t, tc) })
	}
}

func checkTicket(t *testing.T, tc tierCase, tk *Ticket, ids []int32) {
	t.Helper()
	b, off, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	tc.check(t, b, off, ids)
}

// With nothing in flight every fetch flushes on its own — the single-query
// fast path adds no latency and no batching.
func TestImmediateFlushWhenIdle(t *testing.T) {
	forEachTier(t, func(t *testing.T, tc tierCase) {
		p := &fakePeer{tc: tc}
		a := NewTier(tc.tier, p.transport, 1, Options{Window: time.Minute})
		for i := int32(0); i < 3; i++ {
			checkTicket(t, tc, a.Enqueue([]int32{i * 10}), []int32{i * 10})
		}
		if got := p.numCalls(); got != 3 {
			t.Fatalf("peer saw %d requests, want 3 (one per idle fetch)", got)
		}
		if st := a.Stats(); st.Flushes != 3 || st.Shared != 0 || st.Tickets != 3 || st.Rows != 3 {
			t.Fatalf("stats = %+v, want 3 flushes, 0 shared, 3 tickets, 3 rows", st)
		}
	})
}

// Fetches arriving while a flush is on the wire share the next flush — three
// queries, two wire requests — and each flush's wire accounting lands on its
// opener, never on the riders.
func TestConcurrentFetchesCoalesce(t *testing.T) {
	forEachTier(t, func(t *testing.T, tc tierCase) {
		p := &fakePeer{tc: tc, gate: make(chan struct{})}
		a := NewTier(tc.tier, p.transport, 1, Options{Window: 5 * time.Millisecond})
		t1 := a.Enqueue([]int32{1})    // idle -> immediate flush, blocks on gate
		t2 := a.Enqueue([]int32{2, 3}) // batch behind the in-flight flush
		t3 := a.Enqueue([]int32{4})    // joins the batch; flushed by its window
		close(p.gate)
		checkTicket(t, tc, t1, []int32{1})
		checkTicket(t, tc, t2, []int32{2, 3})
		checkTicket(t, tc, t3, []int32{4})
		if got := p.numCalls(); got != 2 {
			t.Fatalf("peer saw %d requests, want 2 (1 immediate + 1 merged)", got)
		}
		if st := a.Stats(); st.Flushes != 2 || st.Shared != 2 || st.Tickets != 3 || st.Rows != 4 {
			t.Fatalf("stats = %+v, want 2 flushes, 2 shared, 3 tickets, 4 rows", st)
		}
		if r, _ := t1.Accounting(); r != 1 {
			t.Fatalf("t1 requests = %d, want 1", r)
		}
		if r, b := t2.Accounting(); r != 1 || b != int64(len(wire.EncodeIDList([]int32{2, 3, 4}))) {
			t.Fatalf("t2 accounting = (%d, %d), want the merged flush", r, b)
		}
		if r, b := t3.Accounting(); r != 0 || b != 0 {
			t.Fatalf("t3 accounting = (%d, %d), want (0, 0) for a rider", r, b)
		}
	})
}

// Reaching MaxRows flushes the pending batch even while another flush is in
// flight and long before the window expires.
func TestRowCapFlush(t *testing.T) {
	forEachTier(t, func(t *testing.T, tc tierCase) {
		p := &fakePeer{tc: tc, gate: make(chan struct{})}
		a := NewTier(tc.tier, p.transport, 1, Options{Window: time.Hour, MaxRows: 3})
		t1 := a.Enqueue([]int32{1}) // immediate
		t2 := a.Enqueue([]int32{2})
		t3 := a.Enqueue([]int32{3, 4}) // pending rows hit the cap -> second flush now
		if got := a.Stats().Flushes; got != 2 {
			t.Fatalf("flushes before gate release = %d, want 2 (cap-triggered)", got)
		}
		close(p.gate)
		checkTicket(t, tc, t1, []int32{1})
		checkTicket(t, tc, t2, []int32{2})
		checkTicket(t, tc, t3, []int32{3, 4})
		if got := p.numCalls(); got != 2 {
			t.Fatalf("peer saw %d requests, want 2", got)
		}
	})
}

// A batch opened behind an in-flight flush goes out after the window even if
// that flush never completes in time.
func TestWindowFlush(t *testing.T) {
	forEachTier(t, func(t *testing.T, tc tierCase) {
		p := &fakePeer{tc: tc, hold: make(chan struct{})}
		a := NewTier(tc.tier, p.transport, 1, Options{Window: 2 * time.Millisecond})
		t1 := a.Enqueue([]int32{1}) // in flight, held
		t2 := a.Enqueue([]int32{2}) // opens a batch; window timer armed
		// t2's window expires while t1 is still stuck on the wire, so t2's
		// flush goes out on its own and resolves first.
		checkTicket(t, tc, t2, []int32{2})
		close(p.hold)
		checkTicket(t, tc, t1, []int32{1})
		if got := p.numCalls(); got != 2 {
			t.Fatalf("peer saw %d requests, want 2", got)
		}
	})
}

// A failed flush fails every ticket it carried.
func TestErrorPropagatesToAllWaiters(t *testing.T) {
	forEachTier(t, func(t *testing.T, tc tierCase) {
		boom := errors.New("boom")
		p := &fakePeer{tc: tc, fail: boom, gate: make(chan struct{})}
		a := NewTier(tc.tier, p.transport, 1, Options{Window: time.Millisecond})
		t1 := a.Enqueue([]int32{1})
		t2 := a.Enqueue([]int32{2})
		close(p.gate)
		for i, tk := range []*Ticket{t1, t2} {
			if _, _, err := tk.Wait(context.Background()); !errors.Is(err, boom) {
				t.Fatalf("ticket %d err = %v, want the flush's error", i, err)
			}
		}
	})
}

// The peer answers fewer rows than the merged request asked for: the flush
// must fail instead of mis-slicing row ranges across tickets.
func TestValidatesRowCount(t *testing.T) {
	forEachTier(t, func(t *testing.T, tc tierCase) {
		p := &fakePeer{tc: tc, short: 1}
		a := NewTier(tc.tier, p.transport, 1, Options{Window: time.Millisecond})
		if _, _, err := a.Enqueue([]int32{1, 2, 3}).Wait(context.Background()); err == nil {
			t.Fatal("short response was not rejected")
		}
	})
}

// A waiter abandoning its Wait does not poison the flush — the other
// participants still get their rows, and the abandoned ticket itself still
// resolves for anyone holding it.
func TestCancelledWaiterDetaches(t *testing.T) {
	forEachTier(t, func(t *testing.T, tc tierCase) {
		p := &fakePeer{tc: tc, gate: make(chan struct{})}
		a := NewTier(tc.tier, p.transport, 1, Options{Window: 5 * time.Millisecond})
		t1 := a.Enqueue([]int32{1})
		t2 := a.Enqueue([]int32{2})
		t3 := a.Enqueue([]int32{3})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := t2.Wait(ctx); err != context.Canceled {
			t.Fatalf("cancelled Wait = %v, want context.Canceled", err)
		}
		close(p.gate)
		checkTicket(t, tc, t1, []int32{1})
		checkTicket(t, tc, t3, []int32{3})
		checkTicket(t, tc, t2, []int32{2}) // the flush resolved it regardless
	})
}

// A zero-row fetch resolves immediately without traffic.
func TestEmptyEnqueue(t *testing.T) {
	forEachTier(t, func(t *testing.T, tc tierCase) {
		p := &fakePeer{tc: tc}
		a := NewTier(tc.tier, p.transport, 1, Options{})
		tk := a.Enqueue(nil)
		if tk.OnDone(func() {}) {
			t.Fatal("empty ticket not resolved immediately")
		}
		b, off, err := tk.Wait(context.Background())
		if err != nil || off != 0 {
			t.Fatalf("empty enqueue = (%v, %d, %v)", b, off, err)
		}
		tc.check(t, b, 0, nil)
		if p.numCalls() != 0 {
			t.Fatal("empty ticket reached the wire")
		}
	})
}

// Only fetches pinned at the same mutation epoch share a flush: a pending
// batch at another epoch is shipped first, and each request carries its own
// epoch (neighbor tier: method 1 at epoch 0, method 11 otherwise).
func TestBatchesAreEpochPure(t *testing.T) {
	forEachTier(t, func(t *testing.T, tc tierCase) {
		p := &fakePeer{tc: tc, gate: make(chan struct{})}
		a := NewTier(tc.tier, p.transport, 1, Options{Window: time.Hour})
		sc := obs.SpanContext{}
		t0 := a.EnqueueAt(sc, 0, []int32{1})  // immediate, epoch 0
		t5a := a.EnqueueAt(sc, 5, []int32{2}) // opens a batch at epoch 5
		t5b := a.EnqueueAt(sc, 5, []int32{3}) // same epoch: rides it
		t6 := a.EnqueueAt(sc, 6, []int32{4})  // boundary: ships the epoch-5 batch
		if got := a.Stats().Flushes; got != 2 {
			t.Fatalf("flushes at the epoch boundary = %d, want 2", got)
		}
		close(p.gate)
		a.Close() // ships the epoch-6 batch
		checkTicket(t, tc, t0, []int32{1})
		checkTicket(t, tc, t5a, []int32{2})
		checkTicket(t, tc, t5b, []int32{3})
		checkTicket(t, tc, t6, []int32{4})
		p.mu.Lock()
		defer p.mu.Unlock()
		want := []call{{ids: []int32{1}}, {epoch: 5, ids: []int32{2, 3}}, {epoch: 6, ids: []int32{4}}}
		if len(p.calls) != len(want) {
			t.Fatalf("peer saw %d requests, want %d", len(p.calls), len(want))
		}
		for i, c := range p.calls {
			if len(c.ids) != len(want[i].ids) || c.ids[0] != want[i].ids[0] {
				t.Fatalf("request %d carried ids %v, want %v", i, c.ids, want[i].ids)
			}
			if tc.tier == Neighbors && c.epoch != want[i].epoch {
				t.Fatalf("request %d at epoch %d, want %d", i, c.epoch, want[i].epoch)
			}
		}
	})
}

// The flush's pooled payload is held by one count per ticket and goes home
// exactly once: at the last Release, or — for a ticket released before the
// flush resolved — when the flush completes.
func TestSharesReleasePayloadOnce(t *testing.T) {
	forEachTier(t, func(t *testing.T, tc tierCase) {
		p := &fakePeer{tc: tc, gate: make(chan struct{})}
		a := NewTier(tc.tier, p.transport, 1, Options{Window: time.Hour, MaxRows: 2, ZeroCopy: true})
		t1 := a.Enqueue([]int32{1})
		t2 := a.Enqueue([]int32{2})
		t3 := a.Enqueue([]int32{3}) // t2+t3 merge at the cap
		t2.Release()                // abandoned while in flight
		close(p.gate)
		checkTicket(t, tc, t1, []int32{1})
		checkTicket(t, tc, t3, []int32{3})
		t1.Release()
		t1.Release() // idempotent
		if got := p.released.Load(); got != 1 {
			t.Fatalf("payloads released = %d, want 1 (t1's flush)", got)
		}
		t3.Release()
		a.Close()
		if got := p.released.Load(); got != 2 {
			t.Fatalf("payloads released = %d, want both flushes'", got)
		}
	})
}

// Close ships the forming batch, waits for in-flight flushes, and fails later
// fetches.
func TestCloseDrains(t *testing.T) {
	forEachTier(t, func(t *testing.T, tc tierCase) {
		p := &fakePeer{tc: tc, hold: make(chan struct{})}
		a := NewTier(tc.tier, p.transport, 1, Options{Window: time.Hour})
		t1 := a.Enqueue([]int32{1})
		t2 := a.Enqueue([]int32{2}) // pending behind t1, window never fires
		closed := make(chan struct{})
		go func() { a.Close(); close(closed) }()
		checkTicket(t, tc, t2, []int32{2}) // Close shipped it
		select {
		case <-closed:
			t.Fatal("Close returned with a flush still in flight")
		case <-time.After(5 * time.Millisecond):
		}
		close(p.hold)
		<-closed
		checkTicket(t, tc, t1, []int32{1})
		if _, _, err := a.Enqueue([]int32{3}).Wait(context.Background()); !errors.Is(err, ErrClosed) {
			t.Fatalf("enqueue after Close: err = %v, want ErrClosed", err)
		}
	})
}

// Many goroutines through one aggregator, over a real loopback connection
// (the constructor the benchmark's probe uses), under the race detector:
// every ticket resolves to its own rows.
func TestConcurrentHammer(t *testing.T) {
	tc := tiers[0]
	srv := rpc.NewServer()
	srv.Handle(rpc.MethodGetNeighborInfos, func(p []byte) ([]byte, error) {
		ids, err := wire.DecodeIDList(p)
		if err != nil {
			return nil, err
		}
		return tc.respond(ids), nil
	})
	addr, err := srv.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	c, err := rpc.Dial(addr, rpc.LatencyModel{})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); srv.Close() })
	if New(nil, Options{}) != nil {
		t.Fatal("New over a nil client must return the disabled (nil) aggregator")
	}
	a := New(c, Options{Window: 100 * time.Microsecond, ZeroCopy: true})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ids := []int32{int32(w*1000 + i), int32(w*1000 + i + 500)}
				tk := a.Enqueue(ids)
				b, off, err := tk.Wait(context.Background())
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				tc.check(t, b, off, ids)
				tk.Release()
			}
		}(w)
	}
	wg.Wait()
	if st := a.Stats(); st.Tickets != 16*50 || st.Rows != 16*50*2 {
		t.Fatalf("stats = %+v, want %d tickets, %d rows", st, 16*50, 16*50*2)
	}
}
