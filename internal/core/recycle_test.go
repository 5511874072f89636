package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"

	"pprengine/internal/mem"
	"pprengine/internal/metrics"
	"pprengine/internal/pmap"
)

// drainFreeList empties the process-wide free list, so the next NewSSPPR
// builds a fresh state, and restores nothing: tests that need recycling
// release their own states.
func drainFreeList() {
	freeStates.mu.Lock()
	freeStates.idle = nil
	freeStates.mu.Unlock()
}

func idleStates() int {
	freeStates.mu.Lock()
	defer freeStates.mu.Unlock()
	return len(freeStates.idle)
}

func detConfig() Config {
	cfg := DefaultConfig()
	cfg.Eps = 1e-6
	cfg.DeterministicPop = true
	return cfg
}

// scoresBits returns a finished query's scores keyed by node, as raw bits.
func scoresBits(m *SSPPR) map[pmap.Key]uint64 {
	out := make(map[pmap.Key]uint64, m.ScoreCount())
	m.RangeScores(func(k pmap.Key, v float64) bool {
		out[k] = math.Float64bits(v)
		return true
	})
	return out
}

func sameBits(t *testing.T, what string, want, got map[pmap.Key]uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d scored nodes, want %d", what, len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Fatalf("%s: node %v = %v, want %v", what, k, math.Float64frombits(g), math.Float64frombits(w))
		}
	}
}

// (a) Sources A, B, A through ONE recycled state score bitwise like three
// fresh states. (internal/baseline's tests hold the same sequence against the
// Striped engine.)
func TestRecycledStateScoresLikeFresh(t *testing.T) {
	g := testGraph(41, 400, 3200)
	storages, _, loc, cleanup := testDeployment(t, g, 2)
	defer cleanup()
	cfg := detConfig()
	sources := []int32{3, 117, 3}

	var fresh []map[pmap.Key]uint64
	for _, src := range sources {
		drainFreeList()
		sh, lc := loc.Locate(src)
		m, _, err := RunSSPPR(context.Background(), storages[sh], lc, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, scoresBits(m)) // never released: plain garbage
	}
	sameBits(t, "fresh A vs fresh A", fresh[0], fresh[2])

	drainFreeList()
	var state *engineState
	for i, src := range sources {
		sh, lc := loc.Locate(src)
		m, _, err := RunSSPPR(context.Background(), storages[sh], lc, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			state = m.st
		} else if m.st != state {
			t.Fatalf("query %d did not draw the state query 0 released", i)
		}
		sameBits(t, "recycled vs fresh", fresh[i], scoresBits(m))
		m.Release()
		if idleStates() != 1 {
			t.Fatalf("free list holds %d states after Release, want 1", idleStates())
		}
	}
}

// (b) A hub query followed by a leaf query: the recycled state starts empty —
// no stale key, residual or activated vertex — and the leaf query answers as
// on a fresh state.
func TestRecycledStateStartsEmpty(t *testing.T) {
	g := testGraph(42, 4000, 12000)
	storages, _, _, cleanup := testDeployment(t, g, 1)
	defer cleanup()
	hub, leaf := int32(0), int32(0)
	for v := int32(0); v < int32(g.NumNodes); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
		if d := g.Degree(v); d > 0 && (g.Degree(leaf) == 0 || d < g.Degree(leaf)) {
			leaf = v
		}
	}
	cfg := detConfig()
	cfg.Eps = 1e-4

	drainFreeList()
	want, _, err := RunSSPPR(context.Background(), storages[0], leaf, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	drainFreeList()
	m, _, err := RunSSPPR(context.Background(), storages[0], hub, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hubState, hubScores := m.st, m.ScoreCount()
	if hubScores < 3*want.ScoreCount() {
		t.Fatalf("hub touched %d nodes, leaf %d: not a hub", hubScores, want.ScoreCount())
	}
	m.Release()

	empty := newEmptySSPPR(cfg)
	if empty.st != hubState {
		t.Fatal("the hub query's state was not recycled")
	}
	if n, rm := empty.ScoreCount(), empty.ResidualMass(); n != 0 || rm != 0 {
		t.Fatalf("recycled state holds %d scores and residual mass %v", n, rm)
	}
	empty.RangeResiduals(func(k pmap.Key, v float64) bool {
		t.Fatalf("recycled state holds residual entry %v=%v", k, v)
		return false
	})
	if locals, _ := empty.Pop(); len(locals) != 0 {
		t.Fatalf("recycled state pops %d stale activated vertices", len(locals))
	}
	empty.Release()

	got, _, err := RunSSPPR(context.Background(), storages[0], leaf, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.st != hubState {
		t.Fatal("the leaf query did not run on the hub query's state")
	}
	sameBits(t, "leaf after hub vs fresh leaf", scoresBits(want), scoresBits(got))
	if gr, wr := got.ResidualMass(), want.ResidualMass(); math.Float64bits(gr) != math.Float64bits(wr) {
		t.Fatalf("residual mass %v after a hub query, %v fresh", gr, wr)
	}
}

// (c) 8 goroutines × 200 queries share the free list; every answer equals the
// single-goroutine one. Run under -race.
func TestConcurrentQueriesShareFreeList(t *testing.T) {
	g := testGraph(43, 300, 2400)
	storages, _, loc, cleanup := testDeployment(t, g, 2)
	defer cleanup()
	cfg := detConfig()

	const sources, goroutines, perGoroutine = 25, 8, 200
	want := make([]map[pmap.Key]uint64, sources)
	for src := range want {
		sh, lc := loc.Locate(int32(src))
		m, _, err := RunSSPPR(context.Background(), storages[sh], lc, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[src] = scoresBits(m)
		m.Release()
	}
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				src := (gi*7 + i) % sources
				sh, lc := loc.Locate(int32(src))
				m, _, err := RunSSPPR(context.Background(), storages[sh], lc, cfg, nil)
				if err != nil {
					t.Error(err)
					return
				}
				got := scoresBits(m)
				m.Release()
				if len(got) != len(want[src]) {
					t.Errorf("source %d: %d scored nodes, want %d", src, len(got), len(want[src]))
					return
				}
				for k, w := range want[src] {
					if got[k] != w {
						t.Errorf("source %d node %v: %v, want %v", src, k, math.Float64frombits(got[k]), math.Float64frombits(w))
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
}

// (d) In poison mode a released state is scribbled, not recycled: whoever
// still holds a piece of it reads values no query produces, and the SSPPR
// itself panics on any further use.
func TestPoisonedReleaseFailsLoudly(t *testing.T) {
	g := testGraph(44, 200, 1200)
	storages, _, _, cleanup := testDeployment(t, g, 1)
	defer cleanup()
	mem.SetPoison(true)
	defer mem.SetPoison(false)
	drainFreeList()

	m := NewSSPPR(5, 0, detConfig())
	locals, shards := m.Pop()
	fut := storages[0].GetNeighborInfos(context.Background(), 0, locals, m.cfg)
	batch, err := fut.WaitCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m.Push(batch, locals, shards)
	st := m.st
	if m.ScoreCount() != 1 || st.r.Len() < 2 {
		t.Fatalf("one push left %d scores and %d residuals", m.ScoreCount(), st.r.Len())
	}
	m.Release()

	if idleStates() != 0 {
		t.Fatal("a poisoned state went back on the free list")
	}
	if locals[0] == 5 || shards[0] == 0 {
		t.Fatalf("Pop's slices survived Release unscribbled: %v %v", locals, shards)
	}
	for name, tab := range map[string]*pmap.Flat{"p": st.p, "r": st.r} {
		tab.Range(func(k pmap.Key, v float64) bool {
			if v != pmap.PoisonValue {
				t.Fatalf("%s[%v] = %v survived Release", name, k, v)
			}
			return true
		})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TopK on a released SSPPR did not panic")
		}
	}()
	m.TopK(3)
}

// (e) Allocation budgets of the warm engine.
func TestWarmEngineAllocBudget(t *testing.T) {
	if mem.RaceEnabled {
		t.Skip("race instrumentation skews alloc counts")
	}
	g := testGraph(45, 500, 4000)
	storages, _, _, cleanup := testDeployment(t, g, 1) // one shard: every fetch is local
	defer cleanup()
	st := storages[0]
	cfg := DefaultConfig()
	ctx := context.Background()

	// A pop→push round on a warm state allocates nothing: run one query to
	// size the tables, then replay its first rounds on the recycled state.
	warm := func() *SSPPR {
		m, _, err := RunSSPPR(ctx, st, 7, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
		return NewSSPPR(7, 0, cfg)
	}
	m := warm()
	var batches []NeighborBatch
	var ids [][]int32
	for round := 0; round < 3; round++ {
		locals, shards := m.Pop()
		l := append([]int32(nil), locals...)
		b := LocalBatch(st.Local, l)
		m.Push(b, l, shards)
		batches, ids = append(batches, b), append(ids, l)
	}
	m.Release()
	shardCol := make([]int32, 1<<12)
	allocs := testing.AllocsPerRun(20, func() {
		m := SSPPR{cfg: cfg, st: acquireState()}
		m.st.r.Set(pmap.Key{Local: 7}, 1)
		m.st.act.InsertP(pmap.Key{Local: 7}.Packed())
		for round := range batches {
			if locals, _ := m.Pop(); len(locals) != len(ids[round]) {
				t.Fatalf("round %d popped %d vertices, recorded %d", round, len(locals), len(ids[round]))
			}
			m.Push(batches[round], ids[round], shardCol[:len(ids[round])])
		}
		m.Release()
	})
	if allocs != 0 {
		t.Errorf("warm pop→push rounds allocate %.1f objects, budget 0", allocs)
	}

	// A whole warm query on a local-only shard: the handle, the top-K slice,
	// and a few fixed-size objects per Pop round (local batch and future).
	// (bd is non-nil, as in the query-service handler: timing the phases
	// must not cost objects either.)
	var iters int
	var bd metrics.Breakdown
	allocs = testing.AllocsPerRun(20, func() {
		top, stats, err := RunSSPPRTopK(ctx, st, 7, 16, cfg, &bd)
		if err != nil || len(top) != 16 {
			t.Fatalf("top-K: %d nodes, err %v", len(top), err)
		}
		iters = stats.Iterations
	})
	if budget := float64(4 + 3*iters); allocs > budget {
		t.Errorf("warm local-only RunSSPPRTopK allocates %.1f objects over %d rounds, budget %.0f", allocs, iters, budget)
	}
	t.Logf("warm local-only RunSSPPRTopK: %.1f allocs over %d rounds", allocs, iters)
}

// (f) The free list keeps at most GOMAXPROCS idle states and never one whose
// tables outgrew maxPooledSlots.
func TestFreeListIsBounded(t *testing.T) {
	drainFreeList()
	defer drainFreeList()
	limit := runtime.GOMAXPROCS(0)
	var ms []*SSPPR
	for i := 0; i < limit+3; i++ {
		ms = append(ms, NewSSPPR(int32(i), 0, DefaultConfig()))
	}
	for _, m := range ms {
		m.Release()
		m.Release() // idempotent
	}
	if n := idleStates(); n != limit {
		t.Fatalf("free list holds %d idle states, want GOMAXPROCS = %d", n, limit)
	}

	drainFreeList()
	big := NewSSPPR(0, 0, DefaultConfig())
	for i := int32(0); big.st.r.Cap() <= maxPooledSlots; i++ {
		big.st.r.AddP(pmap.Key{Local: i, Shard: 1}.Packed(), 1)
	}
	big.Release()
	if n := idleStates(); n != 0 {
		t.Fatalf("a state with a %d-slot table was retained", maxPooledSlots*2)
	}
	var nilQuery *SSPPR
	nilQuery.Release() // nil-safe
}
