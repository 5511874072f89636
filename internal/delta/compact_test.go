package delta

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pprengine/internal/graph"
	"pprengine/internal/partition"
	"pprengine/internal/shard"
	"pprengine/internal/wire"
)

// rebuildBaseLocked is the compactor this package used to run under the write
// lock, kept as the oracle for the plan/build/publish compactor: it
// materializes shard sh's exact as-of-B CSR row by row through rowAtLocked —
// base rows with mutated rows spliced in and degree columns re-patched,
// appended vertices (created at or below B) promoted to real core rows, and
// the halo row cache rebuilt the same way.
func (s *Store) rebuildBaseLocked(sh int32, base *shard.Shard, b uint64) *shard.Shard {
	n0 := base.NumCore()
	// Appended locals form a dense suffix in creation-epoch order; take the
	// prefix created at or below B.
	appended := []graph.NodeID{}
	for l := int32(n0); ; l++ {
		k := Key{sh, l}
		g, ok := s.newV[k]
		if !ok {
			break
		}
		chain := s.rows[k]
		if len(chain) == 0 || chain[0].epoch > b {
			break
		}
		appended = append(appended, g)
	}
	n := n0 + len(appended)

	ns := &shard.Shard{
		ShardID:    sh,
		NumShards:  base.NumShards,
		CoreGlobal: append(append(make([]graph.NodeID, 0, n), base.CoreGlobal...), appended...),
		Indptr:     make([]int64, 1, n+1),
		CoreWDeg:   make([]float32, 0, n),
	}
	for l := int32(0); int(l) < n; l++ {
		vp, ok := s.rowAtLocked(Key{sh, l}, b)
		if !ok {
			// Unreachable for a based shard; keep the base row raw.
			vp = base.VertexProp(l)
		}
		ns.NbrLocal = append(ns.NbrLocal, vp.Locals...)
		ns.NbrShard = append(ns.NbrShard, vp.Shards...)
		ns.NbrWeight = append(ns.NbrWeight, vp.Weights...)
		ns.NbrWDeg = append(ns.NbrWDeg, vp.WDegs...)
		ns.CoreWDeg = append(ns.CoreWDeg, vp.WDeg)
		ns.Indptr = append(ns.Indptr, int64(len(ns.NbrLocal)))
	}

	if base.HasHaloRows() {
		ns.HaloKeys = append([]uint64(nil), base.HaloKeys...)
		ns.HaloIndptr = make([]int64, 1, len(ns.HaloKeys)+1)
		ns.HaloWDeg = make([]float32, 0, len(ns.HaloKeys))
		for _, hk := range ns.HaloKeys {
			hsh, hl := int32(hk>>32), int32(uint32(hk))
			vp, ok := s.rowAtLocked(Key{hsh, hl}, b)
			if !ok {
				vp, _ = base.HaloRow(hsh, hl)
			}
			ns.HaloNbrLocal = append(ns.HaloNbrLocal, vp.Locals...)
			ns.HaloNbrShard = append(ns.HaloNbrShard, vp.Shards...)
			ns.HaloNbrWeight = append(ns.HaloNbrWeight, vp.Weights...)
			ns.HaloNbrWDeg = append(ns.HaloNbrWDeg, vp.WDegs...)
			ns.HaloWDeg = append(ns.HaloWDeg, vp.WDeg)
			ns.HaloIndptr = append(ns.HaloIndptr, int64(len(ns.HaloNbrLocal)))
		}
		// Ignoring the error: key/indptr lengths are consistent by
		// construction above.
		_ = ns.RebuildHaloIndex()
	}
	return ns
}

func sameSlice[T comparable](name string, got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
	return nil
}

// sameShard compares every array of two shards element for element.
func sameShard(got, want *shard.Shard) error {
	if got.ShardID != want.ShardID || got.NumShards != want.NumShards {
		return fmt.Errorf("header (%d of %d), want (%d of %d)", got.ShardID, got.NumShards, want.ShardID, want.NumShards)
	}
	if got.HasHaloRows() != want.HasHaloRows() {
		return fmt.Errorf("HasHaloRows %v, want %v", got.HasHaloRows(), want.HasHaloRows())
	}
	for _, err := range []error{
		sameSlice("CoreGlobal", got.CoreGlobal, want.CoreGlobal),
		sameSlice("Indptr", got.Indptr, want.Indptr),
		sameSlice("NbrLocal", got.NbrLocal, want.NbrLocal),
		sameSlice("NbrShard", got.NbrShard, want.NbrShard),
		sameSlice("NbrWeight", got.NbrWeight, want.NbrWeight),
		sameSlice("NbrWDeg", got.NbrWDeg, want.NbrWDeg),
		sameSlice("CoreWDeg", got.CoreWDeg, want.CoreWDeg),
		sameSlice("HaloKeys", got.HaloKeys, want.HaloKeys),
		sameSlice("HaloIndptr", got.HaloIndptr, want.HaloIndptr),
		sameSlice("HaloNbrLocal", got.HaloNbrLocal, want.HaloNbrLocal),
		sameSlice("HaloNbrShard", got.HaloNbrShard, want.HaloNbrShard),
		sameSlice("HaloNbrWeight", got.HaloNbrWeight, want.HaloNbrWeight),
		sameSlice("HaloNbrWDeg", got.HaloNbrWDeg, want.HaloNbrWDeg),
		sameSlice("HaloWDeg", got.HaloWDeg, want.HaloWDeg),
	} {
		if err != nil {
			return err
		}
	}
	for _, hk := range want.HaloKeys {
		if _, ok := got.HaloRow(int32(hk>>32), int32(uint32(hk))); !ok {
			return fmt.Errorf("halo key %#x not found through the shared index", hk)
		}
	}
	return got.Validate()
}

// history drives a seeded random mutation stream through a coordinator. It
// mirrors the edge set so every operation it emits is valid.
type history struct {
	rng   *rand.Rand
	coord *Coordinator
	n     int // vertices so far
	edges map[[2]graph.NodeID]bool
	list  [][2]graph.NodeID // edges in insertion order, deleted ones included (checked against edges)
}

func newHistory(seed int64, coord *Coordinator, n int, edges []graph.Edge) *history {
	h := &history{rng: rand.New(rand.NewSource(seed)), coord: coord, n: n, edges: map[[2]graph.NodeID]bool{}}
	for _, e := range edges {
		h.note(e.Src, e.Dst)
	}
	return h
}

func (h *history) note(src, dst graph.NodeID) {
	h.edges[[2]graph.NodeID{src, dst}] = true
	h.list = append(h.list, [2]graph.NodeID{src, dst})
}

// weight draws a dyadic rational, so weighted-degree sums are exact whatever
// the order they were accumulated in.
func (h *history) weight() float32 { return float32(1+h.rng.Intn(8)) / 4 }

func (h *history) addEdge(batch []Mutation) []Mutation {
	for try := 0; try < 20; try++ {
		src, dst := graph.NodeID(h.rng.Intn(h.n)), graph.NodeID(h.rng.Intn(h.n))
		if src == dst || h.edges[[2]graph.NodeID{src, dst}] {
			continue
		}
		h.note(src, dst)
		return append(batch, Mutation{Op: OpAddEdge, Src: src, Dst: dst, Weight: h.weight()})
	}
	return batch
}

func (h *history) delEdge(batch []Mutation) []Mutation {
	for try := 0; try < 20; try++ {
		e := h.list[h.rng.Intn(len(h.list))]
		if !h.edges[e] {
			continue
		}
		delete(h.edges, e)
		return append(batch, Mutation{Op: OpDelEdge, Src: e[0], Dst: e[1]})
	}
	return batch
}

// batch is apply for the test's own goroutine.
func (h *history) batch(t *testing.T) uint64 {
	t.Helper()
	e, err := h.apply()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// apply sends one random batch: inserts, deletes (some of an edge the same
// batch inserted), and now and then a new vertex with an edge each way.
func (h *history) apply() (uint64, error) {
	var b []Mutation
	for ops := 1 + h.rng.Intn(6); ops > 0; ops-- {
		switch r := h.rng.Intn(20); {
		case r < 11:
			b = h.addEdge(b)
		case r < 16:
			b = h.delEdge(b)
		case r < 18:
			if b = h.addEdge(b); len(b) > 0 && b[len(b)-1].Op == OpAddEdge {
				m := b[len(b)-1]
				delete(h.edges, [2]graph.NodeID{m.Src, m.Dst})
				b = append(b, Mutation{Op: OpDelEdge, Src: m.Src, Dst: m.Dst})
			}
		default:
			v := graph.NodeID(h.n)
			h.n++
			out, in := graph.NodeID(h.rng.Intn(int(v))), graph.NodeID(h.rng.Intn(int(v)))
			b = append(b,
				Mutation{Op: OpAddVertex, Src: v},
				Mutation{Op: OpAddEdge, Src: v, Dst: out, Weight: h.weight()},
				Mutation{Op: OpAddEdge, Src: in, Dst: v, Weight: h.weight()})
			h.note(v, out)
			h.note(in, v)
		}
	}
	if len(b) == 0 {
		b = h.addEdge(b)
	}
	e, err := h.coord.Apply(context.Background(), b)
	if err != nil {
		return 0, fmt.Errorf("apply %+v: %w", b, err)
	}
	return e, nil
}

// randomGraph is a ring with chords plus random extra edges, sharded k ways.
func randomGraph(t *testing.T, seed int64, n, k int, haloRows bool) ([]graph.Edge, []*shard.Shard, *shard.Locator) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	seen := map[[2]int32]bool{}
	var edges []graph.Edge
	add := func(src, dst int32, w float32) {
		if src == dst || seen[[2]int32{src, dst}] {
			return
		}
		seen[[2]int32{src, dst}] = true
		edges = append(edges, graph.Edge{Src: src, Dst: dst, Weight: w})
	}
	for v := 0; v < n; v++ {
		add(int32(v), int32((v+1)%n), 1)
		add(int32(v), int32((v+5)%n), 0.5)
	}
	for i := 0; i < 2*n; i++ {
		add(int32(rng.Intn(n)), int32(rng.Intn(n)), float32(1+rng.Intn(8))/4)
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	shards, loc, err := shard.BuildWithOptions(g, partition.HashPartition(n, k), k, shard.BuildOptions{CacheHaloRows: haloRows})
	if err != nil {
		t.Fatal(err)
	}
	return edges, shards, loc
}

// mirrorTo applies every batch the coordinator broadcasts to st.
func mirrorTo(st *Store) Applier {
	return func(_ context.Context, payload []byte) error {
		mb, err := wire.DecodeMutationBatch(payload)
		if err != nil {
			return err
		}
		return st.Apply(mb)
	}
}

// copyVP detaches a view from the arrays it aliases.
func copyVP(vp shard.VertexProp) shard.VertexProp {
	vp.Locals = append([]int32(nil), vp.Locals...)
	vp.Shards = append([]int32(nil), vp.Shards...)
	vp.Weights = append([]float32(nil), vp.Weights...)
	vp.WDegs = append([]float32(nil), vp.WDegs...)
	return vp
}

// readAll reads every vertex of every shard through st at epoch e, one row
// per call. A row the store cannot resolve is recorded as absent.
func readAll(st *Store, e uint64) map[Key]shard.VertexProp {
	out := map[Key]shard.VertexProp{}
	loc := st.Locator()
	for sh := int32(0); int(sh) < loc.NumShards(); sh++ {
		for l := int32(0); l < loc.CoreCount(sh); l++ {
			if vps, err := st.VertexProps(sh, []int32{l}, e); err == nil {
				out[Key{sh, l}] = copyVP(vps[0])
			}
		}
	}
	return out
}

func sameReads(got, want map[Key]shard.VertexProp) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d readable rows, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("row %v no longer readable", k)
		}
		if err := sameVP(g, w); err != nil {
			return fmt.Errorf("row %v: %v", k, err)
		}
	}
	return nil
}

// TestCompactIncrementalMatchesReference: over seeded random histories the
// plan/build/publish compactor produces, array for array, the shards the
// row-by-row reference produces from the same state, and reads at every
// still-pinned epoch are the same before and after the pass.
func TestCompactIncrementalMatchesReference(t *testing.T) {
	const n, k = 48, 3
	for _, cfg := range []struct {
		name     string
		haloRows bool
		based    []int32 // shards the mirrored store bases
	}{
		{"all-based", false, []int32{0, 1, 2}},
		{"all-based-halo", true, []int32{0, 1, 2}},
		{"partly-based-halo", true, []int32{0, 1}},
		{"one-based", false, []int32{2}},
	} {
		for seed := int64(1); seed <= 6; seed++ {
			cfg, seed := cfg, seed
			t.Run(fmt.Sprintf("%s/seed%d", cfg.name, seed), func(t *testing.T) {
				edges, shards, loc := randomGraph(t, seed, n, k, cfg.haloRows)
				// The coordinator's store bases everything (it resolves every
				// row itself); the mirror bases cfg.based and holds foreign
				// rows only as halo copies and folded versions.
				full := NewStore(loc, allBases(shards))
				bases := map[int32]*shard.Shard{}
				for _, sh := range cfg.based {
					bases[sh] = shards[sh]
				}
				mirror := NewStore(loc, bases)
				h := newHistory(seed, NewCoordinator(full, []Applier{mirrorTo(mirror)}, nil), n, edges)
				stores := []*Store{full, mirror}

				var pins []uint64 // held on both stores
				for round := 0; round < 8; round++ {
					for batches := 1 + h.rng.Intn(4); batches > 0; batches-- {
						h.batch(t)
						if h.rng.Intn(5) < 2 {
							e := full.PinCurrent()
							if m := mirror.PinCurrent(); m != e {
								t.Fatalf("mirror pinned %d, coordinator %d", m, e)
							}
							pins = append(pins, e)
						}
						if len(pins) > 0 && h.rng.Intn(3) == 0 {
							i := h.rng.Intn(len(pins))
							full.Unpin(pins[i])
							mirror.Unpin(pins[i])
							pins = append(pins[:i], pins[i+1:]...)
						}
					}
					boundary := full.Epoch()
					for _, e := range pins {
						if e < boundary {
							boundary = e
						}
					}
					for si, st := range stores {
						want := map[int32]*shard.Shard{}
						st.mu.Lock()
						for sh, base := range st.bases {
							want[sh] = st.rebuildBaseLocked(sh, base, boundary)
						}
						st.mu.Unlock()
						before := map[uint64]map[Key]shard.VertexProp{}
						for _, e := range append([]uint64{st.Epoch()}, pins...) {
							before[e] = readAll(st, e)
						}

						cs := st.Compact()
						if cs.Boundary != boundary {
							t.Fatalf("round %d store %d: boundary %d, want %d", round, si, cs.Boundary, boundary)
						}
						for sh, w := range want {
							if err := sameShard(st.Base(sh), w); err != nil {
								t.Fatalf("round %d store %d shard %d: %v", round, si, sh, err)
							}
						}
						for e, w := range before {
							if err := sameReads(readAll(st, e), w); err != nil {
								t.Fatalf("round %d store %d epoch %d: %v", round, si, e, err)
							}
						}
					}
				}
			})
		}
	}
}

// TestCompactDoesNotBlockReadersOrWriters parks a pass between its build and
// its publish and, while it is parked, completes a read, a pin and an Apply.
// A pass that held the lock across its build would deadlock here.
func TestCompactDoesNotBlockReadersOrWriters(t *testing.T) {
	edges, shards, loc := randomGraph(t, 1, 48, 3, true)
	store := NewStore(loc, allBases(shards))
	h := newHistory(1, NewCoordinator(store, nil, nil), 48, edges)
	for i := 0; i < 3; i++ {
		h.batch(t)
	}
	pinned := store.PinCurrent()
	defer store.Unpin(pinned)
	h.batch(t)
	atPin := readAll(store, pinned)

	parked, release := make(chan struct{}), make(chan struct{})
	store.afterBuild = func() {
		close(parked)
		<-release
	}
	compacted := make(chan CompactStats, 1)
	go func() { compacted <- store.Compact() }()
	<-parked

	// The pass has built its shards and holds no lock: all of this finishes.
	var applied uint64
	var atApplied map[Key]shard.VertexProp
	midBuild := make(chan error, 1)
	go func() {
		if err := sameReads(readAll(store, pinned), atPin); err != nil {
			midBuild <- fmt.Errorf("pinned read during the build: %v", err)
			return
		}
		e := store.PinCurrent()
		store.Unpin(e)
		var err error
		if applied, err = h.apply(); err != nil {
			midBuild <- err
			return
		}
		if applied != e+1 {
			midBuild <- fmt.Errorf("applied epoch %d, want %d", applied, e+1)
			return
		}
		atApplied = readAll(store, applied)
		midBuild <- nil
	}()
	select {
	case err := <-midBuild:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a read, a pin and an Apply did not finish while a compaction was parked mid-build")
	}
	if got := store.Stats().Compactions; got != 0 {
		t.Fatalf("%d compactions published while the pass is parked", got)
	}

	close(release)
	cs := <-compacted
	if cs.Boundary != pinned {
		t.Fatalf("boundary %d, want the pin %d", cs.Boundary, pinned)
	}
	if cs.Build <= 0 {
		t.Fatalf("build time %v not reported", cs.Build)
	}
	if err := sameReads(readAll(store, applied), atApplied); err != nil {
		t.Fatalf("epoch applied during the build, after publish: %v", err)
	}
	if err := sameReads(readAll(store, pinned), atPin); err != nil {
		t.Fatalf("pinned epoch after publish: %v", err)
	}
}

// TestCompactHammer runs pinned readers, a writer and back-to-back Compact
// calls (two callers, so passes also coalesce) against one store, and checks
// every pinned read against a twin store that applies the same batches and
// never compacts.
func TestCompactHammer(t *testing.T) {
	edges, shards, loc := randomGraph(t, 7, 48, 3, true)
	store := NewStore(loc, allBases(shards))
	twin := NewStore(loc, allBases(shards))
	h := newHistory(7, NewCoordinator(store, []Applier{mirrorTo(twin)}, nil), 48, edges)

	const batches = 60
	h.batch(t) // epoch 0 cannot be pinned; start the readers at epoch 1
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := store.PinCurrent()
				// The coordinator's store is one Apply ahead of its mirror.
				if err := twin.WaitEpoch(context.Background(), e); err != nil {
					t.Error(err)
					return
				}
				if err := sameReads(readAll(store, e), readAll(twin, e)); err != nil {
					t.Errorf("epoch %d: compacted store vs never-compacted twin: %v", e, err)
				}
				store.Unpin(e)
			}
		}()
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					store.Compact()
				}
			}
		}()
	}
	for i := 1; i < batches; i++ {
		h.batch(t)
	}
	close(stop)
	wg.Wait()

	store.Compact()
	if store.RetiredFloor() != batches {
		t.Fatalf("retired floor %d after the last pass, want %d", store.RetiredFloor(), batches)
	}
	if err := sameReads(readAll(store, batches), readAll(twin, batches)); err != nil {
		t.Fatalf("final state: %v", err)
	}
}
