package pmap

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pprengine/internal/mem"
)

func TestFlatBasics(t *testing.T) {
	f := NewFlat(16)
	k1 := Key{Local: 3, Shard: 1}
	k2 := Key{Local: 3, Shard: 2}
	if _, ok := f.Get(k1); ok {
		t.Fatal("empty map reports key present")
	}
	f.Set(k1, 1.5)
	if v, ok := f.Get(k1); !ok || v != 1.5 {
		t.Fatalf("Get(k1) = %v,%v", v, ok)
	}
	if _, ok := f.Get(k2); ok {
		t.Fatal("k2 should be absent")
	}
	if nv := f.AddP(k1.Packed(), 0.5); nv != 2.0 {
		t.Fatalf("AddP -> %v, want 2.0", nv)
	}
	if nv := f.AddP(k2.Packed(), 0.25); nv != 0.25 {
		t.Fatalf("AddP on missing key -> %v, want 0.25", nv)
	}
	if old := f.SwapP(k1.Packed(), 7); old != 2.0 {
		t.Fatalf("SwapP returned %v, want 2.0", old)
	}
	if v, _ := f.Get(k1); v != 7 {
		t.Fatalf("after SwapP Get = %v", v)
	}
	if f.Len() != 2 {
		t.Fatalf("Len = %d, want 2", f.Len())
	}
	sum := 0.0
	f.Range(func(_ Key, v float64) bool {
		sum += v
		return true
	})
	if sum != 7.25 {
		t.Fatalf("Range sum = %v, want 7.25", sum)
	}
	f.Clear()
	if f.Len() != 0 {
		t.Fatalf("after Clear Len = %d", f.Len())
	}
	if _, ok := f.Get(k1); ok {
		t.Fatal("key survived Clear")
	}
}

func TestFlatZeroAndNegativeKeys(t *testing.T) {
	// Key{0,0} packs to 0, which collides with the empty-slot marker unless
	// keys are biased; negative components must not collide with positive.
	f := NewFlat(4)
	f.Set(Key{Local: 0, Shard: 0}, 7)
	f.Set(Key{Local: -1, Shard: 0}, 1)
	f.Set(Key{Local: 1, Shard: 0}, 2)
	f.Set(Key{Local: 0, Shard: -1}, 3)
	if f.Len() != 4 {
		t.Fatalf("Len = %d, want 4", f.Len())
	}
	if v, ok := f.Get(Key{Local: 0, Shard: 0}); !ok || v != 7 {
		t.Fatalf("zero key lost: %v %v", v, ok)
	}
	if v, _ := f.Get(Key{Local: -1, Shard: 0}); v != 1 {
		t.Fatalf("negative local: got %v", v)
	}
}

func TestFlatGrowth(t *testing.T) {
	f := NewFlat(1) // minimal stripes: force rehashing
	const n = 10000
	for i := 0; i < n; i++ {
		f.Set(Key{Local: int32(i), Shard: int32(i % 7)}, float64(i))
	}
	if f.Len() != n {
		t.Fatalf("Len = %d, want %d", f.Len(), n)
	}
	if f.Grows() == 0 {
		t.Fatal("expected stripe rehashes at this load")
	}
	for i := 0; i < n; i++ {
		v, ok := f.Get(Key{Local: int32(i), Shard: int32(i % 7)})
		if !ok || v != float64(i) {
			t.Fatalf("key %d lost after growth: %v %v", i, v, ok)
		}
	}
}

// Property: Flat agrees with a reference map under random AddP/SwapP/Get.
func TestQuickFlatMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fl := NewFlat(8)
		ref := map[Key]float64{}
		for i := 0; i < 400; i++ {
			k := Key{Local: int32(rng.Intn(25)), Shard: int32(rng.Intn(3))}
			switch rng.Intn(3) {
			case 0:
				v := rng.Float64()
				ref[k] = v
				fl.SwapP(k.Packed(), v)
			case 1:
				d := rng.Float64()
				ref[k] += d
				fl.AddP(k.Packed(), d)
			case 2:
				rv, rok := ref[k]
				v, ok := fl.Get(k)
				if ok != rok || math.Abs(v-rv) > 1e-9 {
					return false
				}
			}
		}
		return fl.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPackedRoundTrip(t *testing.T) {
	f := func(local, shard int32) bool {
		k := Key{Local: local, Shard: shard}
		return unpack(k.Packed()) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlatSetBasics(t *testing.T) {
	s := NewFlatSet(16)
	k := Key{Local: 5, Shard: 2}
	if !s.InsertP(k.Packed()) {
		t.Fatal("first InsertP should report new")
	}
	if s.InsertP(k.Packed()) {
		t.Fatal("second InsertP should report existing")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	got := s.Drain(nil)
	if len(got) != 1 || got[0] != k {
		t.Fatalf("Drain = %v", got)
	}
	if s.Len() != 0 {
		t.Fatal("set not cleared by Drain")
	}
	if !s.InsertP(k.Packed()) {
		t.Fatal("reinsert after Drain should report new")
	}
}

// Drain is stripe-major and preserves insertion order within a stripe, and
// both clear strategies (sparse slot reset and dense memclr) leave the set
// reusable.
func TestFlatSetDrainOrderAndReuse(t *testing.T) {
	for _, n := range []int{3, 600} { // sparse stripes, then dense ones
		s := NewFlatSet(64)
		perStripe := make([][]Key, NumSubmaps)
		for i := 0; i < n; i++ {
			k := Key{Local: int32(i), Shard: 0}
			s.InsertP(k.Packed())
			perStripe[SubmapIndex(k)] = append(perStripe[SubmapIndex(k)], k)
		}
		var want []Key
		for _, ks := range perStripe {
			want = append(want, ks...)
		}
		got := s.Drain(nil)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d drain order:\n got %v\nwant %v", n, got, want)
		}
		if s.Len() != 0 {
			t.Fatalf("n=%d keys left after drain", n)
		}
		for _, k := range want { // the cleared tables must accept everything again
			if !s.InsertP(k.Packed()) {
				t.Fatalf("n=%d stale key %v after drain", n, k)
			}
		}
	}
}

func TestFlatSetGrowth(t *testing.T) {
	s := NewFlatSet(1)
	const n = 5000
	for i := 0; i < n; i++ {
		if !s.InsertP((Key{Local: int32(i), Shard: int32(i % 3)}).Packed()) {
			t.Fatalf("key %d reported duplicate", i)
		}
	}
	if s.Grows() == 0 {
		t.Fatal("expected stripe rehashes at this load")
	}
	seen := make(map[Key]bool, n)
	for _, k := range s.Drain(nil) {
		if seen[k] {
			t.Fatalf("duplicate %v in drain", k)
		}
		seen[k] = true
	}
	if len(seen) != n {
		t.Fatalf("drained %d keys, want %d", len(seen), n)
	}
}

// Clear is what lets one table serve query after query: a big fill followed
// by a small one must leave nothing of the first behind, whichever of the two
// reset strategies (used-list walk, memclr) each stripe took, and must keep
// the grown capacity.
func TestFlatClearLeavesNothingBehind(t *testing.T) {
	f := NewFlat(64)
	for i := int32(0); i < 5000; i++ {
		f.AddP((Key{Local: i, Shard: i % 3}).Packed(), float64(i)+0.5)
	}
	grown := f.Cap()
	for round, n := range []int32{5000, 40, 0, 3000} {
		f.Clear()
		if f.Len() != 0 {
			t.Fatalf("round %d: Len = %d after Clear", round, f.Len())
		}
		f.Range(func(k Key, v float64) bool {
			t.Fatalf("round %d: stale entry %v=%v after Clear", round, k, v)
			return false
		})
		for i := int32(0); i < 5000; i += 7 {
			if v, ok := f.Get(Key{Local: i, Shard: i % 3}); ok || v != 0 {
				t.Fatalf("round %d: stale key %d readable after Clear: %v", round, i, v)
			}
		}
		for i := int32(0); i < n; i++ {
			if nv := f.AddP((Key{Local: i * 11, Shard: 1}).Packed(), 2); nv != 2 {
				t.Fatalf("round %d: AddP on a cleared table returned %v, want 2", round, nv)
			}
		}
		if f.Len() != int(n) {
			t.Fatalf("round %d: Len = %d, want %d", round, f.Len(), n)
		}
	}
	// Capacity survives: refilling with the first key set rehashes nothing.
	f.Clear()
	if f.Cap() < grown {
		t.Fatalf("Cap shrank %d -> %d across Clear", grown, f.Cap())
	}
	grows := f.Grows()
	for i := int32(0); i < 5000; i++ {
		f.AddP((Key{Local: i, Shard: i % 3}).Packed(), 1)
	}
	if f.Grows() != grows {
		t.Fatalf("refilling a cleared table grew it %d times", f.Grows()-grows)
	}
}

// Range order depends on insertion order alone, not on how large the table
// happened to be — a recycled (grown) table iterates like a fresh one.
func TestFlatRangeOrderIgnoresCapacity(t *testing.T) {
	small, big := NewFlat(16), NewFlat(1<<16)
	for i := int32(0); i < 3000; i++ {
		p := (Key{Local: i * 7, Shard: i % 4}).Packed()
		small.AddP(p, float64(i))
		big.AddP(p, float64(i))
	}
	var a, b []Key
	small.Range(func(k Key, _ float64) bool { a = append(a, k); return true })
	big.Range(func(k Key, _ float64) bool { b = append(b, k); return true })
	if len(a) != 3000 || len(a) != len(b) {
		t.Fatalf("ranged %d and %d keys, want 3000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("position %d: %v in the small table, %v in the big one", i, a[i], b[i])
		}
	}
}

func TestFlatPoison(t *testing.T) {
	f := NewFlat(64)
	for i := int32(0); i < 100; i++ {
		f.AddP((Key{Local: i}).Packed(), 1)
	}
	f.Poison()
	n := 0
	f.Range(func(_ Key, v float64) bool {
		if v != PoisonValue {
			t.Fatalf("value %v survived Poison", v)
		}
		n++
		return true
	})
	if n != 100 {
		t.Fatalf("ranged %d poisoned entries, want 100", n)
	}
}

// The inner-loop table ops must not allocate once capacity fits the workload
// — that is the whole point of replacing the Go maps on the hot path.
func TestFlatSteadyStateAllocBudget(t *testing.T) {
	if mem.RaceEnabled {
		t.Skip("race instrumentation skews alloc counts")
	}
	f := NewFlat(4096)
	s := NewFlatSet(4096)
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = (Key{Local: int32(i), Shard: int32(i % 4)}).Packed()
	}
	for _, p := range keys { // warm to final size
		f.AddP(p, 1)
		s.InsertP(p)
	}
	var drained []Key
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range keys {
			f.AddP(p, 0.5)
			f.SwapP(p, 2)
			s.InsertP(p)
		}
		drained = s.Drain(drained[:0])
		for _, k := range drained {
			s.InsertP(k.Packed())
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state flat ops allocate %.1f objects per round, budget 0", allocs)
	}
}

// BenchmarkFlatAddP times the residual update — the engine's innermost
// operation — on tables of resident size 16 B × entries / load: the smallest
// stays in L1/L2, the largest does not, which is where the single-slot layout
// (one cache line per update, not one for the key and one for the value) pays.
func BenchmarkFlatAddP(b *testing.B) {
	for _, entries := range []int{1 << 12, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			f := NewFlat(entries)
			rng := rand.New(rand.NewSource(1))
			keys := make([]uint64, entries)
			for i := range keys {
				keys[i] = (Key{Local: rng.Int31(), Shard: int32(i & 3)}).Packed()
				f.AddP(keys[i], 1)
			}
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.AddP(keys[i&(entries-1)], 0.5)
			}
		})
	}
}
