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

// bounded returns a table of capacityHint pages bound to shards shards of
// locals locals each.
func bounded(capacityHint, shards int, locals int32) *Flat {
	bounds := make([]int32, shards)
	for i := range bounds {
		bounds[i] = locals
	}
	f := NewFlat(capacityHint)
	f.Bound(bounds)
	return f
}

// slot is Slot for keys the test knows to be valid.
func slot(t testing.TB, f *Flat, k Key) int32 {
	t.Helper()
	s := f.Slot(k.Shard, k.Local)
	if s < 0 {
		t.Fatalf("Slot(%v) refused a valid key", k)
	}
	return s
}

func TestFlatBasics(t *testing.T) {
	f := bounded(1, 3, 64)
	k1 := Key{Local: 3, Shard: 1}
	k2 := Key{Local: 3, Shard: 2}
	if f.Find(k1.Shard, k1.Local) >= 0 {
		t.Fatal("empty table reports key present")
	}
	s1 := slot(t, f, k1)
	if f.R(s1) != 0 || f.P(s1) != 0 {
		t.Fatalf("fresh slot: r %v p %v", f.R(s1), f.P(s1))
	}
	if f.Find(k2.Shard, k2.Local) >= 0 {
		t.Fatal("k2 should be absent")
	}
	if nv := f.AddR(s1, 1.5); nv != 1.5 {
		t.Fatalf("AddR -> %v, want 1.5", nv)
	}
	if nv := f.AddR(slot(t, f, k1), 0.5); nv != 2.0 {
		t.Fatalf("AddR through a second Slot -> %v, want 2.0", nv)
	}
	if old := f.SwapR(s1, 7); old != 2.0 || f.R(s1) != 7 {
		t.Fatalf("SwapR returned %v (now %v), want 2.0 (7)", old, f.R(s1))
	}
	s2 := slot(t, f, k2)
	f.AddP(s2, 0.25)
	f.AddP(s2, 0.25)
	f.AddP(s1, 1)
	if f.Reserves() != 2 || f.P(s2) != 0.5 {
		t.Fatalf("Reserves = %d, P(k2) = %v; want 2, 0.5", f.Reserves(), f.P(s2))
	}
	if f.Find(k2.Shard, k2.Local) != s2 {
		t.Fatal("Find disagrees with Slot")
	}
	sum := 0.0
	f.RangeP(func(_ Key, v float64) bool {
		sum += v
		return true
	})
	if sum != 1.5 {
		t.Fatalf("RangeP sum = %v, want 1.5", sum)
	}
	f.Clear()
	if f.Reserves() != 0 || len(f.pages)-1 != 0 {
		t.Fatalf("after Clear: %d reserves, %d pages", f.Reserves(), len(f.pages)-1)
	}
	if f.Find(k1.Shard, k1.Local) >= 0 {
		t.Fatal("key survived Clear")
	}
}

// A table never bound holds no shard. Once bound, Key{0,0} is an ordinary
// slot, and a negative ID, a shard past the bounds or a local past its
// shard's bound is refused — without a page, a directory entry or an
// allocation sized by the bad value.
func TestFlatZeroAndNegativeKeys(t *testing.T) {
	f := NewFlat(4)
	if s := f.Slot(0, 0); s >= 0 {
		t.Fatalf("a table never bound gave Slot(0, 0) = %d, want refused", s)
	}
	f.Bound([]int32{100, 5})
	f.AddR(slot(t, f, Key{}), 7)
	for _, k := range []Key{{Local: -1}, {Shard: -1}, {Local: math.MinInt32, Shard: 1},
		{Local: 128}, {Local: 64, Shard: 1}, {Shard: 2}, {Local: math.MaxInt32, Shard: 1}, {Local: 1, Shard: math.MaxInt32}} {
		if s := f.Slot(k.Shard, k.Local); s >= 0 {
			t.Fatalf("Slot(%v) = %d, want refused", k, s)
		}
	}
	if len(f.pages)-1 != 1 || f.R(f.Find(0, 0)) != 7 {
		t.Fatalf("%d pages, zero key = %v", len(f.pages)-1, f.R(f.Find(0, 0)))
	}
	f.Clear()
	if allocs := testing.AllocsPerRun(10, func() { f.Slot(1, math.MaxInt32) }); allocs != 0 && !mem.RaceEnabled {
		t.Fatalf("refusing a forged local allocates %.0f objects", allocs)
	}
	if len(f.pages)-1 != 0 {
		t.Fatalf("refused keys claimed %d pages", len(f.pages)-1)
	}
	for _, k := range []Key{{Local: 99}, {Local: 4, Shard: 1}} {
		slot(t, f, k)
	}
	if len(f.dir[0]) != 2 || len(f.dir[1]) != 1 {
		t.Fatalf("directories sized %d and %d, want 2 and 1 from the bounds", len(f.dir[0]), len(f.dir[1]))
	}
}

func TestFlatGrowth(t *testing.T) {
	f := bounded(1, 7, 13*10000) // one page: force pool and directory growth
	const n = 10000
	for i := 0; i < n; i++ {
		f.SwapR(slot(t, f, Key{Local: int32(i * 13), Shard: int32(i % 7)}), float64(i))
	}
	if f.Grows() == 0 {
		t.Fatal("expected page-pool and directory growth at this load")
	}
	for i := 0; i < n; i++ {
		s := f.Find(int32(i%7), int32(i*13))
		if s < 0 || f.R(s) != float64(i) {
			t.Fatalf("key %d lost after growth: slot %d", i, s)
		}
	}
}

// refTable is the reference model of a Flat: values by key, the activated
// set in activation order, and the pages in first-touch order.
type refTable struct {
	r, p   map[Key]float64
	has    map[Key]bool
	act    []Key
	pages  []Key // {Local: first local of the page, Shard}
	bounds []int32
}

func newRefTable() *refTable {
	return &refTable{r: map[Key]float64{}, p: map[Key]float64{}, has: map[Key]bool{}}
}

func (m *refTable) valid(k Key) bool {
	return k.Local >= 0 && k.Shard >= 0 && int(k.Shard) < len(m.bounds) && int(k.Local) < pagesFor(m.bounds[k.Shard])*PageLocals
}

// randomBounds draws 1 to 4 shards of up to 2500 locals.
func randomBounds(rng *rand.Rand) []int32 {
	b := make([]int32, 1+rng.Intn(4))
	for i := range b {
		b[i] = int32(rng.Intn(2500))
	}
	return b
}

func (m *refTable) touch(k Key) {
	pk := Key{Local: k.Local &^ pageMask, Shard: k.Shard}
	if !slices.Contains(m.pages, pk) {
		m.pages = append(m.pages, pk)
	}
}

// rangeP is the order RangeP must produce: pages in first-touch order,
// locals ascending within a page.
func (m *refTable) rangeP() []Key {
	var out []Key
	for _, pk := range m.pages {
		for o := int32(0); o < PageLocals; o++ {
			if k := (Key{Local: pk.Local + o, Shard: pk.Shard}); m.has[k] {
				out = append(out, k)
			}
		}
	}
	return out
}

// Seeded differential test: random add, swap, activate, drain, clear and
// poison operations across several shards, against refTable. Values match
// the model, every drain equals the activated set, last activated first,
// and RangeP order follows from the insertion order alone (a twin table
// with a different history ranges identically).
func TestQuickFlatMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := newRefTable()
		ref.bounds = randomBounds(rng)
		fl, twin := NewFlat(1), bounded(1, 5, 15000)
		fl.Bound(ref.bounds)
		for i := int32(0); i < 5000; i++ { // the twin starts out grown and used
			twin.AddP(slot(t, twin, Key{Local: i * 3, Shard: i % 5}), 1)
			twin.Activate(slot(t, twin, Key{Local: i, Shard: 4 - i%5}))
		}
		twin.Clear()
		twin.Bound(ref.bounds)
		var drained, twinDrained []int32
		var drainedShards, twinShards []int32
		for op := 0; op < 3000; op++ {
			k := Key{Local: int32(rng.Intn(400)) - 2, Shard: int32(rng.Intn(5)) - 1}
			if rng.Intn(8) == 0 {
				k.Local += int32(rng.Intn(3)) * 1000
			}
			s, ts := fl.Slot(k.Shard, k.Local), twin.Slot(k.Shard, k.Local)
			if (s >= 0) != ref.valid(k) || (ts >= 0) != (s >= 0) {
				t.Logf("seed %d op %d: Slot(%v) = %d, twin %d, model valid %v", seed, op, k, s, ts, ref.valid(k))
				return false
			}
			if s < 0 {
				continue
			}
			ref.touch(k)
			switch c := rng.Intn(100); {
			case c < 40:
				d := rng.Float64()
				ref.r[k] += d
				if nv := fl.AddR(s, d); nv != ref.r[k] {
					t.Logf("seed %d: AddR %v = %v, model %v", seed, k, nv, ref.r[k])
					return false
				}
				twin.AddR(ts, d)
			case c < 55:
				v := rng.Float64()
				if old := fl.SwapR(s, v); old != ref.r[k] {
					t.Logf("seed %d: SwapR %v returned %v, model %v", seed, k, old, ref.r[k])
					return false
				}
				ref.r[k] = v
				twin.SwapR(ts, v)
			case c < 70:
				d := rng.Float64()
				ref.p[k] += d
				ref.has[k] = true
				fl.AddP(s, d)
				twin.AddP(ts, d)
			case c < 88:
				if !slices.Contains(ref.act, k) {
					ref.act = append(ref.act, k)
				}
				fl.Activate(s)
				twin.Activate(ts)
			case c < 96:
				drained, drainedShards = fl.Drain(drained[:0], drainedShards[:0])
				twinDrained, twinShards = twin.Drain(twinDrained[:0], twinShards[:0])
				if len(drained) != len(ref.act) || !slices.Equal(drained, twinDrained) || !slices.Equal(drainedShards, twinShards) {
					t.Logf("seed %d: drained %d keys, model %d", seed, len(drained), len(ref.act))
					return false
				}
				for i, want := range ref.act {
					j := len(ref.act) - 1 - i
					if (Key{Local: drained[j], Shard: drainedShards[j]}) != want {
						t.Logf("seed %d: drain position %d = (%d,%d), model %v", seed, j, drained[j], drainedShards[j], want)
						return false
					}
				}
				ref.act = ref.act[:0]
			case c < 98:
				fl.Clear()
				twin.Clear()
				bounds := ref.bounds
				ref = newRefTable()
				ref.bounds = bounds
				if rng.Intn(2) == 0 {
					ref.bounds = randomBounds(rng)
					fl.Bound(ref.bounds)
					twin.Bound(ref.bounds)
				}
			default:
				if !checkRanges(t, fl, twin, ref) {
					t.Logf("seed %d op %d: tables diverge from the model", seed, op)
					return false
				}
				fl.Poison()
				poisoned := 0
				fl.RangeP(func(_ Key, v float64) bool {
					if v == PoisonValue {
						poisoned++
					}
					return true
				})
				if poisoned != len(ref.has) || fl.Reserves() != len(ref.has) {
					t.Logf("seed %d: %d of %d reserves poisoned", seed, poisoned, len(ref.has))
					return false
				}
				fl.Clear()
				twin.Clear()
				bounds := ref.bounds
				ref = newRefTable()
				ref.bounds = bounds
			}
		}
		return checkRanges(t, fl, twin, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// checkRanges holds both tables' RangeP and RangeR against the model.
func checkRanges(t *testing.T, fl, twin *Flat, ref *refTable) bool {
	t.Helper()
	var keys, twinKeys []Key
	ok := true
	fl.RangeP(func(k Key, v float64) bool {
		keys = append(keys, k)
		ok = ok && v == ref.p[k]
		return true
	})
	twin.RangeP(func(k Key, _ float64) bool { twinKeys = append(twinKeys, k); return true })
	if !ok || !slices.Equal(keys, ref.rangeP()) || !slices.Equal(keys, twinKeys) || fl.Reserves() != len(ref.has) {
		return false
	}
	nonzero := 0
	for _, v := range ref.r {
		if v != 0 {
			nonzero++
		}
	}
	n := 0
	fl.RangeR(func(k Key, v float64) bool {
		n++
		ok = ok && v == ref.r[k]
		return true
	})
	return ok && n == nonzero
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

// The activated set: one entry per key however often it is activated,
// emptied by Drain, open again afterwards.
func TestFlatSetBasics(t *testing.T) {
	f := bounded(1, 3, 64)
	k := Key{Local: 5, Shard: 2}
	s := slot(t, f, k)
	f.Activate(s)
	f.Activate(s)
	if len(f.active) != 1 {
		t.Fatalf("Activated = %d", len(f.active))
	}
	locals, shards := f.Drain(nil, nil)
	if len(locals) != 1 || locals[0] != k.Local || shards[0] != k.Shard {
		t.Fatalf("Drain = %v %v", locals, shards)
	}
	if len(f.active) != 0 {
		t.Fatal("set not cleared by Drain")
	}
	f.Activate(s)
	if len(f.active) != 1 {
		t.Fatal("reactivation after Drain was lost")
	}
}

// Drain is reverse first-activation order, whatever the keys, and leaves the
// set reusable.
func TestFlatSetDrainOrderAndReuse(t *testing.T) {
	for _, n := range []int{3, 600} {
		f := bounded(1, 3, 5000)
		rng := rand.New(rand.NewSource(int64(n)))
		var want []Key
		for i := 0; i < n; i++ {
			k := Key{Local: int32(rng.Intn(5000)), Shard: int32(rng.Intn(3))}
			if !slices.Contains(want, k) {
				want = append(want, k)
			}
			f.Activate(slot(t, f, k))
			if i%3 == 0 { // re-activating an earlier key keeps its place
				f.Activate(slot(t, f, want[0]))
			}
		}
		locals, shards := f.Drain(nil, nil)
		if len(locals) != len(want) {
			t.Fatalf("n=%d: drained %d keys, want %d", n, len(locals), len(want))
		}
		for i, k := range want {
			j := len(want) - 1 - i
			if locals[j] != k.Local || shards[j] != k.Shard {
				t.Fatalf("n=%d: drain position %d = (%d,%d), want %v", n, j, locals[j], shards[j], k)
			}
		}
		for _, k := range want { // every bit was cleared
			f.Activate(slot(t, f, k))
		}
		if len(f.active) != len(want) {
			t.Fatalf("n=%d: %d keys reactivated, want %d", n, len(f.active), len(want))
		}
	}
}

func TestFlatSetGrowth(t *testing.T) {
	f := bounded(1, 3, 5000)
	const n = 5000
	for i := 0; i < n; i++ {
		f.Activate(slot(t, f, Key{Local: int32(i), Shard: int32(i % 3)}))
	}
	if f.Grows() == 0 {
		t.Fatal("expected page-pool growth at this load")
	}
	seen := make(map[Key]bool, n)
	locals, shards := f.Drain(nil, nil)
	for i := range locals {
		k := Key{Local: locals[i], Shard: shards[i]}
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
// by a small one must leave nothing of the first behind and must keep the
// grown page pool.
func TestFlatClearLeavesNothingBehind(t *testing.T) {
	f := bounded(1, 3, 5000*11)
	for i := int32(0); i < 5000; i++ {
		s := slot(t, f, Key{Local: i, Shard: i % 3})
		f.AddR(s, float64(i)+0.5)
		f.AddP(s, 1)
		f.Activate(s)
	}
	grown := f.Footprint()
	for round, n := range []int32{5000, 40, 0, 3000} {
		f.Clear()
		if f.Reserves() != 0 || len(f.active) != 0 || len(f.pages)-1 != 0 {
			t.Fatalf("round %d: %d reserves, %d activated, %d pages after Clear", round, f.Reserves(), len(f.active), len(f.pages)-1)
		}
		f.RangeR(func(k Key, v float64) bool {
			t.Fatalf("round %d: stale entry %v=%v after Clear", round, k, v)
			return false
		})
		for i := int32(0); i < 5000; i += 7 {
			if s := f.Find(i%3, i); s >= 0 {
				t.Fatalf("round %d: stale key %d findable after Clear", round, i)
			}
		}
		for i := int32(0); i < n; i++ {
			s := slot(t, f, Key{Local: i * 11, Shard: 1})
			if nv := f.AddR(s, 2); nv != 2 || f.P(s) != 0 {
				t.Fatalf("round %d: a cleared table's slot held r %v p %v", round, nv-2, f.P(s))
			}
		}
		if len(f.pages)-1 != int(pagesFor((n-1)*11+1)) && n > 0 {
			t.Fatalf("round %d: %d pages for %d keys", round, len(f.pages)-1, n)
		}
	}
	// The pool survives: refilling with the first key set grows nothing.
	f.Clear()
	if f.Footprint() < grown {
		t.Fatalf("Footprint shrank %d -> %d across Clear", grown, f.Footprint())
	}
	grows := f.Grows()
	for i := int32(0); i < 5000; i++ {
		f.AddR(slot(t, f, Key{Local: i, Shard: i % 3}), 1)
	}
	if f.Grows() != grows {
		t.Fatalf("refilling a cleared table grew it %d times", f.Grows()-grows)
	}
}

// Range order depends on insertion order alone, not on how large the table
// happened to be — a recycled (grown) table iterates like a fresh one.
func TestFlatRangeOrderIgnoresCapacity(t *testing.T) {
	small, big := bounded(1, 4, 4001), bounded(1<<12, 4, 4001)
	for i := int32(0); i < 3000; i++ { // big is a recycled table
		big.AddP(slot(t, big, Key{Local: 3000 - i, Shard: i % 4}), 1)
	}
	big.Clear()
	for i := int32(0); i < 3000; i++ {
		k := Key{Local: i * 7 % 4001, Shard: i % 4}
		small.AddP(slot(t, small, k), float64(i))
		big.AddP(slot(t, big, k), float64(i))
	}
	var a, b []Key
	small.RangeP(func(k Key, _ float64) bool { a = append(a, k); return true })
	big.RangeP(func(k Key, _ float64) bool { b = append(b, k); return true })
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
	f := bounded(1, 1, 100)
	for i := int32(0); i < 100; i++ {
		s := slot(t, f, Key{Local: i})
		f.AddP(s, 1)
		f.AddR(s, 1)
	}
	f.Poison()
	for name, rng := range map[string]func(func(Key, float64) bool){"p": f.RangeP, "r": f.RangeR} {
		n := 0
		rng(func(_ Key, v float64) bool {
			if v != PoisonValue {
				t.Fatalf("%s value %v survived Poison", name, v)
			}
			n++
			return true
		})
		if n < 100 {
			t.Fatalf("%s: ranged %d poisoned entries, want at least 100", name, n)
		}
	}
}

// The inner-loop table ops must not allocate once the page pool fits the
// workload — the recycled engine's steady state.
func TestFlatSteadyStateAllocBudget(t *testing.T) {
	if mem.RaceEnabled {
		t.Skip("race instrumentation skews alloc counts")
	}
	f := NewFlat(1)
	keys := make([]Key, 1024)
	for i := range keys {
		keys[i] = Key{Local: int32(i * 5), Shard: int32(i % 4)}
	}
	bounds := []int32{8000, 8000, 8000, 8000}
	var locals, shards []int32
	round := func() {
		f.Clear()
		f.Bound(bounds)
		for _, k := range keys {
			s := f.Slot(k.Shard, k.Local)
			f.AddR(s, 0.5)
			f.SwapR(s, 2)
			f.AddP(s, 1)
			f.Activate(s)
		}
		locals, shards = f.Drain(locals[:0], shards[:0])
		for i := range locals {
			f.Activate(f.Slot(shards[i], locals[i]))
		}
	}
	round() // warm to final size
	if allocs := testing.AllocsPerRun(100, round); allocs > 0 {
		t.Fatalf("steady-state table ops allocate %.1f objects per round, budget 0", allocs)
	}
}

// BenchmarkFlatAddR times the residual update — the engine's innermost
// operation — as Slot plus AddR over keys scattered across a shard of the
// given size: the directory and the touched pages of the smallest stay in
// L1/L2, the largest do not.
func BenchmarkFlatAddR(b *testing.B) {
	for _, locals := range []int{1 << 12, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("locals=%d", locals), func(b *testing.B) {
			f := bounded(1, 4, int32(locals))
			rng := rand.New(rand.NewSource(1))
			keys := make([]Key, 1<<12)
			for i := range keys {
				keys[i] = Key{Local: rng.Int31n(int32(locals)), Shard: int32(i & 3)}
				f.AddR(f.Slot(keys[i].Shard, keys[i].Local), 1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i&(len(keys)-1)]
				f.AddR(f.Slot(k.Shard, k.Local), 0.5)
			}
		})
	}
}
