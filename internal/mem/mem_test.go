package mem

import (
	"sync"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 0}, {1, 0}, {512, 0}, {513, 1}, {1024, 1}, {1025, 2},
		{1 << 20, 11}, {1 << 21, 12}, {1<<21 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestPoolReuse(t *testing.T) {
	if RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts at random")
	}
	var p Pool
	b := p.Get(1000)
	if b.Len() != 1000 || cap(b.Bytes()) != 1024 {
		t.Fatalf("Get(1000): len %d cap %d", b.Len(), cap(b.Bytes()))
	}
	first := &b.Bytes()[0]
	b.Release()
	// Same class: the released buffer must come back.
	b2 := p.Get(600)
	if &b2.Bytes()[0] != first {
		t.Fatal("pool did not recycle the released buffer")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if st.Live != 1024 {
		t.Fatalf("live = %d, want 1024", st.Live)
	}
	b2.Release()
	if live := p.Stats().Live; live != 0 {
		t.Fatalf("live after release = %d, want 0", live)
	}
}

func TestRefcountSharing(t *testing.T) {
	var p Pool
	b := p.Get(100)
	first := &b.Bytes()[0]
	b.Retain()
	b.Release() // one holder done; buffer still alive
	if got := p.Get(100); &got.Bytes()[0] == first {
		t.Fatal("buffer recycled while a reference was held")
	}
	b.Release() // last holder
	// Drain the one unrelated buffer, then the shared one must be pooled.
	var found bool
	for i := 0; i < 2; i++ {
		if g := p.Get(100); &g.Bytes()[0] == first {
			found = true
		}
	}
	if !found {
		t.Fatal("buffer not recycled after final release")
	}
}

func TestReleasePanicsOnDouble(t *testing.T) {
	var p Pool
	b := p.Get(10)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	b.Release()
}

func TestRetainPanicsAfterRelease(t *testing.T) {
	var p Pool
	b := p.Get(10)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Retain after Release did not panic")
		}
	}()
	b.Retain()
}

func TestNilBufSafe(t *testing.T) {
	var b *Buf
	b.Release()
	b.Retain()
	if b.Bytes() != nil || b.Len() != 0 {
		t.Fatal("nil Buf has bytes")
	}
}

func TestOversizedNotPooled(t *testing.T) {
	var p Pool
	n := 1<<21 + 1
	b := p.Get(n)
	if b.Len() != n {
		t.Fatalf("len = %d", b.Len())
	}
	if p.Stats().Live != int64(n) {
		t.Fatalf("live = %d, want %d", p.Stats().Live, n)
	}
	b.Release()
	if p.Stats().Live != 0 {
		t.Fatal("oversized release did not return live bytes")
	}
}

// TestPoisonClobbersOnRelease: a holder that keeps raw bytes past Release
// must observe the poison pattern, not its old data.
func TestPoisonClobbersOnRelease(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	var p Pool
	b := p.Get(64)
	raw := b.Bytes()
	for i := range raw {
		raw[i] = byte(i)
	}
	b.Release()
	for i, v := range raw {
		if v != poisonByte {
			t.Fatalf("byte %d = %#x after release, want poison %#x", i, v, poisonByte)
		}
	}
}

func TestWrap(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	s := []byte{1, 2, 3}
	b := Wrap(s)
	if &b.Bytes()[0] != &s[0] {
		t.Fatal("Wrap copied")
	}
	b.Release()
	if s[0] != poisonByte {
		t.Fatal("Wrap'd buffer not poisoned on release")
	}
}

func TestArena(t *testing.T) {
	var a Arena
	x := a.I32(10)
	y := a.I32(20)
	if len(x) != 10 || len(y) != 20 {
		t.Fatal("bad lengths")
	}
	x[9] = 7
	if y[0] != 0 {
		t.Fatal("allocations overlap")
	}
	// Appending to an arena slice must not bleed into the next allocation.
	x = append(x, 99)
	if y[0] != 0 {
		t.Fatal("append to arena slice overwrote the next allocation")
	}
	f := a.F32(5)
	f[4] = 2.5
	a.Reset()
	z := a.I32(10)
	if z[9] != 0 {
		t.Fatal("arena slice not zeroed after Reset reuse")
	}
}

// TestArenaPoisonOnReset: slices held across Reset observe the poison
// pattern (until the slab is re-handed-out), proving stale views can't
// silently read fresh data.
func TestArenaPoisonOnReset(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	var a Arena
	x := a.I32(8)
	x[0] = 42
	f := a.F32(8)
	f[0] = 1.5
	a.Reset()
	if x[0] == 42 {
		t.Fatal("int32 arena slice survived Reset unpoisoned")
	}
	if f[0] == 1.5 {
		t.Fatal("float32 arena slice survived Reset unpoisoned")
	}
}

func TestArenaGrowthKeepsOldAllocationsValid(t *testing.T) {
	var a Arena
	x := a.I32(arenaMinSlab) // fills the first slab exactly
	x[0] = 11
	y := a.I32(arenaMinSlab * 4) // forces a new slab
	y[0] = 22
	if x[0] != 11 {
		t.Fatal("old slab allocation corrupted by growth")
	}
}

func TestArenaPool(t *testing.T) {
	a := GetArena()
	s := a.I32(4)
	s[0] = 1
	PutArena(a)
	b := GetArena()
	v := b.I32(4)
	if v[0] != 0 {
		t.Fatal("pooled arena handed out dirty memory")
	}
	PutArena(b)
	PutArena(nil) // nil-safe
}

func TestConcurrentGetRelease(t *testing.T) {
	var p Pool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := p.Get(100 + i)
				raw := b.Bytes()
				for j := range raw {
					raw[j] = seed
				}
				b.Retain()
				for j := range raw {
					if raw[j] != seed {
						panic("buffer shared between holders")
					}
				}
				b.Release()
				b.Release()
			}
		}(byte(g))
	}
	wg.Wait()
	if live := p.Stats().Live; live != 0 {
		t.Fatalf("live = %d after all releases", live)
	}
}

func BenchmarkPoolGetRelease(b *testing.B) {
	var p Pool
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := p.Get(4096)
		buf.Release()
	}
}

func BenchmarkArenaEpoch(b *testing.B) {
	var a Arena
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.I32(64)
		_ = a.F32(64)
		a.Reset()
	}
}

// TestLeaseProtocol: exactly one party hands the buffer back, whichever order
// resolution and release arrive in.
func TestLeaseProtocol(t *testing.T) {
	var held Lease // resolve, then release twice
	if !held.Resolve() {
		t.Fatal("Resolve on a pending lease must succeed")
	}
	if !held.Release() || held.Release() {
		t.Fatal("Release on a resolved lease must report true exactly once")
	}
	var abandoned Lease // release first: the resolver inherits the buffer
	if abandoned.Release() {
		t.Fatal("Release on a pending lease must not ask the caller to free anything")
	}
	if abandoned.Resolve() {
		t.Fatal("Resolve after abandonment must tell the resolver to free the buffer")
	}
	if abandoned.Release() {
		t.Fatal("a second Release after abandonment must stay a no-op")
	}
}
