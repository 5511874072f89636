// Package mem provides the zero-copy hot path's memory management: pooled,
// refcounted frame buffers (Pool/Buf) and epoch-style arenas for decoded
// rows (Arena). Both exist to take the steady-state remote-fetch path off
// the garbage collector: a frame buffer is recycled the moment the last
// holder releases it, and an arena hands out decode scratch from a few
// large slabs that are reset wholesale between uses.
//
// Ownership rules (DESIGN.md §5h):
//
//   - Get returns a Buf with one reference owned by the caller. Retain adds
//     a reference for every additional independent holder; each holder calls
//     Release exactly once.
//   - A view that aliases a Buf's bytes (wire.DecodeCSRView) is only valid
//     while at least one reference is held. Release is the holder's promise
//     that no view derived from the buffer will be touched again.
//   - Forgetting to Release is safe: the buffer falls back to the garbage
//     collector and the pool just misses next time. Releasing early (or
//     twice) is the only dangerous mistake, so release hooks exist only
//     where the lifecycle is unambiguous.
//
// SetPoison(true) turns on a debug mode that clobbers a buffer's bytes the
// moment its refcount hits zero, so any view that outlives its Release shows
// up as corrupt data in tests instead of a silent heisenbug.
package mem

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"pprengine/internal/metrics"
)

// Size classes are powers of two from 1<<minClassBits to 1<<maxClassBits.
// Requests above the largest class are allocated directly (counted as pool
// misses) and never pooled: a handful of giant frames should not pin giant
// buffers in the pool.
const (
	minClassBits = 9  // 512 B
	maxClassBits = 21 // 2 MiB — covers readPayload's 1 MiB chunk and typical frames
	numClasses   = maxClassBits - minClassBits + 1
)

// poisonByte is the fill pattern for released buffers in poison mode. As a
// float32 it is a denormal garbage value; as an int32 it is a large negative
// index — either way, a stale view trips validation or score checks fast.
const poisonByte = 0xDB

var poisonOn atomic.Bool

// SetPoison toggles the debug poison mode globally: when on, a buffer's
// bytes are overwritten with 0xDB on final release, before the buffer is
// recycled. Tests use this to prove no decoded view outlives its buffer.
func SetPoison(on bool) { poisonOn.Store(on) }

// PoisonEnabled reports whether poison mode is on.
func PoisonEnabled() bool { return poisonOn.Load() }

// classFor returns the size-class index for a request of n bytes, or -1 when
// n is too large to pool.
func classFor(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	c := bits.Len(uint(n-1)) - minClassBits
	if c >= numClasses {
		return -1
	}
	return c
}

// Pool hands out refcounted byte buffers in power-of-two size classes.
// The zero value is ready to use. Pools are safe for concurrent use.
type Pool struct {
	classes [numClasses]sync.Pool

	hits     atomic.Int64
	misses   atomic.Int64
	releases atomic.Int64
	live     atomic.Int64 // bytes currently checked out (capacity, not len)
}

// PoolStats is a snapshot of a pool's counters.
type PoolStats struct {
	Hits     int64 // Gets served by recycling a released buffer
	Misses   int64 // Gets that had to allocate (cold pool or oversized)
	Releases int64 // final releases that returned a buffer
	Live     int64 // bytes currently checked out
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Hits:     p.hits.Load(),
		Misses:   p.misses.Load(),
		Releases: p.releases.Load(),
		Live:     p.live.Load(),
	}
}

// Buf is a refcounted byte buffer, possibly backed by a pool. The zero
// reference state is owned by whoever called Get (refs = 1).
type Buf struct {
	pool  *Pool
	class int // -1: not pooled (oversized or Wrap'd)
	b     []byte
	refs  atomic.Int32
}

// Get returns a buffer of length n with one reference owned by the caller.
// The bytes are not zeroed beyond what the caller will overwrite — callers
// fill the buffer before sharing it.
func (p *Pool) Get(n int) *Buf {
	c := classFor(n)
	if c < 0 {
		p.misses.Add(1)
		metrics.PoolMisses.Inc(1)
		b := &Buf{pool: p, class: -1, b: make([]byte, n)}
		b.refs.Store(1)
		p.live.Add(int64(n))
		metrics.PoolLiveBytes.Add(int64(n))
		return b
	}
	size := 1 << (minClassBits + c)
	if v := p.classes[c].Get(); v != nil {
		b := v.(*Buf)
		b.b = b.b[:n]
		b.refs.Store(1)
		p.hits.Add(1)
		metrics.PoolHits.Inc(1)
		p.live.Add(int64(size))
		metrics.PoolLiveBytes.Add(int64(size))
		return b
	}
	p.misses.Add(1)
	metrics.PoolMisses.Inc(1)
	b := &Buf{pool: p, class: c, b: make([]byte, n, size)}
	b.refs.Store(1)
	p.live.Add(int64(size))
	metrics.PoolLiveBytes.Add(int64(size))
	return b
}

// Wrap adopts an externally-allocated slice as an unpooled refcounted
// buffer: Release semantics apply (poison included) but the memory is left
// to the garbage collector.
func Wrap(b []byte) *Buf {
	buf := &Buf{class: -1, b: b}
	buf.refs.Store(1)
	return buf
}

// Bytes returns the buffer's contents. Valid only while a reference is
// held. Nil-safe: a nil Buf has no bytes.
func (b *Buf) Bytes() []byte {
	if b == nil {
		return nil
	}
	return b.b
}

// Len returns the buffer's length. Nil-safe.
func (b *Buf) Len() int {
	if b == nil {
		return 0
	}
	return len(b.b)
}

// SetLen reslices the buffer to n, which must not exceed its capacity.
// Used by encoders that fill a Get(max)-sized buffer partially.
func (b *Buf) SetLen(n int) { b.b = b.b[:n] }

// Retain adds a reference for a new independent holder. Nil-safe.
func (b *Buf) Retain() {
	if b == nil {
		return
	}
	if b.refs.Add(1) <= 1 {
		panic("mem: Retain on a released buffer")
	}
}

// Release drops one reference. When the last reference is dropped the
// buffer's bytes become invalid: in poison mode they are clobbered
// immediately, and pooled buffers are recycled into the pool. Releasing
// more times than Retain+Get granted references panics — that bug class
// (use-after-free through a recycled buffer) must never ship silently.
// Nil-safe: releasing a nil Buf is a no-op.
func (b *Buf) Release() {
	if b == nil {
		return
	}
	n := b.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("mem: Release of an already-released buffer")
	}
	if poisonOn.Load() {
		s := b.b[:cap(b.b)]
		for i := range s {
			s[i] = poisonByte
		}
	}
	if b.pool == nil {
		return // Wrap'd buffer: GC owns the memory
	}
	size := cap(b.b)
	b.pool.releases.Add(1)
	b.pool.live.Add(-int64(size))
	metrics.PoolLiveBytes.Add(-int64(size))
	if b.class >= 0 {
		b.pool.classes[b.class].Put(b)
	}
}

// Lease is the hand-back protocol of a pending result that may come to hold
// a pooled buffer (an rpc future, a routed or hedged call, an aggregator
// ticket). Its owner releases it exactly when done with the result — and may
// do so before there is a result, which abandons it: the resolver then hands
// the buffer back itself, so an owner that gave up strands nothing. The zero
// value is a pending lease.
type Lease struct{ state atomic.Int32 }

const (
	leasePending int32 = iota
	leaseResolved
	leaseAbandoned
	leaseReleased
)

// Resolve marks the result available. The resolver must have written the
// result before calling it (the transition publishes those writes to a
// concurrent Release). It reports false when the owner already abandoned the
// lease: nobody will read the result, and the resolver releases its buffer.
func (l *Lease) Resolve() bool { return l.state.CompareAndSwap(leasePending, leaseResolved) }

// Release gives the lease up. It reports true at most once, and only for a
// resolved lease: the caller must release the result's buffer now. On a
// pending lease it records the abandonment and reports false.
func (l *Lease) Release() bool {
	return !l.state.CompareAndSwap(leasePending, leaseAbandoned) &&
		l.state.CompareAndSwap(leaseResolved, leaseReleased)
}
