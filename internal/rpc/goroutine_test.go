package rpc

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pprengine/internal/metrics"
)

// TestCallCtxNoWatcherGoroutines: issuing many context-carrying calls must
// not spawn a goroutine per call. Cancellation is resolved in the wait path
// (Future.WaitCtx fails the pending slot itself), so 10k in-flight calls
// cost 10k pending-map entries and zero goroutines.
func TestCallCtxNoWatcherGoroutines(t *testing.T) {
	conn, peer := net.Pipe()
	// Discard everything the client writes so sendFrame never blocks; never
	// answer, so every call stays in flight.
	go io.Copy(io.Discard, peer)
	c := NewClient(conn, LatencyModel{})
	defer func() {
		c.Close()
		peer.Close()
	}()

	runtime.GC()
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	const calls = 10_000
	futs := make([]*Future, calls)
	for i := range futs {
		futs[i] = c.CallCtx(ctx, MethodGetNeighborInfos, []byte{0, 0, 0, 0})
	}

	// Allow any stray goroutines to reach a steady state before measuring.
	time.Sleep(50 * time.Millisecond)
	runtime.GC()
	if grew := runtime.NumGoroutine() - base; grew > 50 {
		t.Fatalf("%d calls in flight grew goroutines by %d (want ~0: no per-call watcher)", calls, grew)
	}

	// Cancellation still works without watchers: every waiter resolves with
	// the context error via the wait path.
	cancel()
	for i, f := range futs {
		if _, err := f.WaitCtx(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d: err = %v, want context.Canceled", i, err)
		}
	}

	// The pending table must be fully drained — cancelled slots are removed,
	// not leaked until connection teardown.
	left := 0
	c.pending.Range(func(_, _ any) bool {
		left++
		return true
	})
	if left != 0 {
		t.Fatalf("%d pending entries leaked after cancellation", left)
	}
}

// TestHookExactlyOnceUnderRaces: a future's completion hook runs exactly once
// — never zero times, never twice — when the response, a WaitCtx
// cancellation and the connection's death race to complete it, and whichever
// wins, the pending table and the frame pool end up empty.
func TestHookExactlyOnceUnderRaces(t *testing.T) {
	srv := NewServer()
	srv.Handle(MethodEcho, func(p []byte) ([]byte, error) { return p, nil })
	addr, err := srv.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := metrics.PoolLiveBytes.Load()
	payload := make([]byte, 256)
	for round := 0; round < 40; round++ {
		c, err := Dial(addr, LatencyModel{})
		if err != nil {
			t.Fatal(err)
		}
		const calls = 48
		var fired [calls]atomic.Int32
		var hooks, waiters sync.WaitGroup
		hooks.Add(calls)
		ctx, cancel := context.WithCancel(context.Background())
		futs := make([]*Future, calls)
		for i := range futs {
			i := i
			hook := func() {
				fired[i].Add(1)
				hooks.Done() // a second run panics the WaitGroup
			}
			futs[i] = c.Call(MethodEcho, payload)
			if !futs[i].OnDone(hook) {
				hook() // already resolved: OnDone never runs it itself
			}
			if i%2 == 0 {
				waiters.Add(1)
				go func() {
					defer waiters.Done()
					futs[i].WaitCtx(ctx)
				}()
			}
		}
		// The three completers, at once: the server's responses are already
		// arriving.
		go cancel()
		go c.Close()
		waiters.Wait()
		hooks.Wait() // every hook ran: no future is left pending
		for i, f := range futs {
			<-f.Done()
			if n := fired[i].Load(); n != 1 {
				t.Fatalf("round %d call %d: hook ran %d times", round, i, n)
			}
			f.Release()
		}
		left := 0
		c.pending.Range(func(_, _ any) bool { left++; return true })
		if left != 0 {
			t.Fatalf("round %d: %d pending entries left", round, left)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for metrics.PoolLiveBytes.Load() != base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond) // server handlers still unwinding
	}
	if live := metrics.PoolLiveBytes.Load(); live != base {
		t.Fatalf("PoolLiveBytes = %d, want %d: a racing completion stranded a buffer", live, base)
	}
}
