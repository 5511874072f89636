package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func startEchoServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	s.Handle(MethodEcho, func(p []byte) ([]byte, error) {
		return p, nil
	})
	addr, err := s.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, addr
}

func TestEchoRoundTrip(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr, LatencyModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := []byte("hello graph engine")
	resp, err := c.SyncCall(MethodEcho, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, payload) {
		t.Fatalf("resp = %q", resp)
	}
	if c.RequestsSent.Load() != 1 || c.BytesSent.Load() != int64(len(payload)) {
		t.Fatal("stats not counted")
	}
}

func TestEmptyPayload(t *testing.T) {
	_, addr := startEchoServer(t)
	c, _ := Dial(addr, LatencyModel{})
	defer c.Close()
	resp, err := c.SyncCall(MethodEcho, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 0 {
		t.Fatalf("resp = %v", resp)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, addr := startEchoServer(t)
	c, _ := Dial(addr, LatencyModel{})
	defer c.Close()
	if _, err := c.SyncCall(Method(42), []byte("x")); err == nil {
		t.Fatal("expected error for unknown method")
	}
}

func TestHandlerError(t *testing.T) {
	s := NewServer()
	s.Handle(MethodEcho, func(p []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	addr, err := s.ListenAndServe()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, _ := Dial(addr, LatencyModel{})
	defer c.Close()
	_, err = c.SyncCall(MethodEcho, []byte("x"))
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("boom")) {
		t.Fatalf("err = %v", err)
	}
}

func TestManyConcurrentCalls(t *testing.T) {
	s := NewServer()
	s.Handle(MethodEcho, func(p []byte) ([]byte, error) {
		return p, nil
	})
	addr, _ := s.ListenAndServe()
	defer s.Close()
	c, _ := Dial(addr, LatencyModel{})
	defer c.Close()
	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := []byte(fmt.Sprintf("msg-%d", i))
			got, err := c.SyncCall(MethodEcho, want)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, want) {
				errs <- fmt.Errorf("mismatch: %q vs %q", got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestFuturesResolveOutOfOrder(t *testing.T) {
	// A slow handler and a fast handler: the fast response must not wait
	// for the slow one (asynchronous demux).
	s := NewServer()
	block := make(chan struct{})
	s.Handle(Method(10), func(p []byte) ([]byte, error) {
		<-block
		return []byte("slow"), nil
	})
	s.Handle(Method(11), func(p []byte) ([]byte, error) {
		return []byte("fast"), nil
	})
	addr, _ := s.ListenAndServe()
	defer s.Close()
	c, _ := Dial(addr, LatencyModel{})
	defer c.Close()

	slowF := c.Call(Method(10), nil)
	fastF := c.Call(Method(11), nil)
	done := make(chan struct{})
	go func() {
		resp, err := fastF.Wait()
		if err == nil && string(resp) == "fast" {
			close(done)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("fast response blocked behind slow handler")
	}
	close(block)
	if resp, err := slowF.Wait(); err != nil || string(resp) != "slow" {
		t.Fatalf("slow: %q %v", resp, err)
	}
}

func TestWaitIdempotent(t *testing.T) {
	_, addr := startEchoServer(t)
	c, _ := Dial(addr, LatencyModel{})
	defer c.Close()
	f := c.Call(MethodEcho, []byte("x"))
	r1, err1 := f.Wait()
	r2, err2 := f.Wait()
	if err1 != nil || err2 != nil || !bytes.Equal(r1, r2) {
		t.Fatal("Wait not idempotent")
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	s := NewServer()
	block := make(chan struct{})
	s.Handle(MethodEcho, func(p []byte) ([]byte, error) {
		<-block
		return p, nil
	})
	addr, _ := s.ListenAndServe()
	defer s.Close()
	defer close(block) // before s.Close, which waits for the blocked handler
	c, _ := Dial(addr, LatencyModel{})
	f := c.Call(MethodEcho, []byte("x"))
	c.Close()
	if _, err := f.Wait(); err == nil {
		t.Fatal("pending call should fail after Close")
	}
	// Calls after Close fail immediately.
	if _, err := c.SyncCall(MethodEcho, []byte("y")); err == nil {
		t.Fatal("call after Close should fail")
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	s, addr := startEchoServer(t)
	c, _ := Dial(addr, LatencyModel{})
	defer c.Close()
	if _, err := c.SyncCall(MethodEcho, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Subsequent calls should fail, not hang.
	done := make(chan error, 1)
	go func() {
		_, err := c.SyncCall(MethodEcho, []byte("x"))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected error after server close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call hung after server close")
	}
}

func TestLatencyModel(t *testing.T) {
	lm := LatencyModel{Base: 10 * time.Millisecond, BytesPerSec: 1e6}
	d := lm.Delay(1000)
	if d != 11*time.Millisecond {
		t.Fatalf("Delay = %v, want 11ms", d)
	}
	if (LatencyModel{}).Delay(1<<20) != 0 {
		t.Fatal("zero model should have zero delay")
	}
	_, addr := startEchoServer(t)
	c, _ := Dial(addr, LatencyModel{Base: 20 * time.Millisecond})
	defer c.Close()
	start := time.Now()
	if _, err := c.SyncCall(MethodEcho, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("latency model not applied: %v", el)
	}
}

func TestInProcessPipeTransport(t *testing.T) {
	// NewClient over net.Pipe: the in-process transport path.
	srv, cli := net.Pipe()
	s := NewServer()
	s.Handle(MethodEcho, func(p []byte) ([]byte, error) { return p, nil })
	go s.serveConn(srv)
	c := NewClient(cli, LatencyModel{})
	defer c.Close()
	resp, err := c.SyncCall(MethodEcho, []byte("pipe"))
	if err != nil || string(resp) != "pipe" {
		t.Fatalf("%q %v", resp, err)
	}
}

func TestLargePayload(t *testing.T) {
	_, addr := startEchoServer(t)
	c, _ := Dial(addr, LatencyModel{})
	defer c.Close()
	big := make([]byte, 8<<20)
	for i := range big {
		big[i] = byte(i)
	}
	resp, err := c.SyncCall(MethodEcho, big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, big) {
		t.Fatal("large payload corrupted")
	}
}

func BenchmarkRPCSmallCalls(b *testing.B) {
	s := NewServer()
	s.Handle(MethodEcho, func(p []byte) ([]byte, error) { return p, nil })
	addr, _ := s.ListenAndServe()
	defer s.Close()
	c, _ := Dial(addr, LatencyModel{})
	defer c.Close()
	payload := []byte("0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SyncCall(MethodEcho, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPCBatchedCalls(b *testing.B) {
	// One call carrying 256 small records vs 256 calls: quantifies the
	// per-request overhead that motivates batching.
	s := NewServer()
	s.Handle(MethodEcho, func(p []byte) ([]byte, error) { return p, nil })
	addr, _ := s.ListenAndServe()
	defer s.Close()
	c, _ := Dial(addr, LatencyModel{})
	defer c.Close()
	payload := make([]byte, 16*256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SyncCall(MethodEcho, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDialRetryWaitsForServer(t *testing.T) {
	// Reserve a port, start the server shortly after the first dial fails.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close() // free it; DialRetry will fail until we rebind
	s := NewServer()
	s.Handle(MethodEcho, func(p []byte) ([]byte, error) { return p, nil })
	go func() {
		time.Sleep(150 * time.Millisecond)
		l2, err := net.Listen("tcp", addr)
		if err != nil {
			return
		}
		s.Serve(l2)
	}()
	defer s.Close()
	c, err := DialRetry(addr, LatencyModel{}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.SyncCall(MethodEcho, []byte("hi")); err != nil || string(resp) != "hi" {
		t.Fatalf("%q %v", resp, err)
	}
}

func TestDialRetryTimesOut(t *testing.T) {
	start := time.Now()
	_, err := DialRetry("127.0.0.1:1", LatencyModel{}, 200*time.Millisecond)
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("retry loop ran far past its deadline")
	}
}

func TestServerStats(t *testing.T) {
	s := NewServer()
	s.Handle(MethodEcho, func(p []byte) ([]byte, error) { return p, nil })
	addr, _ := s.ListenAndServe()
	defer s.Close()
	c, _ := Dial(addr, LatencyModel{})
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.SyncCall(MethodEcho, []byte("abcd")); err != nil {
			t.Fatal(err)
		}
	}
	c.SyncCall(Method(40), nil) // unknown method -> error counter
	st := s.Stats()
	if st.Requests[MethodEcho] != 3 {
		t.Fatalf("requests = %v", st.Requests)
	}
	if st.Errors[Method(40)] != 1 {
		t.Fatalf("errors = %v", st.Errors)
	}
	if st.BytesIn < 12 || st.BytesOut < 12 {
		t.Fatalf("bytes: %+v", st)
	}
	if st.Connections != 1 {
		t.Fatalf("connections = %d", st.Connections)
	}
}

func TestServerMaxRequestBytes(t *testing.T) {
	s := NewServer()
	s.MaxRequestBytes = 16
	s.Handle(MethodEcho, func(p []byte) ([]byte, error) { return p, nil })
	addr, _ := s.ListenAndServe()
	defer s.Close()
	c, _ := Dial(addr, LatencyModel{})
	defer c.Close()
	// Small request passes.
	if _, err := c.SyncCall(MethodEcho, []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	// Oversized request is rejected with an error, connection survives.
	if _, err := c.SyncCall(MethodEcho, make([]byte, 64)); err == nil {
		t.Fatal("oversized request should fail")
	}
	if _, err := c.SyncCall(MethodEcho, []byte("ok")); err != nil {
		t.Fatalf("connection broken after rejection: %v", err)
	}
}
