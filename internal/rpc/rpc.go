// Package rpc implements the point-to-point asynchronous communication layer
// between simulated machines — the stand-in for PyTorch RPC over TensorPipe
// (paper §3.1). It provides length-prefixed binary framing over any
// net.Conn, request multiplexing with futures, and a handler-registry
// server.
//
// Like TensorPipe, the transport is happiest with few large messages:
// every request pays framing, syscall, and scheduling overhead, which is
// what makes the paper's batching optimization (§3.2.3) matter. An optional
// latency/bandwidth model adds a deterministic per-message and per-byte
// delay to emulate a datacenter link instead of loopback.
package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pprengine/internal/mem"
	"pprengine/internal/metrics"
	"pprengine/internal/obs"
	"pprengine/internal/wire"
)

// framePool recycles frame payload buffers across requests: every payload
// readFrame returns is checked out of this pool and flows back in when its
// last holder releases it (server: after the response is written; client:
// when the caller releases its Future). A payload that is never released
// falls back to the garbage collector — safe, just not recycled.
var framePool mem.Pool

// Method identifies a server-side handler.
type Method uint8

// Well-known methods used by the graph engine. Users may register any value.
const (
	MethodGetNeighborInfos    Method = 1 // batched, CSR-compressed response
	MethodGetNeighborInfosLoL Method = 2 // batched, list-of-lists response
	MethodGetNeighborInfoOne  Method = 3 // single vertex (the "Single" ablation)
	MethodSampleOneNeighbor   Method = 4 // random-walk step
	MethodGetShardStats       Method = 5
	MethodFetchFeatures       Method = 6  // GNN feature store
	MethodAllreduce           Method = 7  // gradient sync for the case study
	MethodSampleNeighbors     Method = 8  // k-hop fanout sampling (GraphSAGE)
	MethodSSPPRQuery          Method = 9  // owner-compute query dispatch
	MethodApplyMutations      Method = 10 // resolved mutation batch (delta overlay)
	MethodGetNeighborInfosAt  Method = 11 // epoch-pinned variant of GetNeighborInfos
	MethodEcho                Method = 63
)

const (
	flagRequest  = 0x00
	flagResponse = 0x01
	flagError    = 0x02
	// flagTraced marks a request frame that carries a trace context: 16
	// extra bytes (trace ID, span ID — wire.AppendTraceContext layout)
	// between the fixed header and the payload, counted in the length
	// prefix. Only requests carry it; responses are matched to their
	// request's future, which already knows the trace. Untraced frames are
	// byte-identical to the pre-tracing protocol.
	flagTraced = 0x04

	maxFrameSize = 1 << 30
)

// Handler processes one request payload and returns the response payload.
// The payload aliases a pooled frame buffer: it is valid only for the
// duration of the call (plus the response write), so a handler that wants to
// keep request bytes must copy them. Returning the payload itself as the
// response is legal — the server writes the response before recycling the
// request buffer.
type Handler func(payload []byte) ([]byte, error)

// HandlerCtx is a Handler that also receives the request's context, which
// carries the caller's trace context when the request frame was traced.
// Handlers that fan out further RPCs pass the context on so the whole query
// stays one trace. The payload lifetime contract is Handler's.
type HandlerCtx func(ctx context.Context, payload []byte) ([]byte, error)

// HandlerBuf is a HandlerCtx whose response is a pooled buffer: the server
// writes the frame and then releases the caller's reference, so a handler
// can encode straight into a mem.Pool checkout and have it recycled the
// moment the bytes are on the wire. A nil response buffer means an empty
// response.
type HandlerBuf func(ctx context.Context, payload []byte) (*mem.Buf, error)

// LatencyModel adds synthetic delay to every message of size n bytes:
// Base + n/BytesPerSec. A zero model means raw transport speed.
type LatencyModel struct {
	Base        time.Duration
	BytesPerSec float64
}

// Delay returns the synthetic delay for a message of n bytes.
func (l LatencyModel) Delay(n int) time.Duration {
	d := l.Base
	if l.BytesPerSec > 0 {
		d += time.Duration(float64(n) / l.BytesPerSec * float64(time.Second))
	}
	return d
}

const (
	// vectoredMin is the payload size from which writeFrame switches to a
	// net.Buffers vectored write (writev on TCP) instead of copying the
	// payload into the connection's scratch buffer. Below it, one small
	// copy plus a single Write beats two syscall-visible buffers.
	vectoredMin = 4 << 10
	// writeScratchCap bounds the per-connection scratch buffer across
	// frames: a scratch grown past it is dropped after the write so one
	// oversized frame does not pin its high-water mark per connection
	// forever.
	writeScratchCap = 64 << 10
)

// writeFrame writes one frame: [len u32][reqID u64][flags u8][method u8]
// [trace?][payload], where the 16-byte trace context block is present iff
// flags has flagTraced set (and is counted in len). Large payloads are not
// copied: the header and payload go out as one vectored write, so writeFrame
// never owns (or duplicates) the payload memory.
func writeFrame(w io.Writer, buf *[]byte, reqID uint64, flags byte, method Method, sc obs.SpanContext, payload []byte) error {
	trace := 0
	if flags&flagTraced != 0 {
		trace = wire.TraceContextSize
	}
	if len(payload) >= vectoredMin {
		var hdr [14 + wire.TraceContextSize]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(10+trace+len(payload)))
		binary.LittleEndian.PutUint64(hdr[4:], reqID)
		hdr[12] = flags
		hdr[13] = byte(method)
		if trace > 0 {
			wire.AppendTraceContext(hdr[14:14:14+trace], sc.TraceID, sc.SpanID)
		}
		bufs := net.Buffers{hdr[:14+trace], payload}
		_, err := bufs.WriteTo(w)
		return err
	}
	need := 4 + 10 + trace + len(payload)
	if cap(*buf) < need {
		*buf = make([]byte, need)
	}
	b := (*buf)[:need]
	binary.LittleEndian.PutUint32(b, uint32(10+trace+len(payload)))
	binary.LittleEndian.PutUint64(b[4:], reqID)
	b[12] = flags
	b[13] = byte(method)
	if trace > 0 {
		wire.AppendTraceContext(b[14:14:14+trace], sc.TraceID, sc.SpanID)
	}
	copy(b[14+trace:], payload)
	_, err := w.Write(b)
	if cap(*buf) > writeScratchCap {
		*buf = nil
	}
	return err
}

// readFrame parses one frame from r. The returned payload is checked out of
// p with one reference owned by the caller; a nil payload means the frame
// was empty. On error no payload reference is retained.
func readFrame(p *mem.Pool, r io.Reader, hdr *[14]byte) (reqID uint64, flags byte, method Method, sc obs.SpanContext, payload *mem.Buf, err error) {
	if _, err = io.ReadFull(r, hdr[:4]); err != nil {
		return
	}
	size := binary.LittleEndian.Uint32(hdr[:4])
	if size < 10 || size > maxFrameSize {
		err = fmt.Errorf("rpc: bad frame size %d", size)
		return
	}
	if _, err = io.ReadFull(r, hdr[4:14]); err != nil {
		return
	}
	reqID = binary.LittleEndian.Uint64(hdr[4:12])
	flags = hdr[12]
	method = Method(hdr[13])
	rest := int(size - 10)
	if flags&flagTraced != 0 {
		if rest < wire.TraceContextSize {
			err = fmt.Errorf("rpc: traced frame of size %d lacks trace context", size)
			return
		}
		var tb [wire.TraceContextSize]byte
		if _, err = io.ReadFull(r, tb[:]); err != nil {
			return
		}
		sc.TraceID, sc.SpanID, _ = wire.DecodeTraceContext(tb[:])
		rest -= wire.TraceContextSize
	}
	payload, err = readPayload(p, r, rest)
	return
}

// payloadChunk bounds how much readPayload commits ahead of the bytes that
// have actually arrived.
const payloadChunk = 1 << 20

// readPayload reads exactly n payload bytes into a buffer checked out of p.
// Payloads up to one chunk — the overwhelmingly common case — come from the
// pool; larger ones are read in bounded chunks so a corrupt or hostile size
// claim (up to maxFrameSize) cannot force a huge up-front allocation: memory
// grows only as bytes actually arrive, and a truncated stream errors after
// at most one chunk of overshoot. On error the checked-out buffer has
// already been released.
func readPayload(p *mem.Pool, r io.Reader, n int) (*mem.Buf, error) {
	if n == 0 {
		return nil, nil
	}
	if n <= payloadChunk {
		buf := p.Get(n)
		if _, err := io.ReadFull(r, buf.Bytes()); err != nil {
			buf.Release()
			return nil, err
		}
		return buf, nil
	}
	var b []byte
	for len(b) < n {
		chunk := min(payloadChunk, n-len(b))
		off := len(b)
		b = append(b, make([]byte, chunk)...)
		if _, err := io.ReadFull(r, b[off:]); err != nil {
			return nil, err
		}
	}
	return mem.Wrap(b), nil
}

// Server dispatches incoming requests to registered handlers. Each accepted
// connection gets a reader goroutine, which hands every request to a worker,
// so a slow handler cannot head-of-line block the connection. Workers are
// persistent — an idle one takes the next request with its stack already
// grown — and a request that finds them all busy starts a new one: a handler
// that blocks (the query service, an epoch wait) costs a goroutine, never a
// stalled read loop.
type Server struct {
	mu       sync.RWMutex
	handlers map[Method]HandlerBuf
	tracer   atomic.Pointer[obs.Tracer]
	lis      net.Listener
	wg       sync.WaitGroup
	closed   atomic.Bool
	draining atomic.Bool
	conns    sync.Map // *net.Conn set for shutdown

	// reqWG counts in-flight request handlers only (wg also includes
	// per-connection reader goroutines, which exit only when their
	// connection closes — waiting on wg alone would never drain).
	reqWG sync.WaitGroup

	// work hands a request to a parked worker (unbuffered: a send succeeds only
	// while one is receiving); idle counts those, workers all of them.
	work    chan task
	idle    atomic.Int32
	workers sync.WaitGroup

	// MaxRequestBytes rejects request payloads larger than this when > 0
	// (a guard against misbehaving clients; responses are not limited).
	MaxRequestBytes int

	reqCounts  [256]atomic.Int64
	errCounts  [256]atomic.Int64
	bytesIn    atomic.Int64
	bytesOut   atomic.Int64
	connsTotal atomic.Int64
}

// Stats is a snapshot of server-side counters.
type Stats struct {
	Requests    map[Method]int64
	Errors      map[Method]int64
	BytesIn     int64
	BytesOut    int64
	Connections int64
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Requests:    map[Method]int64{},
		Errors:      map[Method]int64{},
		BytesIn:     s.bytesIn.Load(),
		BytesOut:    s.bytesOut.Load(),
		Connections: s.connsTotal.Load(),
	}
	for m := 0; m < 256; m++ {
		if n := s.reqCounts[m].Load(); n > 0 {
			st.Requests[Method(m)] = n
		}
		if n := s.errCounts[m].Load(); n > 0 {
			st.Errors[Method(m)] = n
		}
	}
	return st
}

// NewServer returns a server with no handlers registered.
func NewServer() *Server {
	return &Server{handlers: make(map[Method]HandlerBuf), work: make(chan task)}
}

// Handle registers h for method m, replacing any previous handler.
func (s *Server) Handle(m Method, h Handler) {
	s.HandleCtx(m, func(_ context.Context, payload []byte) ([]byte, error) {
		return h(payload)
	})
}

// HandleCtx registers a context-aware handler for method m. The context
// passed to h carries the request's trace context (obs.FromContext) when the
// client traced the call.
func (s *Server) HandleCtx(m Method, h HandlerCtx) {
	s.HandleBuf(m, func(ctx context.Context, payload []byte) (*mem.Buf, error) {
		resp, err := h(ctx, payload)
		if err != nil || resp == nil {
			return nil, err
		}
		return mem.Wrap(resp), nil
	})
}

// HandleBuf registers a handler whose response is a pooled buffer the
// server releases after the frame is written (see HandlerBuf).
func (s *Server) HandleBuf(m Method, h HandlerBuf) {
	s.mu.Lock()
	s.handlers[m] = h
	s.mu.Unlock()
}

// SetTracer attaches a tracer; the server then records one "rpc:<method>"
// span per traced request it handles, parented to the caller's span. A nil
// tracer (the default) just forwards the trace context to handlers.
func (s *Server) SetTracer(t *obs.Tracer) { s.tracer.Store(t) }

// Serve accepts connections on lis until Close. It returns after the
// listener fails (normally: after Close).
func (s *Server) Serve(lis net.Listener) {
	s.mu.Lock()
	s.lis = lis
	closed := s.closed.Load()
	s.mu.Unlock()
	if closed {
		lis.Close()
		return
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		// Register under the lock so Close cannot start waiting between
		// the accept and the wg.Add (Add must not race with Wait at zero).
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns.Store(conn, struct{}{})
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.conns.Delete(conn)
		}()
	}
}

// ListenAndServe listens on a fresh loopback TCP port and serves in a
// background goroutine. It returns the address clients should dial.
func (s *Server) ListenAndServe() (addr string, err error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go s.Serve(lis)
	return lis.Addr().String(), nil
}

// srvConn is one accepted connection's write half: responses are serialized
// on the connection anyway, so whoever holds wmu also owns the one write
// buffer writeFrame reuses across requests.
type srvConn struct {
	conn net.Conn
	wmu  sync.Mutex
	wbuf []byte
}

func (c *srvConn) reply(reqID uint64, flags byte, m Method, payload []byte) {
	c.wmu.Lock()
	writeFrame(c.conn, &c.wbuf, reqID, flags, m, obs.SpanContext{}, payload)
	c.wmu.Unlock()
}

// task is one request on its way to a worker.
type task struct {
	c       *srvConn
	reqID   uint64
	method  Method
	sc      obs.SpanContext
	payload *mem.Buf
	h       HandlerBuf
	counted bool // joined reqWG
}

// refuse is the handler of a request the server will not serve.
func refuse(format string, args ...any) HandlerBuf {
	err := fmt.Errorf(format, args...)
	return func(context.Context, []byte) (*mem.Buf, error) { return nil, err }
}

// maxIdleWorkers bounds the parked workers a server keeps; a burst grows the
// pool as far as it must and the surplus exits as it drains.
const maxIdleWorkers = 16

// dispatch hands t to a parked worker, or starts one when all are busy.
func (s *Server) dispatch(t task) {
	s.wg.Add(1)
	select {
	case s.work <- t:
	default:
		s.workers.Add(1)
		go s.worker(t)
	}
}

func (s *Server) worker(t task) {
	defer s.workers.Done()
	for ok := true; ok; {
		s.run(t)
		if s.idle.Add(1) > maxIdleWorkers {
			s.idle.Add(-1)
			return
		}
		t, ok = <-s.work // closed by teardown
		s.idle.Add(-1)
	}
}

// teardown closes every connection, waits out the readers and requests in
// flight, then ends the parked workers: work's only senders, the readers, are gone.
func (s *Server) teardown() {
	s.conns.Range(func(k, _ any) bool {
		k.(net.Conn).Close()
		return true
	})
	s.wg.Wait()
	close(s.work)
	s.workers.Wait()
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	s.connsTotal.Add(1)
	c := &srvConn{conn: conn}
	var hdr [14]byte
	for {
		reqID, flags, method, sc, payload, err := readFrame(&framePool, conn, &hdr)
		if err != nil {
			return
		}
		if flags&^flagTraced != flagRequest {
			payload.Release()
			continue // protocol misuse; drop
		}
		s.reqCounts[method].Add(1)
		s.bytesIn.Add(int64(payload.Len()))
		// The draining check and reqWG.Add share the read lock so they cannot
		// interleave with Shutdown's write-locked draining flip: once Shutdown
		// starts waiting on reqWG, no new handler can join it.
		s.mu.RLock()
		h := s.handlers[method]
		draining := s.draining.Load()
		if !draining {
			s.reqWG.Add(1)
		}
		s.mu.RUnlock()
		t := task{c: c, reqID: reqID, method: method, sc: sc, payload: payload, h: h, counted: !draining}
		switch max := s.MaxRequestBytes; {
		case draining:
			t.h = refuse("rpc: server shutting down")
		case max > 0 && payload.Len() > max:
			t.h = refuse("rpc: request of %d bytes exceeds server limit %d", payload.Len(), max)
		case h == nil:
			t.h = refuse("rpc: no handler for method %d", method)
		}
		s.dispatch(t)
	}
}

func (s *Server) run(t task) {
	defer s.wg.Done()
	if t.counted {
		defer s.reqWG.Done()
	}
	// The request buffer is recycled once the response is on the wire — not
	// before, because a handler may legally return (a view of) the request
	// payload as its response.
	defer t.payload.Release()
	// Traced requests get a server-side span; the handler context carries
	// that span (or the remote one when no tracer is attached), so
	// handler-issued RPCs extend the same trace.
	ctx := context.Background()
	var span obs.ActiveSpan
	if t.sc.Valid() {
		if tr := s.tracer.Load(); tr != nil {
			span = tr.StartSpan(t.sc, "rpc:"+t.method.name())
			ctx = obs.ContextWith(ctx, span.Context())
		} else {
			ctx = obs.ContextWith(ctx, t.sc)
		}
	}
	resp, err := t.h(ctx, t.payload.Bytes())
	span.SetErr(err != nil)
	span.End()
	if err != nil {
		resp.Release()
		s.errCounts[t.method].Add(1)
		t.c.reply(t.reqID, flagError, t.method, []byte(err.Error()))
		return
	}
	s.bytesOut.Add(int64(resp.Len()))
	t.c.reply(t.reqID, flagResponse, t.method, resp.Bytes())
	resp.Release()
}

// name returns a stable label for well-known methods (the numeric value for
// others) without allocating on the known path.
func (m Method) name() string {
	switch m {
	case MethodGetNeighborInfos:
		return "GetNeighborInfos"
	case MethodGetNeighborInfosLoL:
		return "GetNeighborInfosLoL"
	case MethodGetNeighborInfoOne:
		return "GetNeighborInfoOne"
	case MethodSampleOneNeighbor:
		return "SampleOneNeighbor"
	case MethodGetShardStats:
		return "GetShardStats"
	case MethodFetchFeatures:
		return "FetchFeatures"
	case MethodAllreduce:
		return "Allreduce"
	case MethodSampleNeighbors:
		return "SampleNeighbors"
	case MethodSSPPRQuery:
		return "SSPPRQuery"
	case MethodApplyMutations:
		return "ApplyMutations"
	case MethodGetNeighborInfosAt:
		return "GetNeighborInfosAt"
	case MethodEcho:
		return "Echo"
	}
	return fmt.Sprintf("method-%d", m)
}

// Close stops accepting, closes all connections, and waits for in-flight
// handlers to finish.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	// Taking the lock here flushes any in-flight connection registration
	// in Serve; new ones observe closed and bail out.
	s.mu.Lock()
	lis := s.lis
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	s.teardown()
}

// Shutdown drains the server gracefully: it stops accepting connections,
// rejects requests arriving on existing connections (clients get an error
// response instead of a hang), waits for in-flight handlers up to ctx, then
// force-closes the remaining connections. Returns ctx.Err() when the drain
// deadline expired before every handler finished, nil on a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.closed.Swap(true) {
		return nil
	}
	// Flip draining under the write lock: serveConn reads it (and joins
	// reqWG) under the read lock, so after this no new handler can start.
	s.mu.Lock()
	s.draining.Store(true)
	lis := s.lis
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	drained := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.teardown()
	return err
}

// Completion is the one-shot "the result is readable" signal behind every
// pending result of the fetch chain (Future here, ha.CallFuture, agg.Ticket):
// a consumer blocks on Done or registers one hook. The hook rule, for every
// layer: a hook runs exactly once, on the goroutine that completes the result
// — normally a connection's read loop — so it must not block, must not take a
// lock that is held while a call is issued, and does work bounded by the
// response it consumes. The zero value is pending.
type Completion struct {
	mu   sync.Mutex
	done bool
	hook func()
	ch   chan struct{} // made by the first blocking waiter
}

var closedChan = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// Done returns a channel that is closed once the result is readable.
func (c *Completion) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return closedChan // also inside the hook, where c.ch is still open
	}
	if c.ch == nil {
		c.ch = make(chan struct{})
	}
	return c.ch
}

// OnDone registers fn as the completion hook (at most one per result). It
// never runs fn itself: on a result already readable it reports false, and
// the caller runs fn where that is safe.
func (c *Completion) OnDone(fn func()) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return false
	}
	c.hook = fn
	return true
}

// Complete publishes the result, which the owner wrote before the call.
// Exactly once.
func (c *Completion) Complete() {
	c.mu.Lock()
	c.done = true
	hook, ch := c.hook, c.ch
	c.hook = nil
	c.mu.Unlock()
	if hook != nil {
		hook()
	}
	if ch != nil {
		close(ch)
	}
}

// Future is the pending result of an asynchronous Call. It is safe for any
// number of goroutines to Wait on the same future concurrently; all of them
// observe the same result once it resolves.
type Future struct {
	id      uint64
	reqSize int
	c       *Client // issuing client; nil for a Failed future
	sig     Completion
	buf     *mem.Buf // pooled backing of payload; nil for empty/error results
	lease   mem.Lease
	payload []byte
	err     error
}

// Failed returns an already-resolved future: a call that never reached the wire.
func Failed(err error) *Future {
	f := &Future{}
	f.complete(nil, err)
	return f
}

// complete resolves the future. Completion must happen exactly once; the
// client guarantees this by routing every completion path through
// pending.LoadAndDelete on the request ID.
func (f *Future) complete(buf *mem.Buf, err error) {
	// Published by the state transition below, which a concurrent Release
	// synchronizes with.
	f.buf, f.payload, f.err = buf, buf.Bytes(), err
	if !f.lease.Resolve() {
		// Abandoned while in flight: nobody will read the payload.
		f.buf, f.payload = nil, nil
		buf.Release()
		if err == nil {
			f.err = ErrAbandoned
		}
	}
	f.sig.Complete()
}

// ErrAbandoned is what a late waiter of an abandoned future observes.
var ErrAbandoned = errors.New("rpc: call released before its response arrived")

// Release returns the response payload's pooled buffer for reuse. It is the
// owner's declaration that the payload — and every view decoded from it —
// will not be touched again. Release is idempotent and optional (an
// unreleased payload just falls back to the garbage collector). Releasing a
// future that has not resolved abandons it: a response that still arrives is
// recycled on the spot, so a caller that gave up — a cancelled wait racing
// the response, a hedge's losing attempt — never strands a buffer.
func (f *Future) Release() {
	if f.lease.Release() {
		f.buf.Release()
	}
}

// Done returns a channel that is closed when the response (or failure) is
// available, for use in select loops alongside other events.
func (f *Future) Done() <-chan struct{} { return f.sig.Done() }

// OnDone registers the future's completion hook (see Completion), run by
// whoever completes it: the read loop, Cancel, the connection's death.
func (f *Future) OnDone(fn func()) bool { return f.sig.OnDone(fn) }

// Wait blocks until the response arrives and returns it. Wait may be called
// multiple times and from multiple goroutines; every call returns the same
// result.
func (f *Future) Wait() ([]byte, error) {
	<-f.sig.Done()
	return f.payload, f.err
}

// WaitCtx is Wait with a context: it returns ctx.Err() as soon as ctx is
// done, and Cancels the call. Cancellation is resolved here, on the wait
// path, rather than by a per-call watcher goroutine — a client with thousands
// of calls in flight holds zero goroutines for them.
func (f *Future) WaitCtx(ctx context.Context) ([]byte, error) {
	select {
	case <-f.sig.Done():
		return f.payload, f.err
	case <-ctx.Done():
		f.Cancel(ctx.Err())
		return nil, ctx.Err()
	}
}

// Cancel fails the call with err if it is still pending: its pending-table
// slot is freed, every waiter and the hook observe err, and a late response
// is dropped. A racing response or connection death resolves it only once.
func (f *Future) Cancel(err error) {
	if f.c != nil {
		f.c.fail(f.id, err)
	}
}

// Client is a connection to one remote server, safe for concurrent use.
// Responses are demultiplexed to futures by request ID, so many calls can be
// in flight at once — the engine overlaps remote fetches with local work by
// issuing Calls early and Waiting late (paper's "Overlap" optimization).
type Client struct {
	conn    net.Conn
	wmu     sync.Mutex
	wbuf    []byte
	nextID  atomic.Uint64
	pending sync.Map // reqID -> *Future
	lat     LatencyModel
	closed  atomic.Bool // Close was called
	dead    atomic.Bool // read loop exited; the connection is unusable

	// Stats counts traffic for the experiment harness.
	RequestsSent  atomic.Int64
	BytesSent     atomic.Int64
	BytesReceived atomic.Int64
	// Retries counts backoff rounds taken by CallRetry on this client.
	Retries atomic.Int64
}

// Dial connects to a server address with the given synthetic latency model.
func Dial(addr string, lat LatencyModel) (*Client, error) {
	return DialCtx(context.Background(), addr, lat)
}

// DialCtx is Dial bounded by a context: connection establishment is
// abandoned when ctx is done.
func DialCtx(ctx context.Context, addr string, lat LatencyModel) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return NewClient(conn, lat), nil
}

// RetryPolicy bounds the exponential backoff shared by CallRetry and
// DialRetryCtx. The zero value is usable: it means 4 attempts, 50ms base
// backoff, 1s backoff cap.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// <= 0 means 4.
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; each further retry
	// doubles it. <= 0 means 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling. <= 0 means 1s.
	MaxBackoff time.Duration
	// OnRetry, when non-nil, is invoked before each backoff sleep with the
	// 1-based retry number and the error that caused it.
	OnRetry func(retry int, err error)
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts <= 0 {
		return 4
	}
	return p.MaxAttempts
}

// Backoff returns the sleep before retry number attempt (0-based):
// BaseBackoff << attempt, capped at MaxBackoff.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = time.Second
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// sleepCtx sleeps for d, capped so the sleep never overshoots ctx's
// deadline, and returns ctx.Err() as soon as ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < d {
			if rem <= 0 {
				// The deadline already passed; ctx.Err() may still be nil for
				// a short window before the context's own timer fires, so
				// report the expiry directly rather than spinning.
				if err := ctx.Err(); err != nil {
					return err
				}
				return context.DeadlineExceeded
			}
			d = rem
		}
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// DialRetry dials addr, retrying with backoff until timeout — for
// deployment bootstrap, where peer servers start in arbitrary order.
func DialRetry(addr string, lat LatencyModel, timeout time.Duration) (*Client, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return DialRetryCtx(ctx, addr, lat, RetryPolicy{})
}

// DialRetryCtx dials addr with bounded exponential backoff until ctx is
// done. Unlike CallRetry it has no attempt bound: bootstrap keeps trying for
// as long as the caller's context allows.
func DialRetryCtx(ctx context.Context, addr string, lat LatencyModel, p RetryPolicy) (*Client, error) {
	for attempt := 0; ; attempt++ {
		c, err := DialCtx(ctx, addr, lat)
		if err == nil {
			return c, nil
		}
		if attempt > 0 && p.OnRetry != nil {
			p.OnRetry(attempt, err)
		}
		if serr := sleepCtx(ctx, p.Backoff(attempt)); serr != nil {
			return nil, fmt.Errorf("rpc: dial %s: gave up (%w): %w", addr, serr, err)
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("rpc: dial %s: gave up (%w): %w", addr, ctx.Err(), err)
		}
	}
}

// NewClient wraps an established connection (e.g. one end of net.Pipe for
// in-process transports).
func NewClient(conn net.Conn, lat LatencyModel) *Client {
	c := &Client{conn: conn, lat: lat}
	go c.readLoop()
	return c
}

// ErrClientClosed is returned by calls issued after the client was closed or
// its connection died, and by pending calls when that happens mid-flight.
var ErrClientClosed = errors.New("rpc: client closed")

// RemoteError is a failure reported by the remote handler, as opposed to a
// transport failure. Remote errors are not transient: retrying the identical
// request would fail the same way.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "rpc: remote error: " + e.Msg }

// Transient reports whether err is a transport-level failure that a retry
// (possibly on a fresh connection) could plausibly cure. Remote handler
// errors and context cancellation/expiry are permanent.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var re *RemoteError
	return !errors.As(err, &re)
}

func (c *Client) readLoop() {
	var hdr [14]byte
	for {
		reqID, flags, _, _, payload, err := readFrame(&framePool, c.conn, &hdr)
		if err != nil {
			// Connection gone: mark the client dead so new Calls fail fast,
			// then fail every pending call exactly once.
			c.dead.Store(true)
			c.failPending()
			return
		}
		v, ok := c.pending.LoadAndDelete(reqID)
		if !ok {
			// Cancelled or unknown request; drop the late response and
			// recycle its buffer immediately — no waiter will.
			payload.Release()
			continue
		}
		f := v.(*Future)
		n := payload.Len()
		c.BytesReceived.Add(int64(n))
		metrics.WireBytesReceived.Inc(int64(n))
		var res *mem.Buf
		var rerr error
		if flags == flagError {
			rerr = &RemoteError{Msg: string(payload.Bytes())}
			payload.Release()
		} else {
			res = payload
		}
		if d := c.lat.Delay(f.reqSize + n); d > 0 {
			// The synthetic latency model charges both legs to the waiter,
			// not the read loop, so other responses are not delayed.
			go func() {
				time.Sleep(d)
				f.complete(res, rerr)
			}()
		} else {
			f.complete(res, rerr)
		}
	}
}

// failPending resolves every registered future with ErrClientClosed.
func (c *Client) failPending() {
	c.pending.Range(func(k, _ any) bool {
		c.fail(k.(uint64), ErrClientClosed)
		return true
	})
}

// fail completes the future registered under id with err, if it is still
// pending. LoadAndDelete makes completion exactly-once even when a response,
// a cancellation, and a connection death race.
func (c *Client) fail(id uint64, err error) {
	if v, ok := c.pending.LoadAndDelete(id); ok {
		v.(*Future).complete(nil, err)
	}
}

// Call sends a request and returns a Future for its response. Calls issued
// after the client closed (or its read loop died) fail immediately with
// ErrClientClosed.
func (c *Client) Call(m Method, payload []byte) *Future {
	return c.CallCtx(context.Background(), m, payload)
}

// CallCtx is Call with cancellation: a ctx that is already done fails the
// call immediately, and a later WaitCtx observes cancellation by failing the
// pending slot itself, so issuing N calls costs N pending-map entries and no
// goroutine. The request still reaches the server — cancellation stops the
// waiting, not the remote work. A sampled trace context on ctx rides the
// request frame. Hook-driven consumers pass a context that never ends, take
// the result through OnDone and bound the call with Cancel.
func (c *Client) CallCtx(ctx context.Context, m Method, payload []byte) *Future {
	if err := ctx.Err(); err != nil {
		return Failed(err)
	}
	if c.closed.Load() || c.dead.Load() {
		return Failed(ErrClientClosed)
	}
	f := &Future{id: c.nextID.Add(1), reqSize: len(payload), c: c}
	flags := byte(flagRequest)
	sc := obs.FromContext(ctx)
	if sc.Valid() {
		flags |= flagTraced
	}
	c.pending.Store(f.id, f)
	c.wmu.Lock()
	err := writeFrame(c.conn, &c.wbuf, f.id, flags, m, sc, payload)
	c.wmu.Unlock()
	if err != nil {
		c.fail(f.id, err)
		return f
	}
	if c.closed.Load() || c.dead.Load() {
		// The read loop may have died between registration and the write;
		// its sweep can miss a future stored after the sweep began, so
		// re-check and fail our own slot (fail is exactly-once).
		c.fail(f.id, ErrClientClosed)
		return f
	}
	c.RequestsSent.Add(1)
	c.BytesSent.Add(int64(len(payload)))
	metrics.WireRequests.Inc(1)
	metrics.WireBytesSent.Inc(int64(len(payload)))
	return f
}

// Healthy reports whether the client can still issue calls: it has not been
// closed and its read loop is alive. A false return means every future call
// would fail fast with ErrClientClosed — callers holding long-lived client
// references (failover endpoints) use this to decide when to re-dial.
func (c *Client) Healthy() bool { return !c.closed.Load() && !c.dead.Load() }

// SyncCall is Call followed by Wait.
func (c *Client) SyncCall(m Method, payload []byte) ([]byte, error) {
	return c.SyncCallCtx(context.Background(), m, payload)
}

// SyncCallCtx is CallCtx followed by WaitCtx. The returned payload is an
// ordinary heap copy: the convenience API stays release-free (the pooled
// frame buffer is recycled here), and hot paths that care about the copy
// hold the Future directly.
func (c *Client) SyncCallCtx(ctx context.Context, m Method, payload []byte) ([]byte, error) {
	f := c.CallCtx(ctx, m, payload)
	p, err := f.WaitCtx(ctx)
	if err != nil {
		f.Release()
		return nil, err
	}
	out := append([]byte(nil), p...)
	f.Release()
	return out, nil
}

// CallRetry issues the request up to p.MaxAttempts times with bounded
// exponential backoff between attempts, retrying only transient transport
// errors (see Transient) and never sleeping past ctx's deadline. The request
// must be idempotent. This generalizes the backoff loop DialRetry uses for
// bootstrap.
func (c *Client) CallRetry(ctx context.Context, m Method, payload []byte, p RetryPolicy) ([]byte, error) {
	attempts := p.attempts()
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.Retries.Add(1)
			metrics.RPCRetries.Inc(1)
			if p.OnRetry != nil {
				p.OnRetry(a, lastErr)
			}
			if err := sleepCtx(ctx, p.Backoff(a-1)); err != nil {
				return nil, fmt.Errorf("rpc: call method %d: %w (last error: %v)", m, err, lastErr)
			}
		}
		resp, err := c.SyncCallCtx(ctx, m, payload)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !Transient(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("rpc: call method %d: gave up after %d attempts: %w", m, attempts, lastErr)
}

// Close tears down the connection; pending calls fail.
func (c *Client) Close() {
	if c.closed.Swap(true) {
		return
	}
	c.conn.Close()
}
