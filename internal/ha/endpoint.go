package ha

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"pprengine/internal/rpc"
)

// Endpoint is one serving process for one shard: an address plus a live RPC
// client that is re-dialed after the connection dies (a crashed machine's
// client is unusable even after the machine recovers, so failback needs a
// fresh connection). Endpoints hosted by the same machine share a health key,
// so a dead machine opens one breaker covering all its shards at once.
type Endpoint struct {
	// Machine is the hosting machine's index, or -1 when unknown (file-based
	// deployments identify peers by address only).
	Machine int
	// Shard is the shard this endpoint serves.
	Shard int32
	// Addr is the dialable address.
	Addr string
	// key groups endpoints that share failure fate (same hosting machine).
	key string

	lat rpc.LatencyModel

	mu     sync.Mutex                 // serializes dials and retirement
	client atomic.Pointer[rpc.Client] // read lock-free on the request path
	closed bool
	// Counters of retired (dead, re-dialed) clients, so NetStats is
	// cumulative across reconnects.
	prevReqs, prevSent, prevRecv int64
}

// NewEndpoint describes one serving process. machine may be -1; key groups
// endpoints by hosting machine ("" means the address is the key).
func NewEndpoint(machine int, shard int32, addr, key string, lat rpc.LatencyModel) *Endpoint {
	if key == "" {
		key = addr
	}
	return &Endpoint{Machine: machine, Shard: shard, Addr: addr, key: key, lat: lat}
}

// Key returns the health-tracking key (hosting machine or address).
func (e *Endpoint) Key() string { return e.key }

// live is the request path's lock-free fast path; nil: Client must (re-)dial.
func (e *Endpoint) live() *rpc.Client {
	if c := e.client.Load(); c != nil && c.Healthy() {
		return c
	}
	return nil
}

// errEndpointClosed keeps a failover racing Close from leaving a connection behind.
var errEndpointClosed = errors.New("ha: endpoint closed")

// Client returns a live client for the endpoint, dialing (or re-dialing a
// dead connection) as needed. ctx bounds the dial.
func (e *Endpoint) Client(ctx context.Context) (*rpc.Client, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c := e.live(); c != nil {
		return c, nil
	}
	if e.closed {
		return nil, errEndpointClosed
	}
	e.retireLocked()
	c, err := rpc.DialCtx(ctx, e.Addr, e.lat)
	if err != nil {
		return nil, err
	}
	e.client.Store(c)
	return c, nil
}

// retireLocked accumulates and closes the current client. Caller holds e.mu.
func (e *Endpoint) retireLocked() {
	c := e.client.Swap(nil)
	if c == nil {
		return
	}
	e.prevReqs += c.RequestsSent.Load()
	e.prevSent += c.BytesSent.Load()
	e.prevRecv += c.BytesReceived.Load()
	c.Close()
}

// NetStats returns cumulative client-side traffic through this endpoint,
// including retired connections.
func (e *Endpoint) NetStats() (requests, bytesSent, bytesReceived int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	requests, bytesSent, bytesReceived = e.prevReqs, e.prevSent, e.prevRecv
	if c := e.client.Load(); c != nil {
		requests += c.RequestsSent.Load()
		bytesSent += c.BytesSent.Load()
		bytesReceived += c.BytesReceived.Load()
	}
	return
}

// Close tears down the current connection; later dials fail.
func (e *Endpoint) Close() {
	e.mu.Lock()
	e.closed = true
	e.retireLocked()
	e.mu.Unlock()
}

// dialTimeout bounds endpoint dials issued from the request path: a dial to
// a dead-but-routable address must not stall a failover attempt for long.
const dialTimeout = 2 * time.Second
