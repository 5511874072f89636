// Package core implements the paper's primary contribution: the distributed
// graph engine. It contains
//
//   - the Graph Storage server (the per-machine RPC endpoint over a shard),
//   - DistGraphStorage, the per-compute-process handle that unifies local
//     shared-memory access with remote RPC access behind one API
//     (get_neighbor_infos / sample_one_neighbor, Figure 4),
//   - the SSPPR state object with its pop/push operators over the parallel
//     map (§3.3),
//   - the distributed SSPPR driver implementing the batched, compressed,
//     overlapped iteration loop (§3.2.3),
//   - the tensor-based distributed Forward Push baseline ("PyTorch Tensor"),
//   - the distributed Random Walk primitive.
package core

import (
	"context"
	"errors"
	"time"

	"pprengine/internal/admit"
	"pprengine/internal/agg"
	"pprengine/internal/rpc"
)

// FetchMode selects the RPC request strategy — the axis of the Table 3
// ablation.
type FetchMode int

const (
	// FetchSingle issues one request per activated vertex (the "Single"
	// baseline; no batching).
	FetchSingle FetchMode = iota
	// FetchBatch batches per destination shard but ships responses in the
	// uncompressed list-of-lists format ("+Batch").
	FetchBatch
	// FetchBatchCompress batches and compresses responses into CSR form
	// ("+Compress"). This is the engine default.
	FetchBatchCompress
)

// String returns the ablation row label for the mode.
func (m FetchMode) String() string {
	switch m {
	case FetchSingle:
		return "Single"
	case FetchBatch:
		return "+Batch"
	case FetchBatchCompress:
		return "+Compress"
	default:
		return "FetchMode(?)"
	}
}

// Config controls one SSPPR computation.
type Config struct {
	// Alpha is the teleport probability (paper default 0.462).
	Alpha float64
	// Eps is the residual threshold (paper default 1e-6).
	Eps float64
	// Mode is the RPC fetch strategy.
	Mode FetchMode
	// Overlap overlaps local fetch+push with in-flight remote fetches
	// ("+Overlap").
	Overlap bool
	// QueryTimeout bounds one query's wall-clock time: when > 0 the driver
	// derives a deadline from it (on top of whatever deadline the caller's
	// context already carries) and the query aborts with
	// context.DeadlineExceeded once it expires. Zero means no per-query
	// deadline beyond the caller's context.
	QueryTimeout time.Duration
	// Retry enables bounded retries of transient transport failures on the
	// sequential FetchSingle path (the batched modes share one in-flight
	// future per shard and do not retry). Retry.MaxAttempts == 0 disables
	// retries; see rpc.RetryPolicy for the backoff parameters.
	Retry rpc.RetryPolicy
	// CacheBytes is the byte budget for the machine-wide dynamic cache of
	// remote neighbor rows (internal/cache): decoded rows are kept in a
	// sharded LRU and concurrent fetches of the same vertex are coalesced
	// into one RPC. 0 (the default) disables the cache, preserving the
	// paper's ablation numbers exactly. The cache itself lives on
	// DistGraphStorage (it is shared machine state, like the shard);
	// cluster/deploy construction reads this knob to build and attach it.
	CacheBytes int64
	// AggWindow, when > 0 (or when AggRows > 0), enables the cross-query
	// RPC fetch aggregator (internal/agg): concurrent queries' remote
	// fetches bound for the same destination shard are coalesced into one
	// wire request, flushed immediately when the link is idle and otherwise
	// after this window. 0/0 (the default) disables aggregation, preserving
	// the per-query RPC behavior — and every ablation number — exactly.
	// Like CacheBytes, the knob is read at construction time (cluster /
	// deploy) to build machine-shared aggregators.
	AggWindow time.Duration
	// AggRows caps the rows of one aggregated request: reaching it flushes
	// the pending batch at once. Setting only AggRows also enables
	// aggregation (the window falls back to the aggregator default).
	AggRows int
	// FeatCacheBytes is the byte budget for the machine-wide cache of
	// remote feature rows (cache.FeatureCache) backing the GNN serving
	// path. 0 (the default) disables it. Like CacheBytes, the knob is read
	// at construction time (cluster / deploy) to build and attach the
	// machine-shared cache.
	FeatCacheBytes int64
	// FeatAdmitMass is the feature cache's admission threshold: a fetched
	// row is cached only when the highest PPR mass among the queries that
	// requested it reaches this value (Kaler et al.'s probabilistic
	// caching). 0 admits every fetched row. Ignored when FeatCacheBytes
	// is 0. Feature-fetch aggregation shares the AggWindow/AggRows knobs.
	FeatAdmitMass float64
	// DeterministicPop sorts each Pop round's activated vertices by
	// (shard, local) before pushing, and makes every push claim all of its
	// rows before applying any neighbor delta. Without it rows are pushed in
	// the activated set's insertion order, each claim interleaved with its
	// neighbor applies: an order — and with it a float accumulation order and
	// scores at round-off level — that the baseline engine cannot reproduce
	// (its Go maps drain in random order, its forked pushes claim first). With
	// it scores are bitwise identical across engines and runs, which is how
	// tests isolate transport changes (e.g. fetch aggregation) from engine
	// noise. Default off: the sort costs O(k log k) per round, and
	// claims-first order converges in measurably more pushes.
	DeterministicPop bool
	// ZeroCopy routes remote fetches through the zero-copy hot path: RPC
	// response payloads stay in pooled buffers, decoders return views that
	// alias them (or land in a reusable arena), and each machine decodes a
	// remote row exactly once — the aggregator demux and the cache
	// single-flight fill share the one decoded representation. Buffers return
	// to their pool when the consuming future is released (DESIGN.md §5h).
	// Off, every response is copy-decoded onto the heap — the pre-pooling
	// allocation profile, kept as the -exp hotpath ablation baseline.
	// DefaultConfig enables it.
	ZeroCopy bool
	// Tenant identifies the quota bucket this query draws from when the
	// machine runs an admission controller ("" is the shared untenanted
	// bucket). Threaded from pprquery -tenant / pprserve /infer requests.
	Tenant string
	// Priority orders the admission wait queue: higher runs first, and a
	// higher-priority arrival may evict a lower-priority waiter from a full
	// queue. 0 is the default band.
	Priority int
	// AdmitMaxInFlight, when > 0, enables the admission controller
	// (internal/admit): at most this many queries execute concurrently on
	// the machine, excess queries wait in a bounded priority queue, and
	// queries that cannot meet their deadline — or exceed their tenant's
	// quota — are shed early with a typed admit.ErrShed instead of timing
	// out late. Like CacheBytes, the knob is read at construction time
	// (cluster / deploy) to build the machine-shared controller; 0 (the
	// default) disables admission entirely.
	AdmitMaxInFlight int
	// AdmitMaxQueue bounds the admission wait queue (0 = controller default
	// 64). Ignored when AdmitMaxInFlight is 0.
	AdmitMaxQueue int
	// AdmitTenantRate / AdmitTenantBurst give every tenant a token bucket of
	// that sustained rate (queries/second) and burst capacity. Rate 0
	// disables per-tenant quotas; burst 0 defaults to max(rate, 1).
	AdmitTenantRate  float64
	AdmitTenantBurst float64
	// Hedge, when replication is on, routes remote fetches through a hedger
	// (admit.Hedger): a fetch whose primary replica has not answered within
	// a latency-percentile-derived delay is also issued to a healthy replica
	// and the first response wins. Construction-time knob like the admission
	// fields. HedgeDelay, when > 0, fixes the hedge delay instead of
	// deriving it from observed primary latencies.
	Hedge      bool
	HedgeDelay time.Duration
	// PinnedEpoch pins every fetch of the query to one mutation epoch of the
	// delta tier (internal/delta): local reads, halo rows, cached rows, and
	// remote fetches all resolve the graph as of this epoch, so a query runs
	// against one consistent view while mutations land concurrently. 0 — the
	// default — reads the static base graph through the legacy paths,
	// byte-for-byte. The driver normally manages pinning itself (the admission
	// grant's epoch, else the store's current epoch, pinned for the query's
	// lifetime); a caller setting this field owns the pin. Epoch-pinned remote
	// fetches require FetchBatchCompress (the CSR hot path) — the Single/LoL
	// ablation baselines predate the mutation tier and reject a non-zero
	// epoch.
	PinnedEpoch uint64
	// IncrementalExact forces the incremental SSPPR path
	// (RunSSPPRIncrementalTopK) to fall back to a full recompute whenever the
	// cached query state overlaps the mutated-vertex set, instead of seeding a
	// corrected re-push. The footprint-disjoint fast path is bitwise-identical
	// to a fresh run either way; with this knob the overlapping case is too
	// (at full-run cost), which is how tests pin down exactness. Default off:
	// overlapping sources re-push from the mutation frontier, which converges
	// to the same eps-approximation guarantee much faster.
	IncrementalExact bool
	// TensorDispatch simulates the per-operator dispatch latency of a
	// Python tensor library, charged by the tensor-based baselines for
	// every small tensor operation they issue (masking, gather, scatter,
	// ... — roughly 6 ops per pushed row). Real PyTorch CPU dispatch costs
	// ~2-10µs per op; compiled Go has none, so without this term the
	// baseline would be unrealistically fast relative to the system the
	// paper measured. Zero disables the model. Ignored by the engine.
	TensorDispatch time.Duration
}

// DefaultConfig returns the paper's default configuration.
func DefaultConfig() Config {
	return Config{
		Alpha:    0.462,
		Eps:      1e-6,
		Mode:     FetchBatchCompress,
		Overlap:  true,
		ZeroCopy: true,
	}
}

// AggEnabled reports whether the config asks for cross-query fetch
// aggregation.
func (c *Config) AggEnabled() bool { return c.AggWindow > 0 || c.AggRows > 0 }

// AdmitEnabled reports whether the config asks for query admission control.
func (c *Config) AdmitEnabled() bool { return c.AdmitMaxInFlight > 0 }

// AdmitOptions converts the config's admission knobs to admit.Options.
func (c *Config) AdmitOptions() admit.Options {
	return admit.Options{
		MaxInFlight: c.AdmitMaxInFlight,
		MaxQueue:    c.AdmitMaxQueue,
		TenantRate:  c.AdmitTenantRate,
		TenantBurst: c.AdmitTenantBurst,
	}
}

// HedgeOptions converts the config's hedging knobs to admit.HedgeOptions.
func (c *Config) HedgeOptions() admit.HedgeOptions {
	return admit.HedgeOptions{Delay: c.HedgeDelay}
}

// AggOptions converts the config's aggregation knobs to agg.Options.
func (c *Config) AggOptions() agg.Options {
	return agg.Options{Window: c.AggWindow, MaxRows: c.AggRows, ZeroCopy: c.ZeroCopy}
}

// TensorBaselineConfig is DefaultConfig plus the tensor-library dispatch
// model at a PyTorch-CPU-calibrated 5µs per small operation. Experiments use
// it for the "PyTorch Tensor" competitor.
func TensorBaselineConfig() Config {
	c := DefaultConfig()
	c.TensorDispatch = 5 * time.Microsecond
	return c
}

// applyQueryTimeout derives the query's context: the caller's ctx plus the
// config's per-query deadline when one is set.
func (c *Config) applyQueryTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.QueryTimeout > 0 {
		return context.WithTimeout(ctx, c.QueryTimeout)
	}
	return ctx, func() {}
}

// isCtxErr reports whether err is a cancellation or deadline expiry —
// anywhere in its chain, so wrapped fetch errors count too.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// dispatch burns CPU for n simulated tensor-op dispatches. A busy spin, not
// a sleep: the interpreter overhead being modeled is real CPU work that
// contends with everything else on the machine.
func (c *Config) dispatch(n int) {
	if c.TensorDispatch <= 0 || n <= 0 {
		return
	}
	deadline := time.Now().Add(time.Duration(n) * c.TensorDispatch)
	for time.Now().Before(deadline) {
	}
}
