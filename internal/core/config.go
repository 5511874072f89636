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

// Config controls one SSPPR computation — per-query parameters only. What a
// machine builds once and every query shares (cache and aggregator budgets,
// admission limits, hedging) is stack.Config.
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
	// ZeroCopy view-decodes the responses of requests this query issues
	// itself: the payload stays in its pooled buffer, the decoded rows alias
	// it (or land in a reusable arena), and the buffer returns to its pool
	// when the consuming future is released (DESIGN.md "Fetch chain"). Off,
	// such a response is copy-decoded onto the heap — the pre-pooling
	// allocation profile, kept as the -exp hotpath ablation baseline. Requests
	// merged across queries follow the machine's setting instead.
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
