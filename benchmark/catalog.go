package main

import "time"

// The catalogue is the single list of what the benchmark measures. Printing,
// the smoke test, compare and BENCHMARK.json (checked by the smoke test) all
// read it, so a name exists in exactly one place.

// metricDef names one reported metric. Bound is the share of the baseline
// median by which the metric may get worse before compare calls it a
// regression; per-layer metrics carry no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the cluster sees, reported by every workload.
// Each bound is at least three times the widest spread (inter-quartile
// distance over the median of ten seeds) any workload showed when the
// benchmark was sized, capped at the contract's 0.25: the timing metrics sit
// at the cap because the host they were sized on drifts by more than a third
// of it. README.md holds the measurements.
var endToEnd = []metricDef{
	{"qps", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p99_ms", "ms", "lower", 0.25},
	{"within_limit_ratio", "ratio", "higher", 0.10},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.07},
	{"heap_kb_per_op", "KiB", "lower", 0.12},
	{"heap_live_mb", "MiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// absoluteBounds are the bounds compare applies as plain differences, not as
// shares of the base: a within_limit_ratio that falls from 0.99 to 0.96 has
// tripled the share of requests missing the limit, which a relative bound on
// a number near 1 hides. BENCHMARK.json can only say "share of the parent's
// median" and one bound per metric, so there the bound clears three times the
// spread of the noisiest workload, mixed_mutate_open; compare reports that
// workload as unresolved when its spread exceeds the difference below.
var absoluteBounds = map[string]float64{"within_limit_ratio": 0.02}

// openLoopOnly are the two metrics only mixed_mutate_open has. BENCHMARK.json
// wants every end-to-end metric from every workload, so they sit in the
// per-layer list below; the untraced run of mixed_mutate_open reports them
// too, under the same names, and compare holds them to these bounds.
var openLoopOnly = []metricDef{
	{"delta.mutate_p50_ms", "ms", "lower", 0.25},
	{"gen.late_p99_ms", "ms", "lower", 0.25},
}

// perLayer lists every per-layer metric, layer = module name. README.md says
// which end-to-end metric each one should move, on which workload.
var perLayer = []metricDef{
	// core: the decomposed replay's metrics.Breakdown, per query.
	{Name: "core.pop_ms", Unit: "ms", Better: "lower"},
	{Name: "core.push_ms", Unit: "ms", Better: "lower"},
	{Name: "core.local_fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "core.remote_fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "core.topk_ms", Unit: "ms", Better: "lower"},
	{Name: "core.other_ms", Unit: "ms", Better: "lower"},
	{Name: "core.iterations", Unit: "count", Better: "lower"},
	{Name: "core.pushes", Unit: "count", Better: "lower"},
	{Name: "core.rows_local", Unit: "count", Better: "lower"},
	{Name: "core.rows_remote", Unit: "count", Better: "lower"},
	{Name: "core.remote_row_fraction", Unit: "ratio", Better: "lower"},
	// pmap: probe on a frontier recorded from the workload.
	{Name: "pmap.push_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "pmap.pop_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "pmap.grows_per_query", Unit: "count", Better: "lower"},
	// cache
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.coalesced_per_query", Unit: "count", Better: "higher"},
	{Name: "cache.evictions_per_query", Unit: "count", Better: "lower"},
	{Name: "cache.resident_mb", Unit: "MiB", Better: "lower"},
	{Name: "cache.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.put_ns", Unit: "ns", Better: "lower"},
	// agg
	{Name: "agg.flushes_per_query", Unit: "count", Better: "lower"},
	{Name: "agg.rows_per_flush", Unit: "count", Better: "higher"},
	{Name: "agg.shared_ratio", Unit: "ratio", Better: "higher"},
	{Name: "agg.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "agg.probe_rtt_us", Unit: "us", Better: "lower"},
	// rpc
	{Name: "rpc.requests_per_op", Unit: "count", Better: "lower"},
	{Name: "rpc.kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "rpc.echo_rtt_us", Unit: "us", Better: "lower"},
	{Name: "rpc.frontdoor_overhead_us", Unit: "us", Better: "lower"},
	{Name: "rpc.server_handler_us", Unit: "us", Better: "lower"},
	{Name: "rpc.retries_per_op", Unit: "count", Better: "lower"},
	// wire: probe on rows sampled from the workload's shards.
	{Name: "wire.encode_csr_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_view_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "wire.query_codec_ns", Unit: "ns", Better: "lower"},
	// mem
	{Name: "mem.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mem.pool_live_mb", Unit: "MiB", Better: "lower"},
	{Name: "mem.arena_slab_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "mem.pool_get_ns", Unit: "ns", Better: "lower"},
	// admit
	{Name: "admit.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "admit.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "admit.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "admit.acquire_ns", Unit: "ns", Better: "lower"},
	// ha (+hedger)
	{Name: "ha.hedge_sent_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ha.hedge_win_ratio", Unit: "ratio", Better: "higher"},
	{Name: "ha.failovers", Unit: "count", Better: "lower"},
	{Name: "ha.attempt_ms", Unit: "ms", Better: "lower"},
	{Name: "ha.probes_per_s", Unit: "1/s", Better: "lower"},
	// delta (zero outside mixed_mutate_open)
	{Name: "delta.apply_ms_per_batch", Unit: "ms", Better: "lower"},
	{Name: "delta.mutate_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "delta.live_epochs_max", Unit: "count", Better: "lower"},
	{Name: "delta.compactions", Unit: "count", Better: "lower"},
	{Name: "delta.compact_pause_us_max", Unit: "us", Better: "lower"},
	{Name: "delta.mirror_failures", Unit: "count", Better: "lower"},
	{Name: "delta.read_ns_epoch0", Unit: "ns", Better: "lower"},
	{Name: "delta.read_ns_chain8", Unit: "ns", Better: "lower"},
	// gnn (+feature tier; zero outside infer_zipf)
	{Name: "gnn.ssppr_ms", Unit: "ms", Better: "lower"},
	{Name: "gnn.convert_ms", Unit: "ms", Better: "lower"},
	{Name: "gnn.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "gnn.batch_nodes", Unit: "count", Better: "lower"},
	{Name: "gnn.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "gnn.featcache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "gnn.featagg_rows_per_flush", Unit: "count", Better: "higher"},
	{Name: "gnn.feat_rpcs_per_infer", Unit: "count", Better: "lower"},
	{Name: "gnn.forward_probe_us", Unit: "us", Better: "lower"},
	// set-up phases
	{Name: "graph.generate_s", Unit: "s", Better: "lower"},
	{Name: "partition.s", Unit: "s", Better: "lower"},
	{Name: "partition.edge_cut_ratio", Unit: "ratio", Better: "lower"},
	{Name: "shard.build_s", Unit: "s", Better: "lower"},
	{Name: "cluster.up_s", Unit: "s", Better: "lower"},
	// obs: the traced run against the untraced reference, and the budget.
	{Name: "obs.spans_per_query", Unit: "count", Better: "lower"},
	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "budget.unattributed_ratio", Unit: "ratio", Better: "lower"},
	// gen: the open-loop generator's own lateness (zero on closed loops).
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
}

// workloadKind selects the front door and the loop shape.
type workloadKind int

const (
	kindQuery      workloadKind = iota // closed loop over QueryClient.Query
	kindInfer                          // closed loop over GET /infer
	kindMixedWrite                     // open loop reads beside Cluster.Mutate
)

type workloadDef struct {
	Name    string
	Why     string
	Dataset string
	Zipf    bool
	Kind    workloadKind
	// LimitMs is the latency limit behind within_limit_ratio: 4 x the
	// lat_p50_ms measured when the benchmark was sized, rounded up to a ms.
	LimitMs float64
}

var workloads = []workloadDef{
	{
		Name:    "ssppr_uniform",
		Why:     "closed loop, uniform sources on flat-degree friendster-sim: little row sharing, so rpc/wire/agg/mem do the work and the cache almost none",
		Dataset: "friendster-sim", Kind: kindQuery, LimitMs: 8,
	},
	{
		Name:    "ssppr_zipf",
		Why:     "closed loop, Zipf(1.1) sources on supernode twitter-sim: hot rows fit the cache, so cache hits and pmap pop/push do the work and rpc little",
		Dataset: "twitter-sim", Zipf: true, Kind: kindQuery, LimitMs: 6,
	},
	{
		Name:    "infer_zipf",
		Why:     "closed loop, GET /infer over HTTP on twitter-sim with the feature tier on: SSPPR, top-K induction, feature fetch and SAGE forward in one request",
		Dataset: "twitter-sim", Zipf: true, Kind: kindInfer, LimitMs: 7,
	},
	{
		Name:    "mixed_mutate_open",
		Why:     "open loop at a fixed rate, the ssppr_zipf reads beside 10 mutation batches/s: epoch-tagged cache keys, version-chain reads and compaction pauses",
		Dataset: "twitter-sim", Zipf: true, Kind: kindMixedWrite, LimitMs: 16,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Constants fixed once, when the benchmark was sized (README.md, "Constants").
const (
	machines = 4
	// alpha is the paper default. eps is 1e-5, not the paper's 1e-6: on the
	// 32k-vertex stand-ins a 1e-6 query saturates the whole graph, costs
	// ~30 ms and leaves ~250 samples in a window, too few for a p99.
	alpha = 0.462
	eps   = 1e-5
	topK  = 64

	inferTopK    = 32
	featureDim   = 32
	hiddenDim    = 32
	numClasses   = 4
	modelSeed    = 7
	zipfS        = 1.1
	defaultScale = 4

	// cacheBytes is the one neighbor-row cache budget per machine, set so
	// cache.hit_ratio is >= 0.8 on ssppr_zipf and <= 0.4 on ssppr_uniform.
	cacheBytes     = 4 << 20
	featCacheBytes = 4 << 20
	aggWindow      = 200 * time.Microsecond
	admitInFlight  = 4
	admitQueue     = 256

	// openLoopRate is 0.125 x the measured ssppr_zipf qps, rounded down to a
	// multiple of 10: the rate that keeps the two cores under half busy, so
	// latency follows the host's speed in proportion (README.md says why not
	// the issue's 0.5 x).
	openLoopRate    = 150
	mutateBatchRate = 10
	mutateBatchOps  = 32
	compactInterval = 2 * time.Second
	maxEpochs       = 64
	// epochHoldBatches is how many of the newest epochs the writer keeps
	// pinned on every machine (0.5 s at mutateBatchRate; writer.holdEpochs).
	epochHoldBatches = 5

	// setupRepeats is how many times a run sets the system up; setup_s is
	// the median, so one slow partition does not move it.
	setupRepeats = 3
	// warmupOps is the work done before timing: enough for the cache to
	// reach its steady hit ratio and the admission p50 to settle.
	warmupOps = 2000
	windows   = 5
	// minWindowSamples makes a run fail loudly when its median window holds
	// too few latencies for a p99 to mean anything (two or three beyond it
	// on the open loop's 300 a window; the median over the windows pools five
	// such estimates).
	minWindowSamples = 250
	gateSources      = 16
	postGateSources  = 8
	gatePrecision    = 0.9
	// logitTolerance is how far two servings of one /infer source may differ,
	// relative to 1+|logit| (see sameLogits).
	logitTolerance = 0.05
)
