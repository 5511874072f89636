package obs

import (
	"runtime"
	"sync"

	"pprengine/internal/metrics"
)

// counterOf adapts an engine metrics.Counter to a scrape-time read.
func counterOf(c *metrics.Counter) func() float64 {
	return func() float64 { return float64(c.Load()) }
}

// RegisterEngineMetrics bridges the engine's global counters
// (internal/metrics) into r: query lifecycle, cache, aggregation, wire
// traffic, and HA failover/breaker counters. Values are read at scrape
// time, so the hot paths keep their existing single-atomic-increment cost.
func RegisterEngineMetrics(r *Registry) {
	r.CounterFunc("ppr_query_timeouts_total", "Queries aborted by a deadline or cancellation.", nil, counterOf(&metrics.QueryTimeouts))
	r.CounterFunc("ppr_rpc_retries_total", "Backoff rounds taken by rpc.Client.CallRetry.", nil, counterOf(&metrics.RPCRetries))

	r.CounterFunc("ppr_cache_hits_total", "Remote rows served from the dynamic neighbor-row cache.", nil, counterOf(&metrics.CacheHits))
	r.CounterFunc("ppr_cache_misses_total", "Rows that started a fetch (single-flight leaders).", nil, counterOf(&metrics.CacheMisses))
	r.CounterFunc("ppr_cache_coalesced_total", "Rows that piggybacked on an in-flight fetch.", nil, counterOf(&metrics.CacheCoalesced))
	r.CounterFunc("ppr_cache_evictions_total", "Rows evicted to stay under the cache byte budget.", nil, counterOf(&metrics.CacheEvictions))
	r.CounterFunc("ppr_cache_rejected_total", "Fetched rows not cached: larger than a lock stripe's share of the byte budget.", nil, counterOf(&metrics.CacheRejected))
	r.GaugeFunc("ppr_cache_bytes", "Resident bytes across the process's neighbor-row caches.", nil,
		func() float64 { return float64(metrics.CacheBytes.Load()) })
	r.GaugeFunc("ppr_cache_entries", "Resident rows across the process's neighbor-row caches.", nil,
		func() float64 { return float64(metrics.CacheEntries.Load()) })

	r.CounterFunc("ppr_agg_flushes_total", "Merged wire requests sent by the cross-query fetch aggregator.", nil, counterOf(&metrics.AggFlushes))
	r.CounterFunc("ppr_agg_rows_total", "Neighbor rows carried by aggregated flushes.", nil, counterOf(&metrics.AggRows))
	r.CounterFunc("ppr_agg_shared_total", "Fetches whose flush also carried another query's fetch.", nil, counterOf(&metrics.AggShared))

	r.CounterFunc("ppr_feat_cache_hits_total", "Feature rows served from the feature-row cache.", nil, counterOf(&metrics.FeatCacheHits))
	r.CounterFunc("ppr_feat_cache_misses_total", "Feature rows that started a fetch (single-flight leaders).", nil, counterOf(&metrics.FeatCacheMisses))
	r.CounterFunc("ppr_feat_cache_coalesced_total", "Feature rows that piggybacked on an in-flight fetch.", nil, counterOf(&metrics.FeatCacheCoalesced))
	r.CounterFunc("ppr_feat_cache_evictions_total", "Feature rows evicted to stay under the cache byte budget.", nil, counterOf(&metrics.FeatCacheEvictions))
	r.CounterFunc("ppr_feat_cache_rejected_total", "Fetched feature rows not cached: declined by the mass-admission policy or larger than a lock stripe's share of the byte budget.", nil, counterOf(&metrics.FeatCacheRejected))
	r.GaugeFunc("ppr_feat_cache_bytes", "Resident bytes across the process's feature-row caches.", nil,
		func() float64 { return float64(metrics.FeatCacheBytes.Load()) })
	r.GaugeFunc("ppr_feat_cache_entries", "Resident rows across the process's feature-row caches.", nil,
		func() float64 { return float64(metrics.FeatCacheEntries.Load()) })

	r.CounterFunc("ppr_feat_agg_flushes_total", "Merged wire requests sent by the feature-fetch aggregator.", nil, counterOf(&metrics.FeatAggFlushes))
	r.CounterFunc("ppr_feat_agg_rows_total", "Feature rows carried by aggregated flushes.", nil, counterOf(&metrics.FeatAggRows))
	r.CounterFunc("ppr_feat_agg_shared_total", "Feature fetches whose flush also carried another query's fetch.", nil, counterOf(&metrics.FeatAggShared))

	r.CounterFunc("ppr_infer_served_total", "GNN inferences served end to end.", nil, counterOf(&metrics.InferServed))
	r.CounterFunc("ppr_infer_failures_total", "GNN inferences that failed.", nil, counterOf(&metrics.InferFailures))

	r.CounterFunc("ppr_mem_pool_hits_total", "Frame-buffer checkouts served by recycling a released buffer.", nil, counterOf(&metrics.PoolHits))
	r.CounterFunc("ppr_mem_pool_misses_total", "Frame-buffer checkouts that had to allocate.", nil, counterOf(&metrics.PoolMisses))
	r.GaugeFunc("ppr_mem_pool_live_bytes", "Bytes currently checked out of the frame-buffer pools.", nil,
		func() float64 { return float64(metrics.PoolLiveBytes.Load()) })
	r.CounterFunc("ppr_mem_arena_slab_bytes_total", "Bytes committed to decode-arena slabs.", nil, counterOf(&metrics.ArenaSlabBytes))

	r.CounterFunc("ppr_pmap_grows_total", "Page-pool and directory growths of the SSPPR engine's per-query table.", nil, counterOf(&metrics.PmapGrows))

	r.CounterFunc("ppr_wire_requests_total", "Client-side RPC requests sent.", nil, counterOf(&metrics.WireRequests))
	r.CounterFunc("ppr_wire_bytes_sent_total", "Client-side request payload bytes sent.", nil, counterOf(&metrics.WireBytesSent))
	r.CounterFunc("ppr_wire_bytes_received_total", "Client-side response payload bytes received.", nil, counterOf(&metrics.WireBytesReceived))

	r.CounterFunc("ppr_admit_admitted_total", "Queries granted an execution slot by the admission controller.", nil, counterOf(&metrics.QueriesAdmitted))
	r.CounterFunc("ppr_admit_shed_total", "Queries shed by the admission controller, by reason.", Labels{"reason": "quota"}, counterOf(&metrics.QueriesShedQuota))
	r.CounterFunc("ppr_admit_shed_total", "Queries shed by the admission controller, by reason.", Labels{"reason": "deadline"}, counterOf(&metrics.QueriesShedDeadline))
	r.CounterFunc("ppr_admit_shed_total", "Queries shed by the admission controller, by reason.", Labels{"reason": "queue"}, counterOf(&metrics.QueriesShedQueue))
	r.GaugeFunc("ppr_admit_queue_depth", "Queries waiting in the admission queue.", nil,
		func() float64 { return float64(metrics.AdmitQueueDepth.Load()) })
	r.GaugeFunc("ppr_admit_inflight", "Queries currently holding an admission slot.", nil,
		func() float64 { return float64(metrics.AdmitInFlight.Load()) })

	r.CounterFunc("ppr_hedges_total", "Duplicate remote-fetch attempts issued after the primary outlived the hedge delay.", nil, counterOf(&metrics.Hedges))
	r.CounterFunc("ppr_hedge_wins_total", "Hedged attempts that produced the winning response.", nil, counterOf(&metrics.HedgeWins))

	r.CounterFunc("ppr_failovers_total", "Routed requests re-issued to a replica after the preferred endpoint failed.", nil, counterOf(&metrics.Failovers))
	r.CounterFunc("ppr_breaker_opens_total", "Peer circuit-breaker transitions into the open state.", nil, counterOf(&metrics.BreakerOpens))
	r.CounterFunc("ppr_breaker_closes_total", "Peer circuit-breaker transitions back to closed.", nil, counterOf(&metrics.BreakerCloses))
	r.CounterFunc("ppr_probes_sent_total", "Health pings issued by the per-machine health trackers.", nil, counterOf(&metrics.ProbesSent))
	r.CounterFunc("ppr_probe_failures_total", "Health pings that failed.", nil, counterOf(&metrics.ProbeFailures))
	r.GaugeFunc("ppr_probe_latency_seconds", "Most recent successful probe round trip.", nil,
		func() float64 { return float64(metrics.ProbeLatencyNs.Load()) / 1e9 })
}

// RegisterPhaseMetrics exposes an accumulated per-phase breakdown (the
// paper's Table 3 dimensions) as one counter pair per phase: cumulative
// seconds and sample counts, labeled by phase.
func RegisterPhaseMetrics(r *Registry, ab *metrics.AtomicBreakdown) {
	for _, p := range metrics.Phases() {
		p := p
		labels := Labels{"phase": p.String()}
		r.CounterFunc("ppr_phase_seconds_total", "Cumulative wall time per query phase.", labels,
			func() float64 { return ab.Get(p).Seconds() })
		r.CounterFunc("ppr_phase_ops_total", "Timed operations per query phase.", labels,
			func() float64 { return float64(ab.Count(p)) })
	}
}

// RegisterGoMetrics exposes basic process health: goroutine count and heap
// occupancy. ReadMemStats runs at scrape time only.
func RegisterGoMetrics(r *Registry) {
	r.GaugeFunc("go_goroutines", "Number of live goroutines.", nil,
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("go_heap_alloc_bytes", "Bytes of allocated heap objects.", nil,
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
}

// MaxTenantSeries caps the label cardinality of ppr_tenant_query_seconds:
// tenant names come off the wire, so an unbounded label would let clients
// grow the registry without limit.
const MaxTenantSeries = 64

// TenantLatencyHook returns the admission controller's latency hook: it
// observes each admitted query's wall time into a per-tenant
// ppr_tenant_query_seconds histogram, materialized on the tenant's first
// completed query. The first MaxTenantSeries tenant names keep their own
// series; every later one folds into tenant="other".
func TenantLatencyHook(r *Registry) func(tenant string, secs float64) {
	var mu sync.Mutex
	hists := map[string]*Histogram{}
	return func(tenant string, secs float64) {
		mu.Lock()
		h := hists[tenant]
		if h == nil {
			label := tenant
			if len(hists) >= MaxTenantSeries {
				label = "other"
			}
			h = r.Histogram("ppr_tenant_query_seconds",
				"Wall time of admitted SSPPR queries by tenant.",
				Labels{"tenant": label}, DefBuckets)
			if label == tenant {
				hists[tenant] = h
			}
		}
		mu.Unlock()
		h.Observe(secs)
	}
}
