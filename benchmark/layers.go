package main

import (
	"pprengine/internal/admit"
	"pprengine/internal/agg"
	"pprengine/internal/cache"
	"pprengine/internal/cluster"
	"pprengine/internal/delta"
	"pprengine/internal/ha"
	"pprengine/internal/metrics"
	"pprengine/internal/rpc"
)

// counters is one reading of every public stat reader of the stack. Per-layer
// counts are the difference of two readings around the measured interval.
type counters struct {
	net      cluster.NetStats
	cache    cache.Stats
	agg      agg.Stats
	admit    admit.Snapshot
	hedge    admit.HedgeStats
	ha       ha.Stats
	featC    cache.FeatStats
	featAgg  agg.Stats
	delta    []delta.Snapshot
	fetchReq int64 // storage-tier fetch requests served (replicas included)
	featReq  int64 // MethodFetchFeatures requests served

	queryLatSum, inferLatSum     float64
	queryLatCount, inferLatCount int64

	poolHits, poolMisses, poolLive, arenaSlab int64
	pmapGrows, retries, mirrorFailures        int64
}

func (e *env) readCounters() counters {
	c := e.c
	k := counters{
		net: c.NetStats(), cache: c.CacheStats(), agg: c.AggStats(), admit: c.AdmitStats(),
		hedge: c.HedgeStats(), ha: c.HAStats(), featC: c.FeatCacheStats(), featAgg: c.FeatAggStats(),
		delta:          c.DeltaStats(),
		poolHits:       metrics.PoolHits.Load(),
		poolMisses:     metrics.PoolMisses.Load(),
		poolLive:       metrics.PoolLiveBytes.Load(),
		arenaSlab:      metrics.ArenaSlabBytes.Load(),
		pmapGrows:      metrics.PmapGrows.Load(),
		retries:        metrics.RPCRetries.Load(),
		mirrorFailures: metrics.MutationMirrorFailures.Load(),
	}
	for _, s := range serverStatsOf(c) {
		k.fetchReq += s.Requests[rpc.MethodGetNeighborInfos] + s.Requests[rpc.MethodGetNeighborInfosAt]
		k.featReq += s.Requests[rpc.MethodFetchFeatures]
	}
	for _, h := range e.queryLat {
		k.queryLatSum += h.Sum()
		k.queryLatCount += h.Count()
	}
	if e.inferLat != nil {
		k.inferLatSum, k.inferLatCount = e.inferLat.Sum(), e.inferLat.Count()
	}
	return k
}

// serverStatsOf reads every storage server's RPC counters, replicas included.
func serverStatsOf(c *cluster.Cluster) []rpc.Stats {
	var out []rpc.Stats
	for _, s := range c.Servers {
		out = append(out, s.RPCStats())
	}
	for _, machine := range c.ReplicaServers {
		for _, s := range machine {
			out = append(out, s.RPCStats())
		}
	}
	return out
}

// layerCounts turns two readings and the phase between them into the
// count-derived per-layer metrics. ops is every operation that finished in
// the interval; meanLatNs is the mean client-side wall time of the ok ones.
func layerCounts(e *env, a, b counters, p *phase, ops, okOps float64, meanLatNs float64, seconds float64) map[string]float64 {
	m := map[string]float64{}
	d := func(x, y int64) float64 { return float64(y - x) }

	hits, misses, coal := d(a.cache.Hits, b.cache.Hits), d(a.cache.Misses, b.cache.Misses), d(a.cache.Coalesced, b.cache.Coalesced)
	m["cache.hit_ratio"] = ratio(hits, hits+misses+coal)
	m["cache.coalesced_per_query"] = ratio(coal, ops)
	m["cache.evictions_per_query"] = ratio(d(a.cache.Evictions, b.cache.Evictions), ops)
	m["cache.resident_mb"] = float64(b.cache.Bytes) / (1 << 20)

	m["agg.flushes_per_query"] = ratio(d(a.agg.Flushes, b.agg.Flushes), ops)
	m["agg.rows_per_flush"] = ratio(d(a.agg.Rows, b.agg.Rows), d(a.agg.Flushes, b.agg.Flushes))
	m["agg.shared_ratio"] = ratio(d(a.agg.Shared, b.agg.Shared), d(a.agg.Tickets, b.agg.Tickets))

	m["rpc.requests_per_op"] = ratio(d(a.net.RequestsSent, b.net.RequestsSent), ops)
	m["rpc.kb_per_op"] = ratio((d(a.net.BytesSent, b.net.BytesSent)+d(a.net.BytesReceived, b.net.BytesReceived))/1024, ops)
	m["rpc.retries_per_op"] = ratio(d(a.retries, b.retries), ops)

	// Front-door overhead: what the client waited beyond the owner's handler.
	handlerNs := ratio((b.queryLatSum-a.queryLatSum)*1e9, d(a.queryLatCount, b.queryLatCount))
	inferNs := ratio((b.inferLatSum-a.inferLatSum)*1e9, d(a.inferLatCount, b.inferLatCount))
	sentNs := meanLatNs - mean(p.lateNs) // open loop: latency runs from the due time
	if e.wl.Kind == kindInfer {
		m["gnn.http_overhead_us"] = (sentNs - inferNs) / 1e3
		m["rpc.frontdoor_overhead_us"] = m["gnn.http_overhead_us"]
	} else {
		m["rpc.frontdoor_overhead_us"] = (sentNs - handlerNs) / 1e3
	}

	ph, pm := d(a.poolHits, b.poolHits), d(a.poolMisses, b.poolMisses)
	m["mem.pool_hit_ratio"] = ratio(ph, ph+pm)
	m["mem.pool_live_mb"] = float64(b.poolLive-e.poolLive0) / (1 << 20)
	m["mem.arena_slab_kb_per_op"] = ratio(d(a.arenaSlab, b.arenaSlab)/1024, ops)
	m["pmap.grows_per_query"] = ratio(d(a.pmapGrows, b.pmapGrows), ops)

	shed := float64(b.admit.Shed() - a.admit.Shed())
	m["admit.shed_ratio"] = ratio(shed, shed+d(a.admit.Admitted, b.admit.Admitted))
	m["admit.queue_depth_max"] = float64(p.maxQueueDepth)

	hedges := d(a.hedge.Hedges, b.hedge.Hedges)
	m["ha.hedge_sent_ratio"] = ratio(hedges, d(a.fetchReq, b.fetchReq)+d(a.featReq, b.featReq)-hedges)
	m["ha.hedge_win_ratio"] = ratio(d(a.hedge.Wins, b.hedge.Wins), hedges)
	m["ha.failovers"] = d(a.ha.Failovers, b.ha.Failovers)
	m["ha.probes_per_s"] = ratio(d(a.ha.Probes, b.ha.Probes), seconds)

	var compactions float64
	for i := range b.delta {
		if c := float64(b.delta[i].Compactions - a.delta[i].Compactions); c > compactions {
			compactions = c
		}
	}
	m["delta.compactions"] = compactions
	m["delta.live_epochs_max"] = float64(p.maxLiveEpochs)
	m["delta.compact_pause_us_max"] = float64(p.maxPauseNs) / 1e3
	m["delta.mirror_failures"] = d(a.mirrorFailures, b.mirrorFailures)

	fh, fm, fc := d(a.featC.Hits, b.featC.Hits), d(a.featC.Misses, b.featC.Misses), d(a.featC.Coalesced, b.featC.Coalesced)
	m["gnn.featcache_hit_ratio"] = ratio(fh, fh+fm+fc)
	m["gnn.featagg_rows_per_flush"] = ratio(d(a.featAgg.Rows, b.featAgg.Rows), d(a.featAgg.Flushes, b.featAgg.Flushes))
	if e.wl.Kind == kindInfer {
		m["gnn.feat_rpcs_per_infer"] = ratio(d(a.featReq, b.featReq), ops)
		m["gnn.batch_nodes"] = ratio(float64(p.stats.batchNodes.Load()), okOps)
	}
	return m
}
