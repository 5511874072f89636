package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pprengine/internal/admit"
	"pprengine/internal/agg"
	"pprengine/internal/cache"
	"pprengine/internal/core"
	"pprengine/internal/delta"
	"pprengine/internal/gnn"
	"pprengine/internal/graph"
	"pprengine/internal/mem"
	"pprengine/internal/metrics"
	"pprengine/internal/obs"
	"pprengine/internal/pmap"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
	"pprengine/internal/wire"
)

const (
	replayQueries = 128
	// frontierCap bounds the residual updates recorded for the pmap probe.
	frontierCap = 1 << 16
)

// replay is the decomposed run: the measured sequence's first sources again,
// one at a time and in process on each source's owner, through the same
// public calls the front door makes, each timed on its own.
type replay struct {
	n                                         int
	popMs, pushMs, localMs, remoteMs, wallMs  float64
	topkMs, convertMs, forwardMs              float64
	iterations, pushes, rowsLocal, rowsRemote float64
	// frontier holds score-map entries of the replayed queries: the keys and
	// magnitudes the pmap probe pushes and pops.
	frontier []pmap.Update
	batch    *gnn.Batch // last /infer batch, the Forward probe's input
}

func (e *env) replay(o runOpts) (*replay, error) {
	r := &replay{n: o.sized(replayQueries)}
	gen := newSourceGen(e.data, e.wl, o.seed, 0, phaseMeasured)
	var bd metrics.Breakdown
	for i := 0; i < r.n; i++ {
		src := gen.next()
		sh, local := e.data.loc.Locate(src)
		st := e.c.Storages[sh][0]
		root := e.tracer.StartTrace("replay")
		ctx := obs.ContextWith(context.Background(), root.Context())

		span := e.tracer.StartSpan(root.Context(), "replay:ssppr")
		t := time.Now()
		m, stats, err := core.RunSSPPR(ctx, st, local, e.cfg, &bd)
		r.wallMs += ms(time.Since(t))
		span.End()
		if err != nil {
			return nil, fmt.Errorf("replay: source %d: %w", src, err)
		}
		r.iterations += float64(stats.Iterations)
		r.pushes += float64(stats.Pushes)
		r.rowsLocal += float64(stats.LocalRows)
		r.rowsRemote += float64(stats.RemoteRows + stats.CacheHits + stats.CacheCoalesced + stats.HaloRows)
		if len(r.frontier) < frontierCap {
			m.RangeScores(func(k pmap.Key, v float64) bool {
				r.frontier = append(r.frontier, pmap.Update{Key: k, Delta: v, Aux: 1})
				return len(r.frontier) < frontierCap
			})
		}

		if e.wl.Kind != kindInfer {
			span = e.tracer.StartSpan(root.Context(), "replay:topk")
			t = time.Now()
			top := m.TopK(topK)
			r.topkMs += ms(time.Since(t))
			span.End()
			if len(top) == 0 {
				return nil, fmt.Errorf("replay: source %d: empty top-K", src)
			}
		} else {
			span = e.tracer.StartSpan(root.Context(), "replay:convert")
			t = time.Now()
			b, err := gnn.ConvertBatch(ctx, st, m, local, inferTopK, numClasses)
			r.convertMs += ms(time.Since(t))
			span.End()
			if err != nil {
				return nil, fmt.Errorf("replay: source %d: %w", src, err)
			}
			span = e.tracer.StartSpan(root.Context(), "replay:forward")
			t = time.Now()
			logits := e.model.Forward(b)
			r.forwardMs += ms(time.Since(t))
			span.End()
			if len(logits) != numClasses {
				return nil, fmt.Errorf("replay: source %d: %d logits", src, len(logits))
			}
			r.batch = b
		}
		root.End()
	}
	r.popMs, r.pushMs = ms(bd.Get(metrics.PhasePop)), ms(bd.Get(metrics.PhasePush))
	r.localMs, r.remoteMs = ms(bd.Get(metrics.PhaseLocalFetch)), ms(bd.Get(metrics.PhaseRemoteFetch))
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// probeSink keeps probe results alive so the compiler cannot drop the calls.
var probeSink int

// timeLoop runs f iters times and returns nanoseconds per call.
func timeLoop(iters int, f func()) float64 {
	t := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	return float64(time.Since(t)) / float64(iters)
}

// runProbes times the public functions of single layers on inputs recorded
// from the workload: the "one micro-bench per layer". It returns the probe
// metrics and the iteration count behind each.
func (e *env) runProbes(o runOpts, r *replay) (map[string]float64, map[string]int, error) {
	out, iters := map[string]float64{}, map[string]int{}
	set := func(name string, v float64, n int) { out[name], iters[name] = v, n }
	rng := rand.New(rand.NewSource(o.seed))
	ctx := context.Background()

	// wire: the rows the replayed queries touched on the busiest shard.
	perShard := make([][]int32, machines)
	for _, u := range r.frontier {
		if sh := u.Key.Shard; int(u.Key.Local) < e.data.shards[sh].NumCore() && len(perShard[sh]) < 512 {
			perShard[sh] = append(perShard[sh], u.Key.Local)
		}
	}
	busiest := 0
	for sh := range perShard {
		if len(perShard[sh]) > len(perShard[busiest]) {
			busiest = sh
		}
	}
	rows := perShard[busiest]
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("probes: the replay touched no rows")
	}
	infos, err := core.BuildInfos(e.data.shards[busiest], rows)
	if err != nil {
		return nil, nil, fmt.Errorf("probes: %w", err)
	}
	buf := make([]byte, 0, wire.CSRSize(infos))
	wireIters := o.sized(400)
	set("wire.encode_csr_ns_per_row", timeLoop(wireIters, func() { buf = wire.EncodeCSRTo(buf[:0], infos) })/float64(len(rows)), wireIters)
	set("wire.bytes_per_row", float64(len(buf))/float64(len(rows)), 1)
	arena := mem.GetArena()
	var probeErr error
	set("wire.decode_view_ns_per_row", timeLoop(wireIters, func() {
		arena.Reset()
		v, err := wire.DecodeCSRView(buf, arena)
		if err != nil {
			probeErr = err
			return
		}
		probeSink += v.NumRows()
	})/float64(len(rows)), wireIters)
	mem.PutArena(arena)
	if probeErr != nil {
		return nil, nil, fmt.Errorf("probes: decode: %w", probeErr)
	}
	qresp := &wire.QueryResponse{Globals: make([]int32, topK), Scores: make([]float64, topK)}
	codecIters := o.sized(20000)
	set("wire.query_codec_ns", timeLoop(codecIters, func() {
		req, err1 := wire.DecodeQueryRequest(wire.EncodeQueryRequest(&wire.QueryRequest{SourceLocal: 7, TopK: topK}))
		resp, err2 := wire.DecodeQueryResponse(wire.EncodeQueryResponse(qresp))
		if err1 != nil || err2 != nil {
			probeErr = fmt.Errorf("query codec: %v %v", err1, err2)
			return
		}
		probeSink += int(req.TopK) + len(resp.Globals)
	}), codecIters)
	if probeErr != nil {
		return nil, nil, fmt.Errorf("probes: %w", probeErr)
	}

	// rpc: an empty round trip on a front-door connection.
	echoIters := o.sized(3000)
	payload := make([]byte, 64)
	set("rpc.echo_rtt_us", timeLoop(echoIters, func() {
		if _, err := e.conns[0].SyncCall(rpc.MethodEcho, payload); err != nil {
			probeErr = err
		}
	})/1e3, echoIters)
	if probeErr != nil {
		return nil, nil, fmt.Errorf("probes: echo: %w", probeErr)
	}

	// pmap: push the recorded updates owner-compute style, then pop them.
	workers := runtime.GOMAXPROCS(0)
	pmapRounds := o.sized(8)
	var pushNs, popNs float64
	var popped int
	for i := 0; i < pmapRounds; i++ {
		table, active := pmap.NewStriped(1024), pmap.NewConcurrentSet(256)
		t := time.Now()
		table.ApplyOwned(r.frontier, workers, func(k pmap.Key, nv, aux float64) {
			if nv > eps*aux {
				active.Insert(k)
			}
		})
		pushNs += float64(time.Since(t))
		t = time.Now()
		keys := active.Drain(nil)
		popNs += float64(time.Since(t))
		popped += len(keys)
	}
	set("pmap.push_ns_per_update", pushNs/float64(pmapRounds*len(r.frontier)), pmapRounds*len(r.frontier))
	set("pmap.pop_ns_per_key", ratio(popNs, float64(popped)), popped)

	// cache: fill with the sampled rows, then hit them.
	ch := cache.New(64 << 20)
	crow := make([]cache.Row, len(rows))
	for i := range rows {
		l, s, w, d := infos.Row(i)
		crow[i] = cache.Row{Locals: l, Shards: s, Weights: w, WDegs: d, WDeg: infos.RowWDeg[i]}
	}
	t := time.Now()
	for i, l := range rows {
		if _, hit, fl, leader := ch.GetOrReserve(int32(busiest), l); !hit && leader {
			fl.Fulfill(crow[i], nil)
		}
	}
	set("cache.put_ns", float64(time.Since(t))/float64(len(rows)), len(rows))
	hitRounds := o.sized(200)
	set("cache.get_hit_ns", timeLoop(hitRounds, func() {
		for _, l := range rows {
			if row, ok := ch.Get(int32(busiest), l); ok {
				probeSink += len(row.Locals)
			}
		}
	})/float64(len(rows)), hitRounds*len(rows))

	// agg: enqueue -> flush -> decode -> demux, one ticket at a time, against
	// the busiest shard's live server over a connection of the probe's own.
	cl, err := rpc.Dial(e.c.Addrs[busiest], rpc.LatencyModel{})
	if err != nil {
		return nil, nil, fmt.Errorf("probes: %w", err)
	}
	defer cl.Close()
	ag := agg.New(cl, agg.Options{Window: aggWindow, ZeroCopy: true})
	fetch := rows
	if len(fetch) > 64 {
		fetch = fetch[:64]
	}
	aggIters := o.sized(1000)
	set("agg.probe_rtt_us", timeLoop(aggIters, func() {
		tk := ag.Enqueue(fetch)
		got, _, err := tk.Wait(ctx)
		if err != nil {
			probeErr = err
			return
		}
		probeSink += got.NumRows()
		tk.Release()
	})/1e3, aggIters)
	if probeErr != nil {
		return nil, nil, fmt.Errorf("probes: agg: %w", probeErr)
	}

	// admit: an uncontended slot claim and release.
	ac := admit.NewController(admit.Options{MaxInFlight: admitInFlight, MaxQueue: admitQueue})
	admitIters := o.sized(100000)
	set("admit.acquire_ns", timeLoop(admitIters, func() {
		g, err := ac.Acquire(ctx, admit.Request{})
		if err != nil {
			probeErr = err
			return
		}
		g.Release(true)
	}), admitIters)
	if probeErr != nil {
		return nil, nil, fmt.Errorf("probes: admit: %w", probeErr)
	}

	// mem: a pooled frame-buffer checkout and return.
	var pool mem.Pool
	memIters := o.sized(200000)
	set("mem.pool_get_ns", timeLoop(memIters, func() {
		b := pool.Get(4096)
		probeSink += len(b.Bytes())
		b.Release()
	}), memIters)

	if r.batch != nil {
		fwdIters := o.sized(300)
		set("gnn.forward_probe_us", timeLoop(fwdIters, func() { probeSink += len(e.model.Forward(r.batch)) })/1e3, fwdIters)
	}
	if e.wl.Kind == kindMixedWrite {
		e0, e8, n, err := deltaProbe(e.data.shards, e.data.loc, busiest, rows, rng, o.sized(200))
		if err != nil {
			return nil, nil, fmt.Errorf("probes: delta: %w", err)
		}
		set("delta.read_ns_epoch0", e0, n)
		set("delta.read_ns_chain8", e8, n)
	}
	return out, iters, nil
}

// deltaProbe reads the sampled rows of shard sh through a delta store of the
// probe's own: at epoch 0 (the untouched base) and at epoch 8, after eight
// batches each appended one edge to every sampled row, so every read walks an
// 8-deep version chain. It returns nanoseconds per row read.
func deltaProbe(shards []*shard.Shard, loc *shard.Locator, sh int, rows []int32, rng *rand.Rand, rounds int) (epoch0, chain8 float64, reads int, err error) {
	bases := map[int32]*shard.Shard{}
	for i, s := range shards {
		bases[int32(i)] = s
	}
	store := delta.NewStore(loc, bases)
	coord := delta.NewCoordinator(store, nil, nil)
	n := loc.NumNodes()
	const depth = 8
	for b := 0; b < depth; b++ {
		batch := make([]delta.Mutation, len(rows))
		for i, l := range rows {
			batch[i] = delta.Mutation{
				Op:  delta.OpAddEdge,
				Src: loc.Global(int32(sh), l), Dst: graph.NodeID(rng.Intn(n)),
				Weight: 0.5,
			}
		}
		if _, err := coord.Apply(context.Background(), batch); err != nil {
			return 0, 0, 0, err
		}
	}
	read := func(epoch uint64) float64 {
		return timeLoop(rounds, func() {
			vps, rerr := store.VertexProps(int32(sh), rows, epoch)
			if rerr != nil {
				err = rerr
				return
			}
			probeSink += len(vps)
		}) / float64(len(rows))
	}
	epoch0, chain8 = read(0), read(depth)
	return epoch0, chain8, rounds * len(rows), err
}

// fillPerLayer assembles every per-layer metric of a traced run: counts from
// the stat readers around the traced interval, times from the merged trace,
// the replay and the probes.
func fillPerLayer(res *runResult, e *env, o runOpts, tm *measured, tws []windowStat, refQPS float64) error {
	pl := res.PerLayer
	for _, def := range perLayer {
		pl[def.Name] = 0
	}
	var ops, okOps float64
	var okLat []int64
	for _, s := range tm.p.samples {
		ops++
		if s.kind == opOK {
			okOps++
			okLat = append(okLat, s.latNs)
		}
	}
	seconds := tm.p.elapsed.Seconds()
	for k, v := range layerCounts(e, tm.before, tm.after, tm.p, ops, okOps, mean(okLat), seconds) {
		pl[k] = v
	}

	// The merged trace: the benchmark's spans and every machine's.
	sum, kept := analyzeTraces(e.tracer.Spans(), e.c.Spans(), append([]*obs.Tracer{e.tracer}, e.c.Tracers...), tm.p.start.UnixNano())
	if sum.Traces == 0 {
		return fmt.Errorf("traced run: no whole trace survived in the span rings")
	}
	res.Samples["trace.whole_traces"] = sum.Traces
	res.BudgetMs = sum.BudgetMs
	pl["obs.spans_per_query"] = sum.SpansPerQuery
	pl["budget.unattributed_ratio"] = sum.Unattributed
	pl["obs.trace_overhead_ratio"] = ratio(windowMedian(tws, func(w windowStat) float64 { return w.QPS }), refQPS)
	pl["agg.flush_ms"] = sum.MeanMsByName["agg:flush"]
	pl["admit.wait_ms"] = sum.MeanMsByName["admit:wait"]
	pl["ha.attempt_ms"] = sum.MeanMsByName["ha:attempt"]
	if v, ok := sum.MeanMsByName["admit:primary"]; ok {
		pl["ha.attempt_ms"] = v // with the hedger on, the primary attempt is its span
	}
	handler := sum.MeanMsByName["rpc:GetNeighborInfos"]
	if v, ok := sum.MeanMsByName["rpc:GetNeighborInfosAt"]; ok {
		handler = v
	}
	pl["rpc.server_handler_us"] = handler * 1e3

	// The replay.
	r, err := e.replay(o)
	if err != nil {
		return err
	}
	n := float64(r.n)
	pl["core.pop_ms"], pl["core.push_ms"] = r.popMs/n, r.pushMs/n
	pl["core.local_fetch_ms"], pl["core.remote_fetch_ms"] = r.localMs/n, r.remoteMs/n
	pl["core.topk_ms"] = r.topkMs / n
	pl["core.other_ms"] = (r.wallMs - r.popMs - r.pushMs - r.localMs - r.remoteMs) / n
	pl["core.iterations"], pl["core.pushes"] = r.iterations/n, r.pushes/n
	pl["core.rows_local"], pl["core.rows_remote"] = r.rowsLocal/n, r.rowsRemote/n
	pl["core.remote_row_fraction"] = ratio(r.rowsRemote, r.rowsRemote+r.rowsLocal)
	res.Samples["replay.queries"] = r.n
	if e.wl.Kind == kindInfer {
		pl["gnn.ssppr_ms"], pl["gnn.convert_ms"], pl["gnn.forward_ms"] = r.wallMs/n, r.convertMs/n, r.forwardMs/n
	}

	probes, iters, err := e.runProbes(o, r)
	if err != nil {
		return err
	}
	for k, v := range probes {
		pl[k] = v
		res.Samples[k] = iters[k]
	}

	if e.wl.Kind == kindMixedWrite {
		pl["delta.apply_ms_per_batch"] = mean(tm.mutCallNs) / 1e6
		fillOpenLoop(pl, res.Samples, tm)
	}
	pl["graph.generate_s"], pl["partition.s"] = e.data.generateS, e.data.partitionS
	pl["partition.edge_cut_ratio"] = e.data.quality.CutRatio
	pl["shard.build_s"], pl["cluster.up_s"] = e.data.shardS, e.upS

	path, err := writeTraceFile(o.outDir, e.wl.Name, o.seed, sum, kept)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	res.TraceFile = path
	return nil
}
