package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"time"

	"pprengine/internal/cluster"
	"pprengine/internal/core"
	"pprengine/internal/datasets"
	"pprengine/internal/gnn"
	"pprengine/internal/graph"
	"pprengine/internal/metrics"
	"pprengine/internal/obs"
	"pprengine/internal/partition"
	"pprengine/internal/rpc"
	"pprengine/internal/shard"
)

// numClients is how many generator goroutines drive the front door.
func numClients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// dataset is everything a workload's set-up builds before a cluster exists.
// The seed reaches the graph generator only; the partitioner keeps its own
// fixed tie-break seed, so the engine never sees the benchmark's.
type dataset struct {
	spec    datasets.Spec
	g       *graph.Graph
	shards  []*shard.Shard
	loc     *shard.Locator
	quality partition.Quality
	// byDegree ranks vertices by descending degree (ties by id): Zipf rank r
	// maps to byDegree[r], so the hot sources are the supernodes on every seed.
	byDegree []int32

	generateS, partitionS, shardS float64
}

func buildDataset(wl workloadDef, seed int64, scale int) (*dataset, error) {
	spec, err := datasets.Lookup(wl.Dataset)
	if err != nil {
		return nil, err
	}
	if scale > 1 {
		spec = spec.Scaled(scale)
	}
	spec.Seed = seed
	d := &dataset{spec: spec}
	t := time.Now()
	d.g = spec.Generate()
	d.generateS = time.Since(t).Seconds()

	t = time.Now()
	assign, err := partition.Partition(d.g, machines, partition.Options{Seed: 42})
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	d.quality = partition.Evaluate(d.g, assign)
	d.partitionS = time.Since(t).Seconds()

	t = time.Now()
	d.shards, d.loc, err = shard.Build(d.g, assign, machines)
	if err != nil {
		return nil, fmt.Errorf("shard build: %w", err)
	}
	d.shardS = time.Since(t).Seconds()

	d.byDegree = make([]int32, d.g.NumNodes)
	for i := range d.byDegree {
		d.byDegree[i] = int32(i)
	}
	sort.Slice(d.byDegree, func(i, j int) bool {
		di, dj := d.g.Degree(d.byDegree[i]), d.g.Degree(d.byDegree[j])
		if di != dj {
			return di > dj
		}
		return d.byDegree[i] < d.byDegree[j]
	})
	return d, nil
}

// stackOptions is the production-default stack every workload runs on.
func stackOptions(wl workloadDef, traced bool) cluster.Options {
	o := cluster.Options{
		NumMachines:      machines,
		ProcsPerMachine:  1,
		CacheBytes:       cacheBytes,
		AggWindow:        aggWindow,
		ZeroCopy:         true,
		Replicas:         2,
		Hedge:            true,
		AdmitMaxInFlight: admitInFlight,
		AdmitMaxQueue:    admitQueue,
	}
	if wl.Kind == kindInfer {
		o.FeatCacheBytes = featCacheBytes
	}
	if wl.Kind == kindMixedWrite {
		o.Mutable = true
		o.CompactInterval = compactInterval
		o.MaxEpochs = maxEpochs
	}
	if traced {
		o.TraceSample = 1
		o.TraceBuf = traceRing
	}
	return o
}

func queryConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Alpha = alpha
	cfg.Eps = eps
	return cfg
}

// env is one running deployment with its front door open and the generator
// goroutines' connections dialled.
type env struct {
	wl   workloadDef
	data *dataset
	c    *cluster.Cluster
	cfg  core.Config
	upS  float64

	// Front door. qcs[w] is generator w's query client, one multiplexed
	// connection per owner; queryLat[m] is owner m's handler-time histogram.
	conns    []*rpc.Client
	qcs      []*core.QueryClient
	queryLat []*obs.Histogram

	// /infer front door (kindInfer only): one loopback HTTP server per owner.
	model      *gnn.SAGE
	infer      []*gnn.InferService
	inferLat   *obs.Histogram
	httpSrvs   []*http.Server
	httpAddrs  []string
	httpClient []*http.Client

	// tracer records the benchmark's own spans on a traced run (nil otherwise).
	tracer *obs.Tracer
	// poolLive0 is the process-wide count of checked-out pool bytes when this
	// deployment came up; earlier deployments of the process never return theirs.
	poolLive0 int64
	closed    bool
}

func bringUp(wl workloadDef, d *dataset, traced bool) (*env, error) {
	t := time.Now()
	poolLive0 := metrics.PoolLiveBytes.Load()
	c, err := cluster.NewFromShards(d.shards, d.loc, stackOptions(wl, traced), d.quality)
	if err != nil {
		return nil, fmt.Errorf("cluster up: %w", err)
	}
	e := &env{wl: wl, data: d, c: c, cfg: queryConfig(), poolLive0: poolLive0}
	if traced {
		e.tracer = obs.NewTracer(benchMachine, 1, traceRing)
	}
	reg := obs.NewRegistry()
	for m := 0; m < machines; m++ {
		h := reg.Histogram("bench_query_seconds", "owner handler time", obs.Labels{"machine": strconv.Itoa(m)}, nil)
		c.Servers[m].QueryLatency = h
		e.queryLat = append(e.queryLat, h)
		if err := c.Servers[m].EnableQueryService(c.Storages[m][0], e.cfg); err != nil {
			e.Close()
			return nil, err
		}
	}
	if wl.Kind == kindInfer {
		if err := e.openInfer(reg); err != nil {
			e.Close()
			return nil, err
		}
	}
	for w := 0; w < numClients(); w++ {
		cls := make([]*rpc.Client, machines)
		for j := range cls {
			cl, err := rpc.Dial(c.Addrs[j], rpc.LatencyModel{})
			if err != nil {
				e.Close()
				return nil, fmt.Errorf("dial owner %d: %w", j, err)
			}
			cls[j] = cl
			e.conns = append(e.conns, cl)
		}
		e.qcs = append(e.qcs, core.NewQueryClient(cls, d.loc.Locate))
	}
	e.upS = time.Since(t).Seconds()
	return e, nil
}

// openInfer attaches the feature tier and serves every owner's InferService
// behind a loopback HTTP listener.
func (e *env) openInfer(reg *obs.Registry) error {
	tc := gnn.DefaultTrainConfig()
	tc.FeatureDim, tc.Hidden, tc.NumClasses, tc.Seed = featureDim, hiddenDim, numClasses, modelSeed
	if _, err := gnn.Setup(e.c, tc); err != nil {
		return err
	}
	e.model = gnn.NewSAGE(featureDim, hiddenDim, numClasses, modelSeed)
	e.inferLat = reg.Histogram("bench_infer_seconds", "InferService time", nil, nil)
	for m := 0; m < machines; m++ {
		svc := &gnn.InferService{
			G: e.c.Storages[m][0], Model: e.model, TopK: inferTopK, NumClasses: numClasses,
			PPR: e.cfg, Latency: e.inferLat,
		}
		e.infer = append(e.infer, svc)
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("/infer", traceFromHeader(svc.Handler()))
		srv := &http.Server{Handler: mux}
		e.httpSrvs = append(e.httpSrvs, srv)
		e.httpAddrs = append(e.httpAddrs, lis.Addr().String())
		go srv.Serve(lis) // returns when Close shuts the server down
	}
	for w := 0; w < numClients(); w++ {
		e.httpClient = append(e.httpClient, &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		})
	}
	return nil
}

// Close stops the front door and the cluster, waiting for the HTTP servers.
// A second call does nothing.
func (e *env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, cl := range e.httpClient {
		cl.CloseIdleConnections()
	}
	for _, srv := range e.httpSrvs {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
		cancel()
	}
	for _, cl := range e.conns {
		cl.Close()
	}
	e.c.Close()
}
