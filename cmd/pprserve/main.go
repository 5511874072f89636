// Command pprserve runs one machine's Graph Storage server: it loads a
// shard file (from cmd/partition) and its locator, binds a TCP address, and
// answers neighbor-info / sampling / feature requests until interrupted.
//
// A real 4-machine deployment is four of these plus compute processes
// (cmd/pprquery or an embedding program) connecting with -peers:
//
//	pprserve -shard shards/shard-0.bin -locator shards/locator.bin -listen :7000
//	pprserve -shard shards/shard-1.bin -locator shards/locator.bin -listen :7001
//	...
//	pprquery -shard shards/shard-0.bin -locator shards/locator.bin \
//	         -peers "1=host1:7001,2=host2:7002,3=host3:7003" -source 42 -topk 10
//
// With replication, each remote shard lists its serving addresses primary
// first ("1=host1:7001|host2:7101"), and served queries fail over to a
// replica when the primary is unreachable (see DESIGN.md §5f).
//
// With -admin-addr the process also serves an operator HTTP endpoint:
// Prometheus metrics on /metrics, liveness on /healthz, readiness on /readyz
// (not-ready while bootstrapping, while draining, and — in replicated mode —
// while some remote shard has every breaker open), recent slow traces on
// /debug/traces, and the standard pprof handlers. -trace-sample turns on
// head-based query tracing; sampled trace contexts ride the wire protocol, so
// this server also records spans for traces started by its clients.
//
// With -admit-max-inflight the served queries pass through an admission
// controller (DESIGN.md §5k): per-tenant token buckets, a bounded priority
// wait queue, and deadline-aware load shedding. /readyz reports 503 while the
// queue is saturated, and /debug/admit dumps the controller snapshot
// (per-tenant bucket levels, queue depth, shed counters) as JSON. With
// replicated -peers, -hedge additionally duplicates slow remote fetches to a
// healthy replica.
//
// With -mutable the shard accepts streaming graph mutations through a
// delta-CSR store (DESIGN.md §5l); the one process also passing -coordinator
// assigns mutation epochs and mirrors batches to every peer, and exposes
// POST /mutate (the `pprquery -mutate` line format in the body) plus
// /debug/epochs on its admin server.
//
// On SIGTERM/SIGINT the server shuts down gracefully: it flips /readyz
// not-ready (so load balancers stop routing to it), stops accepting work, and
// waits up to -drain for in-flight requests to finish, so replicas taking
// over mid-stream see completed responses, not torn connections. A second
// signal forces immediate exit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pprengine/internal/core"
	"pprengine/internal/delta"
	"pprengine/internal/deploy"
	"pprengine/internal/gnn"
	"pprengine/internal/ha"
	"pprengine/internal/obs"
	"pprengine/internal/rpc"
	"pprengine/internal/stack"
)

func main() {
	var (
		shardPath    = flag.String("shard", "", "shard file (required)")
		locPath      = flag.String("locator", "", "locator file (required)")
		listen       = flag.String("listen", ":7000", "TCP listen address")
		peersSpec    = flag.String("peers", "", "other shards (\"1=host:port|replica:port,...\"); enables the SSPPR query service for this shard's vertices")
		dialTimeout  = flag.Duration("dial-timeout", deploy.DefaultDialTimeout, "per-peer connect deadline for the query service")
		queryTimeout = flag.Duration("query-timeout", 0, "default per-query deadline for served SSPPR queries (0 = none; a client-propagated deadline overrides it)")
		cacheBytes   = flag.Int64("cache-bytes", 0, "byte budget for the dynamic remote neighbor-row cache used by served queries (0 = disabled)")
		aggWindow    = flag.Duration("agg-window", 0, "flush window for cross-query RPC fetch aggregation of served queries (0 = disabled unless -agg-rows is set)")
		aggRows      = flag.Int("agg-rows", 0, "row cap per aggregated request; setting it also enables aggregation (0 = disabled unless -agg-window is set)")
		zeroCopy     = flag.Bool("zerocopy", true, "serve queries over the zero-copy fetch path: pooled RPC buffers, view decoders, single decode per remote row (false = copy-decode every response)")
		featureDim   = flag.Int("feature-dim", 0, "synthesize a per-vertex feature block of this dimension and serve MethodFetchFeatures plus the /infer endpoint (0 = no feature tier)")
		numClasses   = flag.Int("num-classes", 4, "label/logit classes for the feature tier")
		hidden       = flag.Int("hidden", 32, "GraphSAGE hidden width for /infer")
		topK         = flag.Int("topk", 128, "top-K subgraph size per inference")
		modelSeed    = flag.Int64("model-seed", 1, "seed for the synthetic features and model weights (must match across machines)")
		featCacheB   = flag.Int64("feat-cache-bytes", 0, "byte budget for the remote feature-row cache used by inference (0 = disabled)")
		featAdmit    = flag.Float64("feat-admit-mass", 0, "minimum PPR mass for a fetched feature row to be cached (0 = admit all)")
		admitInFl    = flag.Int("admit-max-inflight", 0, "max concurrently executing served queries; enables the admission controller (0 = no admission control)")
		admitQueue   = flag.Int("admit-queue", 0, "queries allowed to wait for a slot beyond -admit-max-inflight; beyond that they are shed")
		tenantRate   = flag.Float64("tenant-rate", 0, "per-tenant token-bucket refill rate, queries/sec (0 = no per-tenant quotas)")
		tenantBurst  = flag.Float64("tenant-burst", 0, "per-tenant token-bucket capacity (0 = rate)")
		hedge        = flag.Bool("hedge", false, "hedge slow remote fetches to a healthy replica (needs replicated -peers)")
		hedgeDelay   = flag.Duration("hedge-delay", 0, "fixed hedge delay (0 = adapt to the observed per-shard p95)")
		drain        = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline: how long to wait for in-flight requests after SIGTERM/SIGINT")
		replicas     = flag.Int("replicas", 0, "expected serving addresses per remote shard in -peers (0 = accept whatever is listed)")
		probeIvl     = flag.Duration("probe-interval", 0, "health-ping interval per peer when -peers lists replicas (0 = default 500ms)")
		breakerThr   = flag.Int("breaker-threshold", 0, "consecutive probe/request failures that open a peer's circuit breaker (0 = default)")
		mutable      = flag.Bool("mutable", false, "accept streaming graph mutations: this shard gains a delta-CSR store, served queries pin a mutation epoch at admission (DESIGN.md §5l)")
		coordinator  = flag.Bool("coordinator", false, "be the deployment's mutation coordinator: resolve client mutations, assign epochs, mirror batches to every peer; exactly one process per deployment, needs -mutable and -peers; enables POST /mutate on the admin server")
		compactIvl   = flag.Duration("compact-interval", 0, "background delta-compaction period (0 = compact only on -max-epochs overflow)")
		maxEpochs    = flag.Int("max-epochs", 0, "live (uncompacted) mutation epochs allowed before a forced compaction (0 = unbounded)")
		adminAddr    = flag.String("admin-addr", "", "admin HTTP address for /metrics, /healthz, /readyz, /debug/traces, /debug/pprof (empty = disabled)")
		traceSample  = flag.Float64("trace-sample", 0, "fraction of locally-started queries to trace (0 = off; remote-initiated traces are always honored)")
		traceBuf     = flag.Int("trace-buf", 0, "span ring-buffer capacity (0 = default)")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat    = flag.String("log-format", "text", "log format: text or json")
	)
	flag.Parse()
	logger, err := obs.NewLogger(*logLevel, *logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pprserve:", err)
		os.Exit(2)
	}
	if *shardPath == "" || *locPath == "" {
		logger.Error("missing required flags", "flags", "-shard, -locator")
		os.Exit(2)
	}
	srv, addr, err := deploy.Serve(*shardPath, *locPath, *listen)
	if err != nil {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
	// The sampling handler has no per-request knob; its zero-copy gate
	// follows the same -zerocopy flag as the fetch path.
	srv.SetSampleZeroCopy(*zeroCopy)
	// The tracer is attached before the query service starts so the server's
	// rpc spans and served queries' driver spans share one ring buffer. Even
	// at -trace-sample 0 it records spans for traces sampled by clients.
	tracer := obs.NewTracer(srv.Shard.ShardID, *traceSample, *traceBuf)
	srv.AttachTracer(tracer)
	logger.Info("serving shard",
		"shard", srv.Shard.ShardID, "core_nodes", srv.Shard.NumCore(), "addr", addr)

	// Feature tier: synthesize this shard's feature block deterministically
	// from (model-seed, shard ID) — every machine running the same flags
	// derives consistent features, and replicas of a shard serve bitwise-
	// identical rows. Real deployments would load the block from disk here.
	var feats []float32
	if *featureDim > 0 {
		feats = gnn.MakeFeatures(srv.Shard, *featureDim, *numClasses, *modelSeed+int64(srv.Shard.ShardID))
		if err := srv.AttachFeatures(*featureDim, feats); err != nil {
			logger.Error("feature attach failed", "err", err)
			os.Exit(1)
		}
		logger.Info("feature tier enabled", "dim", *featureDim, "classes", *numClasses)
	}

	var admin *obs.Admin
	if *adminAddr != "" {
		admin = obs.NewAdmin(nil)
		reg := admin.Registry()
		obs.RegisterEngineMetrics(reg)
		obs.RegisterPhaseMetrics(reg, srv.QueryPhases())
		obs.RegisterGoMetrics(reg)
		srv.QueryLatency = reg.Histogram("ppr_query_seconds",
			"Wall time of served SSPPR queries.", nil, obs.DefBuckets)
		reg.CounterFunc("ppr_queries_served_total",
			"SSPPR queries answered by this server (failures included).", nil,
			func() float64 { served, _ := srv.QueryCounts(); return float64(served) })
		reg.CounterFunc("ppr_query_failures_total",
			"Served SSPPR queries that returned an error.", nil,
			func() float64 { _, failed := srv.QueryCounts(); return float64(failed) })
		admin.AttachTracer(tracer)
		bound, err := admin.ListenAndServe(*adminAddr)
		if err != nil {
			logger.Error("admin server failed", "err", err)
			os.Exit(1)
		}
		logger.Info("admin server up", "addr", bound)
	}

	// Hoisted out of the query-service block so the mutation tier below can
	// wire the compute handle (epoch pinning) and the coordinator's peers.
	var compute *core.DistGraphStorage
	var primaryPeers map[int32]string
	if *peersSpec != "" {
		peers, err := deploy.ParseReplicaPeers(*peersSpec)
		if err != nil {
			logger.Error("bad -peers", "err", err)
			os.Exit(2)
		}
		if err := deploy.ValidateReplicas(peers, *replicas); err != nil {
			logger.Error("replica validation failed", "err", err)
			os.Exit(2)
		}
		cfg := core.DefaultConfig()
		cfg.QueryTimeout = *queryTimeout
		cfg.ZeroCopy = *zeroCopy
		mcfg := stack.Config{
			CacheBytes: *cacheBytes, AggWindow: *aggWindow, AggRows: *aggRows, ZeroCopy: *zeroCopy,
			FeatCacheBytes: *featCacheB, FeatAdmitMass: *featAdmit,
			AdmitMaxInFlight: *admitInFl, AdmitMaxQueue: *admitQueue,
			AdmitTenantRate: *tenantRate, AdmitTenantBurst: *tenantBurst,
			Hedge: *hedge, HedgeDelay: *hedgeDelay,
		}
		primaryPeers = deploy.PrimaryPeers(peers)
		ctx, cancel := context.WithTimeout(context.Background(), *dialTimeout)
		haOpts := ha.Options{ProbeInterval: *probeIvl, BreakerThreshold: *breakerThr}
		machine, err := deploy.EnableQueries(ctx, srv, peers, mcfg, cfg, haOpts, rpc.LatencyModel{})
		cancel()
		if err != nil {
			logger.Error("query service failed", "err", err)
			os.Exit(1)
		}
		defer machine.Close()
		compute = machine.Handles[0]
		compute.ZeroCopy = *zeroCopy
		logger.Info("query service enabled", "peers", deploy.FormatReplicaPeers(peers), "fetch_chain", machine.Stages())
		if machine.Router != nil && admin != nil {
			// A remote shard with every serving copy's breaker open means
			// queries touching it will fail: report not-ready so traffic
			// shifts to an owner that can still reach the whole graph.
			admin.AddCheck("breakers", machine.Router.ReadyCheck)
		}
		if machine.Hedger != nil {
			logger.Info("hedged fetches enabled", "delay", *hedgeDelay)
		}
		if ctrl := compute.Admit; ctrl != nil {
			logger.Info("admission control enabled",
				"max_inflight", *admitInFl, "queue", *admitQueue,
				"tenant_rate", *tenantRate, "tenant_burst", *tenantBurst)
			if admin != nil {
				// Saturated queue → /readyz 503: load balancers route new
				// queries to owners with headroom instead of feeding the shed.
				admin.AddCheck("admission", ctrl.ReadyCheck)
				admin.Handle("/debug/admit", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					w.Header().Set("Content-Type", "application/json")
					json.NewEncoder(w).Encode(ctrl.Snapshot())
				}))
				ctrl.SetLatencyHook(obs.TenantLatencyHook(admin.Registry()))
			}
		}

		if *featureDim > 0 {
			// End-to-end serving (§4.5): SSPPR → top-K subgraph + feature
			// slice → GraphSAGE forward. The model is derived from the shared
			// seed, so every owner serves the same network.
			compute.AttachLocalFeatures(*featureDim, feats)
			svc := &gnn.InferService{
				G:          compute,
				Model:      gnn.NewSAGE(*featureDim, *hidden, *numClasses, *modelSeed),
				TopK:       *topK,
				NumClasses: *numClasses,
				PPR:        cfg,
			}
			if admin != nil {
				svc.Latency = admin.Registry().Histogram("ppr_infer_seconds",
					"End-to-end wall time of served GNN inferences.", nil, obs.DefBuckets)
				admin.Handle("/infer", svc.Handler())
				logger.Info("inference endpoint enabled", "path", "/infer", "topk", *topK)
			}
		}
	}
	if *mutable {
		mctx, mcancel := context.WithTimeout(context.Background(), *dialTimeout)
		store, coord, mcleanup, err := deploy.EnableMutations(mctx, srv, compute, primaryPeers,
			deploy.MutateOptions{
				Coordinator:     *coordinator,
				CompactInterval: *compactIvl,
				MaxEpochs:       *maxEpochs,
			}, rpc.LatencyModel{})
		mcancel()
		if err != nil {
			logger.Error("mutation tier failed", "err", err)
			os.Exit(1)
		}
		defer mcleanup()
		logger.Info("mutation tier enabled",
			"coordinator", *coordinator, "compact_interval", *compactIvl, "max_epochs", *maxEpochs)
		if admin != nil {
			// Epoch/compaction observability: the store snapshot as JSON.
			admin.Handle("/debug/epochs", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(store.Stats())
			}))
			if coord != nil {
				// POST /mutate: the line format of `pprquery -mutate` in the
				// request body; responds with the epoch the batch landed at.
				admin.Handle("/mutate", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.Method != http.MethodPost {
						http.Error(w, "POST only", http.StatusMethodNotAllowed)
						return
					}
					muts, err := delta.ParseMutations(r.Body)
					if err != nil {
						http.Error(w, err.Error(), http.StatusBadRequest)
						return
					}
					epoch, err := coord.Apply(r.Context(), muts)
					if err != nil {
						http.Error(w, err.Error(), http.StatusUnprocessableEntity)
						return
					}
					w.Header().Set("Content-Type", "application/json")
					json.NewEncoder(w).Encode(map[string]any{
						"epoch":     epoch,
						"mutations": len(muts),
					})
				}))
				logger.Info("mutation endpoint enabled", "path", "/mutate")
			}
		}
	}
	if admin != nil {
		admin.SetReady(true)
	}
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if admin != nil {
		// Flip not-ready first: probes and load balancers route away while
		// in-flight requests drain below.
		admin.SetReady(false)
	}
	logger.Info("shutting down", "drain", *drain, "note", "signal again to force")
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		if err != nil {
			logger.Error("drain incomplete", "err", err)
			os.Exit(1)
		}
		if admin != nil {
			shCtx, shCancel := context.WithTimeout(context.Background(), 2*time.Second)
			admin.Shutdown(shCtx)
			shCancel()
		}
		logger.Info("drained, bye")
	case <-sig:
		logger.Error("forced exit")
		srv.Close()
		os.Exit(1)
	}
}
