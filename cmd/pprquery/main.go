// Command pprquery runs SSPPR queries as a compute process of a real
// deployment: it holds one shard locally (the machine it runs on) and
// reaches every other shard through a pprserve instance.
//
//	pprquery -shard shards/shard-0.bin -locator shards/locator.bin \
//	         -peers "1=127.0.0.1:7001" -source 42 -topk 10
//
// -source is a global node ID; it must belong to the local shard (the
// owner-compute rule: queries run on the machine that owns their source).
// -sources runs a comma-separated batch instead: failures are isolated (the
// remaining queries still run) but the process exits non-zero if any query
// failed, logging which serving machine/shard was at fault when the error is
// peer-attributable.
//
// -trace-sample enables client-side distributed tracing: each sampled
// query's trace context rides the wire, the serving machines record their
// side of the trace, and the per-query log line carries the trace ID to grep
// for on the servers' /debug/traces endpoints.
//
// -mutate applies streaming graph mutations instead of querying: the file's
// add-edge / del-edge / add-vertex lines are validated locally and posted to
// the mutation coordinator named by -mutate-url (the admin /mutate endpoint
// of the pprserve started with -mutable -coordinator).
//
// -tenant/-priority identify the queries to the owner's admission controller
// (pprserve -admit-max-inflight). A batch whose failures are all admission
// sheds exits with code 3 (back off and retry) instead of 1, and the
// controller's retry-after hint is printed per shed query.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"pprengine/internal/admit"
	"pprengine/internal/core"
	"pprengine/internal/delta"
	"pprengine/internal/deploy"
	"pprengine/internal/graph"
	"pprengine/internal/ha"
	"pprengine/internal/metrics"
	"pprengine/internal/obs"
	"pprengine/internal/rpc"
	"pprengine/internal/stack"
)

func main() {
	var (
		shardPath   = flag.String("shard", "", "local shard file (compute mode)")
		locPath     = flag.String("locator", "", "locator file (required)")
		peersSpec   = flag.String("peers", "", "compute mode: remote shards \"1=host:port,...\"; with replication, \"1=primary:port|replica:port,...\"")
		ownersSpec  = flag.String("owners", "", "thin mode: every shard's query service \"0=host:port,1=host:port,...\"; no local shard needed (requires pprserve -peers)")
		source      = flag.Int("source", 0, "global source node ID")
		sourcesCSV  = flag.String("sources", "", "batch mode: comma-separated global source IDs (overrides -source); exits non-zero if any query fails")
		topk        = flag.Int("topk", 10, "print the k best-ranked nodes")
		alpha       = flag.Float64("alpha", 0.462, "teleport probability")
		eps         = flag.Float64("eps", 1e-6, "residual threshold")
		timeout     = flag.Duration("timeout", 0, "per-query deadline (0 = none); expired queries exit with context.DeadlineExceeded")
		tenant      = flag.String("tenant", "", "tenant ID for admission control on the owner (empty = the shared untenanted bucket)")
		priority    = flag.Int("priority", 0, "admission priority: higher-priority queries queue ahead and may evict lower-priority waiters")
		dialTimeout = flag.Duration("dial-timeout", deploy.DefaultDialTimeout, "per-peer connect deadline")
		cacheBytes  = flag.Int64("cache-bytes", 0, "compute mode: byte budget for the dynamic remote neighbor-row cache (0 = disabled)")
		aggWindow   = flag.Duration("agg-window", 0, "compute mode: flush window for cross-query RPC fetch aggregation (0 = disabled unless -agg-rows is set)")
		aggRows     = flag.Int("agg-rows", 0, "compute mode: row cap per aggregated request; setting it also enables aggregation")
		zeroCopy    = flag.Bool("zerocopy", true, "fetch over the zero-copy path: pooled RPC buffers, view decoders, single decode per remote row (false = copy-decode every response)")
		replicas    = flag.Int("replicas", 0, "expected serving addresses per remote shard in -peers (0 = accept whatever is listed)")
		probeIvl    = flag.Duration("probe-interval", 0, "health-ping interval per peer when -peers lists replicas (0 = default 500ms)")
		breakerThr  = flag.Int("breaker-threshold", 0, "consecutive probe/request failures that open a peer's circuit breaker (0 = default)")
		mutateFile  = flag.String("mutate", "", "apply streaming graph mutations instead of querying: a file of \"add-edge <src> <dst> <w>\" / \"del-edge <src> <dst>\" / \"add-vertex <id>\" lines (\"-\" = stdin), posted to -mutate-url")
		mutateURL   = flag.String("mutate-url", "", "the mutation coordinator's endpoint, e.g. http://host:9090/mutate (the admin address of the pprserve started with -mutable -coordinator)")
		traceSample = flag.Float64("trace-sample", 0, "fraction of queries to trace end to end (0 = off, 1 = all)")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat   = flag.String("log-format", "text", "log format: text or json")
	)
	flag.Parse()
	logger, err := obs.NewLogger(*logLevel, *logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pprquery:", err)
		os.Exit(2)
	}
	if *mutateFile != "" {
		runMutate(logger, *mutateFile, *mutateURL, *timeout)
		return
	}
	if *locPath == "" {
		logger.Error("missing required flag", "flag", "-locator")
		os.Exit(2)
	}
	sources, err := parseSources(*sourcesCSV, *source)
	if err != nil {
		logger.Error("bad -sources", "err", err)
		os.Exit(2)
	}
	if *ownersSpec != "" {
		runThin(logger, *locPath, *ownersSpec, sources, *topk, *alpha, *eps, *timeout, *dialTimeout, *traceSample, *tenant, *priority)
		return
	}
	if *shardPath == "" {
		logger.Error("pass -shard (compute mode) or -owners (thin mode)")
		os.Exit(2)
	}
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
	cfg.Alpha = *alpha
	cfg.Eps = *eps
	cfg.QueryTimeout = *timeout
	cfg.ZeroCopy = *zeroCopy
	cfg.Tenant = *tenant
	cfg.Priority = *priority
	mcfg := stack.Config{CacheBytes: *cacheBytes, AggWindow: *aggWindow, AggRows: *aggRows, ZeroCopy: *zeroCopy}
	haOpts := ha.Options{ProbeInterval: *probeIvl, BreakerThreshold: *breakerThr}
	dialCtx, cancelDial := context.WithTimeout(context.Background(), *dialTimeout)
	machine, err := deploy.Connect(dialCtx, *shardPath, *locPath, peers, mcfg, haOpts, rpc.LatencyModel{})
	cancelDial()
	if err != nil {
		logger.Error("connect failed", "err", err)
		os.Exit(1)
	}
	defer machine.Close()
	st := machine.Handles[0]
	// Sampling and feature fetches have no per-query Config; their zero-copy
	// gate follows the same -zerocopy knob as the fetch path.
	st.ZeroCopy = *zeroCopy
	if *traceSample > 0 {
		st.AttachTracer(obs.NewTracer(st.ShardID, *traceSample, 0))
	}

	failed, shed := 0, 0
	for _, src := range sources {
		sh, local := st.Locator.Locate(graph.NodeID(src))
		if sh != st.ShardID {
			logger.Error("source not local (owner-compute rule)",
				"source", src, "owner_shard", sh, "local_shard", st.ShardID)
			failed++
			continue
		}
		bd := metrics.NewBreakdown()
		start := time.Now()
		top, stats, err := core.RunSSPPRTopK(context.Background(), st, local, *topk, cfg, bd)
		if err != nil {
			failed++
			if errors.Is(err, admit.ErrShed) {
				shed++
			}
			logQueryError(logger, src, err)
			continue
		}
		logger.Info("query done", queryAttrs(src, time.Since(start), st.Tracer)...)
		fmt.Printf("SSPPR from %d (alpha=%.3f eps=%.0e): %d iterations, %d pushes, %d touched\n",
			src, *alpha, *eps, stats.Iterations, stats.Pushes, stats.TouchedNodes)
		fmt.Printf("rows: local=%d halo=%d remote=%d cachehit=%d coalesced=%d; %s\n",
			stats.LocalRows, stats.HaloRows, stats.RemoteRows, stats.CacheHits, stats.CacheCoalesced, bd)
		for rank, sn := range top {
			fmt.Printf("%3d. node %-8d π = %.6g\n",
				rank+1, st.Locator.Global(sn.Key.Shard, sn.Key.Local), sn.Score)
		}
	}
	exitBatch(logger, len(sources), failed, shed)
}

// parseSources resolves the batch: -sources when given, else the single
// -source.
func parseSources(csv string, single int) ([]int, error) {
	if strings.TrimSpace(csv) == "" {
		return []int{single}, nil
	}
	var out []int
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad source %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// logQueryError logs one failed query, attributing it to the serving peer at
// fault when the error chain identifies one (see ha.FaultOf). A shed query
// also surfaces the controller's retry-after hint.
func logQueryError(logger *slog.Logger, src int, err error) {
	var se *admit.ShedError
	if errors.As(err, &se) {
		logger.Error("query shed by admission control", "source", src,
			"reason", se.Reason, "queue_depth", se.QueueDepth, "retry_after", se.RetryAfter)
		if se.RetryAfter > 0 {
			fmt.Fprintf(os.Stderr, "query for %d was shed (%s); retry in %v\n", src, se.Reason, se.RetryAfter)
		} else {
			fmt.Fprintf(os.Stderr, "query for %d was shed (%s); retry with a larger -timeout\n", src, se.Reason)
		}
		return
	}
	if fm, fs, ok := ha.FaultOf(err); ok {
		logger.Error("query failed", "source", src, "err", err,
			"fault_machine", fm, "fault_shard", fs)
		return
	}
	logger.Error("query failed", "source", src, "err", err)
}

// queryAttrs builds the per-query log attributes, adding the trace ID of the
// most recent locally-rooted trace when tracing is on — the ID to grep for on
// the serving machines' /debug/traces.
func queryAttrs(src int, dur time.Duration, tr *obs.Tracer) []any {
	attrs := []any{"source", src, "dur", dur}
	if tr == nil {
		return attrs
	}
	spans := tr.Spans()
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Name == "query" && spans[i].Parent == 0 {
			return append(attrs, "trace", obs.TraceIDString(spans[i].Trace))
		}
	}
	return attrs
}

// exitBatch reports the batch outcome: any failed query exits non-zero.
// Exit code 3 means every failure was an admission shed — the queries were
// rejected early by an overloaded or quota-limited owner, not broken — so
// callers can back off and retry instead of alerting. Any harder failure
// keeps the generic code 1.
func exitBatch(logger *slog.Logger, total, failed, shed int) {
	if failed > 0 {
		logger.Error("batch finished with failures", "queries", total, "failed", failed, "shed", shed)
		if shed == failed {
			os.Exit(3)
		}
		os.Exit(1)
	}
	if total > 1 {
		logger.Info("batch finished", "queries", total)
	}
}

// runMutate parses the line-oriented mutation file and posts it to the
// deployment's mutation coordinator (pprserve -mutable -coordinator), then
// prints the epoch the batch became visible at. Mutation mode needs no
// shard or locator: resolution and epoch assignment happen on the
// coordinator.
func runMutate(logger *slog.Logger, file, url string, timeout time.Duration) {
	if url == "" {
		logger.Error("missing required flag", "flag", "-mutate-url")
		os.Exit(2)
	}
	var in io.Reader = os.Stdin
	if file != "-" {
		f, err := os.Open(file)
		if err != nil {
			logger.Error("open mutation file failed", "err", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	// Parse locally before sending: a syntax error fails fast here with its
	// line number instead of round-tripping to the coordinator.
	muts, err := delta.ParseMutations(in)
	if err != nil {
		logger.Error("bad mutation file", "file", file, "err", err)
		os.Exit(2)
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	body := delta.FormatMutations(muts)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		logger.Error("bad -mutate-url", "err", err)
		os.Exit(2)
	}
	req.Header.Set("Content-Type", "text/plain")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		logger.Error("mutation post failed", "err", err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		logger.Error("coordinator rejected mutations",
			"status", resp.StatusCode, "body", strings.TrimSpace(string(msg)))
		os.Exit(1)
	}
	var ack struct {
		Epoch     uint64 `json:"epoch"`
		Mutations int    `json:"mutations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		logger.Error("bad coordinator response", "err", err)
		os.Exit(1)
	}
	logger.Info("mutations applied", "count", ack.Mutations, "epoch", ack.Epoch, "dur", time.Since(start))
	fmt.Printf("applied %d mutations; graph now at epoch %d\n", ack.Mutations, ack.Epoch)
}

// runThin dispatches queries to their owners' query services (owner-compute
// over RPC) instead of computing locally.
func runThin(logger *slog.Logger, locPath, ownersSpec string, sources []int, topk int, alpha, eps float64, timeout, dialTimeout time.Duration, traceSample float64, tenant string, priority int) {
	owners, err := deploy.ParsePeers(ownersSpec)
	if err != nil {
		logger.Error("bad -owners", "err", err)
		os.Exit(2)
	}
	dialCtx, cancelDial := context.WithTimeout(context.Background(), dialTimeout)
	qc, cleanup, err := deploy.ConnectThin(dialCtx, locPath, owners, rpc.LatencyModel{})
	cancelDial()
	if err != nil {
		logger.Error("connect failed", "err", err)
		os.Exit(1)
	}
	defer cleanup()
	qc.Tenant = tenant
	qc.Priority = priority
	// The thin client is the trace head: a sampled dispatch's context rides
	// the query request, and the owner's whole distributed execution joins
	// the trace. Machine -1 marks spans recorded outside the cluster.
	var tracer *obs.Tracer
	if traceSample > 0 {
		tracer = obs.NewTracer(-1, traceSample, 0)
	}
	failed, shed := 0, 0
	for _, src := range sources {
		ctx := context.Background()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		span := tracer.StartTrace("dispatch")
		ctx = obs.ContextWith(ctx, span.Context())
		sc := span.Context()
		start := time.Now()
		resp, err := qc.Query(ctx, graph.NodeID(src), topk, alpha, eps)
		span.SetErr(err != nil)
		span.End()
		if err != nil {
			failed++
			if errors.Is(err, admit.ErrShed) {
				shed++
			}
			logQueryError(logger, src, err)
			continue
		}
		attrs := []any{"source", src, "dur", time.Since(start)}
		if sc.Valid() {
			attrs = append(attrs, "trace", obs.TraceIDString(sc.TraceID))
		}
		logger.Info("query done", attrs...)
		fmt.Printf("SSPPR from %d (remote, alpha=%.3f eps=%.0e): %d iterations, %d pushes, %d touched\n",
			src, alpha, eps, resp.Iterations, resp.Pushes, resp.Touched)
		for i := range resp.Globals {
			fmt.Printf("%3d. node %-8d π = %.6g\n", i+1, resp.Globals[i], resp.Scores[i])
		}
	}
	exitBatch(logger, len(sources), failed, shed)
}
