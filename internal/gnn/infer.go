package gnn

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"pprengine/internal/admit"
	"pprengine/internal/core"
	"pprengine/internal/metrics"
	"pprengine/internal/obs"
)

// Forwarder is the inference-time face of a model: ego logits for a batch.
// *SAGE, and any model exposing Forward, satisfies it (the training Model
// interface deliberately does not include Forward — training goes through
// Loss).
type Forwarder interface {
	Forward(b *Batch) []float32
}

// InferService is the end-to-end serving pipeline of §4.5 on one compute
// handle: SSPPR from the ego → top-K subgraph induction + cross-machine
// feature slice (ConvertBatch) → model forward → logits. One instance is
// safe for concurrent use (the model is read-only at inference time).
type InferService struct {
	G     *core.DistGraphStorage
	Model Forwarder
	// TopK bounds the batch (ego always included); NumClasses sizes the
	// logits row.
	TopK       int
	NumClasses int
	// PPR configures the SSPPR stage (DefaultConfig when zero-valued Alpha).
	PPR core.Config
	// Latency, when non-nil, observes end-to-end inference seconds.
	Latency *obs.Histogram
}

// InferResult is one served inference.
type InferResult struct {
	Source    int32     `json:"source"`
	Class     int       `json:"class"`
	Logits    []float32 `json:"logits"`
	BatchSize int       `json:"batch_size"`
	Pushes    int64     `json:"pushes"`
}

// Infer serves one inference for a core vertex of the local shard. The whole
// pipeline runs under one trace: a context already carrying a span joins it,
// otherwise the service's tracer makes the sampling decision at an "infer"
// root, and the SSPPR query, every fetch RPC, and the convert phase appear
// as its descendants.
func (s *InferService) Infer(ctx context.Context, sourceLocal int32) (*InferResult, error) {
	return s.InferAs(ctx, sourceLocal, s.PPR.Tenant, s.PPR.Priority)
}

// InferAs is Infer with an explicit admission identity: the SSPPR stage
// charges tenant's quota bucket and waits at priority when the owner runs an
// admission controller. A shed surfaces as an error matching admit.ErrShed.
func (s *InferService) InferAs(ctx context.Context, sourceLocal int32, tenant string, priority int) (*InferResult, error) {
	start := time.Now()
	tr := s.G.Tracer
	var root obs.ActiveSpan
	if sc := obs.FromContext(ctx); sc.Valid() {
		root = tr.StartSpan(sc, "infer")
	} else {
		root = tr.StartTrace("infer")
	}
	ctx = obs.ContextWith(ctx, root.Context())
	res, err := s.infer(ctx, sourceLocal, tenant, priority)
	root.SetErr(err != nil)
	root.End()
	if err != nil {
		metrics.InferFailures.Inc(1)
		return nil, err
	}
	metrics.InferServed.Inc(1)
	if s.Latency != nil {
		s.Latency.Observe(time.Since(start).Seconds())
	}
	return res, nil
}

func (s *InferService) infer(ctx context.Context, sourceLocal int32, tenant string, priority int) (*InferResult, error) {
	cfg := s.PPR
	if cfg.Alpha == 0 {
		cfg = core.DefaultConfig()
	}
	cfg.Tenant = tenant
	cfg.Priority = priority
	m, stats, err := core.RunSSPPR(ctx, s.G, sourceLocal, cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("gnn: infer source %d: ssppr: %w", sourceLocal, err)
	}
	b, err := ConvertBatch(ctx, s.G, m, sourceLocal, s.TopK, s.NumClasses)
	m.Release() // the batch holds copies of the scores it kept
	if err != nil {
		return nil, fmt.Errorf("gnn: infer source %d: %w", sourceLocal, err)
	}
	logits := s.Model.Forward(b)
	best := 0
	for c := 1; c < len(logits); c++ {
		if logits[c] > logits[best] {
			best = c
		}
	}
	return &InferResult{
		Source:    sourceLocal,
		Class:     best,
		Logits:    logits,
		BatchSize: b.N,
		Pushes:    stats.Pushes,
	}, nil
}

// Handler returns the HTTP face of the service: GET
// /infer?source=N[&tenant=T&priority=P] serves one inference and returns the
// InferResult as JSON. A request shed by the owner's admission controller
// maps to 429 Too Many Requests with a Retry-After header (whole seconds,
// rounded up), so standard HTTP clients back off correctly. Mounted on the
// obs admin server by cmd/pprserve.
func (s *InferService) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		src, err := strconv.ParseInt(q.Get("source"), 10, 32)
		if err != nil {
			http.Error(w, "missing or invalid ?source=<local vertex id>", http.StatusBadRequest)
			return
		}
		priority := 0
		if p := q.Get("priority"); p != "" {
			pv, err := strconv.Atoi(p)
			if err != nil {
				http.Error(w, "invalid ?priority=<int>", http.StatusBadRequest)
				return
			}
			priority = pv
		}
		res, err := s.InferAs(r.Context(), int32(src), q.Get("tenant"), priority)
		if err != nil {
			var shed *admit.ShedError
			if errors.As(err, &shed) {
				secs := int64(shed.RetryAfter+time.Second-1) / int64(time.Second)
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
				http.Error(w, err.Error(), http.StatusTooManyRequests)
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(res)
	})
}
