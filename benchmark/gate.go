package main

import (
	"context"
	"fmt"
	"math"

	"pprengine/internal/graph"
	"pprengine/internal/ppr"
)

// gate sends n seeded sources of the workload's own mix through the front
// door and holds each answer against the single-process oracles of
// internal/ppr on g (checkAnswer). On the /infer workload it also checks that
// the served logits are finite and match an in-process InferService.Infer on
// the same handle. Any miss is an error; the caller exits non-zero and prints
// no metrics.
func (e *env) gate(g *graph.Graph, symmetric bool, seed, phaseID int64, n int) error {
	ctx := context.Background()
	gen := newSourceGen(e.data, e.wl, seed, 0, phaseID)
	for i := 0; i < n; i++ {
		src := gen.next()
		resp, err := e.qcs[0].Query(ctx, src, topK, 0, 0)
		if err != nil {
			return fmt.Errorf("gate: query %d: %w", src, err)
		}
		if err := checkAnswer(g, symmetric, src, resp.Globals, resp.Scores); err != nil {
			return fmt.Errorf("gate: source %d: %w", src, err)
		}
		if e.wl.Kind != kindInfer {
			continue
		}
		served, err := e.httpInfer(ctx, 0, src)
		if err != nil {
			return fmt.Errorf("gate: %w", err)
		}
		sh, local := e.data.loc.Locate(src)
		direct, err := e.infer[sh].Infer(ctx, local)
		if err != nil {
			return fmt.Errorf("gate: in-process infer %d: %w", src, err)
		}
		if err := sameLogits(served.Logits, direct.Logits); err != nil {
			return fmt.Errorf("gate: infer %d over HTTP vs in-process: %w", src, err)
		}
	}
	return nil
}

// checkAnswer holds one top-K answer against the oracles.
//
// Scores, against PowerIteration: Forward Push never overshoots the exact
// value and, on a symmetric graph, undershoots vertex v by at most
// eps*wdeg(v). The bound is what the algorithm promises; plain precision@K
// against the exact ranking is not, because a hub next to a hub source keeps
// its mass as residual below eps*wdeg and scores 0 (measured: 1/64 on a
// twitter-sim supernode, for the single-process ForwardPush too).
//
// Selection, against the single-process ForwardPush at the same eps: at
// least gatePrecision of the returned vertices belong to the reference top-K,
// counting a vertex in when its reference score is within that same
// eps*wdeg(v) of the K-th — push order moves scores by that much, and a hub
// source has thousands of near-tied neighbours.
func checkAnswer(g *graph.Graph, symmetric bool, src graph.NodeID, ids []int32, scores []float64) error {
	if len(ids) == 0 || len(ids) != len(scores) {
		return fmt.Errorf("malformed answer: %d ids, %d scores", len(ids), len(scores))
	}
	slack := func(v int32) float64 { return 2 * eps * float64(g.WeightedDegree[v]) }
	if symmetric && g.Degree(src) > 0 {
		exact, _ := ppr.PowerIteration(g, src, alpha, 1e-9, 100)
		for i, v := range ids {
			if d := exact[v] - scores[i]; d < -1e-6 || d > slack(v)+1e-6 {
				return fmt.Errorf("vertex %d: score %g vs PowerIteration %g, outside [0, eps*wdeg]", v, scores[i], exact[v])
			}
		}
	}
	ref := ppr.ForwardPush(g, src, alpha, eps).Scores
	var kth float64
	if top := ppr.TopKOfMap(ref, topK); len(top) == topK {
		kth = ref[top[topK-1]]
	}
	hits := 0
	for i, v := range ids {
		if i > 0 && scores[i] > scores[i-1] {
			return fmt.Errorf("answer not sorted by score at rank %d", i)
		}
		if ref[v]+slack(v) >= kth {
			hits++
		}
	}
	if p := float64(hits) / float64(len(ids)); p < gatePrecision || len(ids) < min(topK, len(ref)) {
		return fmt.Errorf("precision@%d %.3f (%d answers) against ForwardPush, want >= %.2f", topK, p, len(ids), gatePrecision)
	}
	return nil
}

// sameLogits compares two servings of one source. They are not bitwise equal:
// the push workers drain Go maps, so float accumulation order (and a top-K
// tie at the last rank) differs from run to run.
func sameLogits(a, b []float32) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d logits vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := float64(a[i]), float64(b[i])
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("logit %d is not finite", i)
		}
		if math.Abs(x-y) > logitTolerance*(1+math.Abs(y)) {
			return fmt.Errorf("logit %d: %g vs %g", i, x, y)
		}
	}
	return nil
}
