package core

import (
	"context"

	"pprengine/internal/metrics"
	"pprengine/internal/pmap"
)

// Top-K SSPPR — the form most GNN samplers consume (ShaDow takes the top-K
// PPR vertices per ego node, paper §2.1.1 and §4.5).

// ScoredNode is one (node, score) result.
type ScoredNode struct {
	Key   pmap.Key
	Score float64
}

// worse reports whether a ranks below b: by lower score, ties by higher
// (shard, local). Keys are unique within a result, so the order is total and
// a top-K is the same whatever order the scores were offered in.
func worse(a, b ScoredNode) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	if a.Key.Shard != b.Key.Shard {
		return a.Key.Shard > b.Key.Shard
	}
	return a.Key.Local > b.Key.Local
}

// topHeap is a bounded min-heap under worse: the root is the worst node kept.
type topHeap []ScoredNode

func (h topHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && worse(h[c+1], h[c]) {
			c++
		}
		if !worse(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// offer keeps s if it is among the k best seen so far.
func (h *topHeap) offer(s ScoredNode, k int) {
	if len(*h) < k {
		*h = append(*h, s)
		hh := *h
		for i := len(hh) - 1; i > 0; {
			parent := (i - 1) / 2
			if !worse(hh[i], hh[parent]) {
				break
			}
			hh[i], hh[parent] = hh[parent], hh[i]
			i = parent
		}
	} else if !worse(s, (*h)[0]) {
		(*h)[0] = s
		h.down(0)
	}
}

// sorted heap-sorts in place and returns the nodes best first.
func (h topHeap) sorted() []ScoredNode {
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		h[:n].down(0)
	}
	return h
}

// TopK selects the k highest-scored nodes of a finished query via a bounded
// min-heap (O(n log k)), descending by score with deterministic tie-breaks.
func (m *SSPPR) TopK(k int) []ScoredNode {
	if k <= 0 {
		return nil
	}
	h := make(topHeap, 0, min(k, m.ScoreCount()))
	m.RangeScores(func(key pmap.Key, v float64) bool {
		h.offer(ScoredNode{key, v}, k)
		return true
	})
	return h.sorted()
}

// topKOfMap is SSPPR.TopK over a cached reserve map: same heap, same
// tie-breaks, so a cache hit's ranking is byte-identical to the run that
// produced it.
func topKOfMap(p map[pmap.Key]float64, k int) []ScoredNode {
	if k <= 0 {
		return nil
	}
	h := make(topHeap, 0, min(k, len(p)))
	for key, v := range p {
		h.offer(ScoredNode{key, v}, k)
	}
	return h.sorted()
}

// RunSSPPRTopK runs a full SSPPR query under ctx and returns the k
// highest-scored nodes in descending score order.
func RunSSPPRTopK(ctx context.Context, g *DistGraphStorage, sourceLocal int32, k int, cfg Config, bd *metrics.Breakdown) ([]ScoredNode, QueryStats, error) {
	m, stats, err := RunSSPPR(ctx, g, sourceLocal, cfg, bd)
	if err != nil {
		return nil, stats, err
	}
	top := m.TopK(k)
	m.Release()
	return top, stats, nil
}
