// Package partition implements min-cut graph partitioning used to place the
// graph across machines (paper §3.2.1, which uses METIS). The main entry
// point is Partition, a multilevel k-way partitioner in the METIS style:
//
//  1. Coarsen the graph by repeated heavy-edge matching until it is small.
//  2. Compute an initial balanced k-way partition of the coarsest graph by
//     greedy region growing.
//  3. Uncoarsen, projecting the partition back level by level, refining at
//     each level with boundary Fiduccia–Mattheyses (FM) passes that move
//     vertices to reduce edge cut subject to a balance constraint.
//
// Hash and LDG (linear deterministic greedy) streaming partitioners are
// provided as low-quality baselines for the partition-quality ablation.
package partition

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"pprengine/internal/graph"
)

// Assignment maps every node to its partition (shard) in [0, K).
type Assignment []int32

// NumParts returns K (max label + 1); 0 for an empty assignment.
func (a Assignment) NumParts() int {
	maxP := int32(-1)
	for _, p := range a {
		if p > maxP {
			maxP = p
		}
	}
	return int(maxP + 1)
}

// Options configures Partition.
type Options struct {
	// Imbalance is the allowed load factor above perfect balance, e.g. 0.05
	// allows partitions up to 1.05 * n/k nodes. Defaults to 0.05.
	Imbalance float64
	// CoarsenTo stops coarsening when the graph has at most this many
	// nodes (default: max(30*k, 256)).
	CoarsenTo int
	// RefinePasses is the number of FM sweeps per uncoarsening level
	// (default 4).
	RefinePasses int
	// Seed controls tie-breaking randomness.
	Seed int64
}

func (o *Options) setDefaults(k int) {
	if o.Imbalance <= 0 {
		o.Imbalance = 0.05
	}
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 30 * k
		if o.CoarsenTo < 256 {
			o.CoarsenTo = 256
		}
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 4
	}
}

// Partition computes a balanced k-way min-edge-cut partition of g.
// The graph should be undirected (symmetric) for the cut metric to be
// meaningful; directed graphs are handled by symmetrizing internally.
func Partition(g *graph.Graph, k int, opts Options) (Assignment, error) {
	if k <= 0 {
		return nil, fmt.Errorf("partition: k must be positive, got %d", k)
	}
	if g.NumNodes == 0 {
		return Assignment{}, nil
	}
	if k == 1 {
		return make(Assignment, g.NumNodes), nil
	}
	if k > g.NumNodes {
		return nil, fmt.Errorf("partition: k=%d exceeds number of nodes %d", k, g.NumNodes)
	}
	opts.setDefaults(k)
	rng := rand.New(rand.NewSource(opts.Seed))

	w := newWorking(g)
	// Coarsening phase.
	var levels []*coarseLevel
	for w.n > opts.CoarsenTo {
		lvl, next := coarsen(w, rng)
		if next.n >= w.n*95/100 {
			// Matching is no longer shrinking the graph (e.g. star
			// graphs); stop coarsening.
			break
		}
		levels = append(levels, lvl)
		w = next
	}
	// Initial partition of the coarsest graph.
	part := initialPartition(w, k, opts.Imbalance, rng)
	refine(w, part, k, opts, rng)
	// Uncoarsening with refinement.
	for i := len(levels) - 1; i >= 0; i-- {
		lvl := levels[i]
		finePart := make([]int32, lvl.fineN)
		for v := 0; v < lvl.fineN; v++ {
			finePart[v] = part[lvl.coarseOf[v]]
		}
		part = finePart
		w = lvl.fine
		refine(w, part, k, opts, rng)
	}
	fillEmptyParts(part, k)
	return part, nil
}

// fillEmptyParts guarantees every part owns at least one node (a shard with
// zero core nodes cannot serve anything): empty parts steal single nodes
// from the currently largest part.
func fillEmptyParts(part []int32, k int) {
	sizes := make([]int, k)
	for _, p := range part {
		sizes[p]++
	}
	for p := 0; p < k; p++ {
		if sizes[p] > 0 {
			continue
		}
		// Take one node from the largest part.
		largest := 0
		for q := 1; q < k; q++ {
			if sizes[q] > sizes[largest] {
				largest = q
			}
		}
		if sizes[largest] <= 1 {
			continue // nothing to steal without emptying another part
		}
		for v := range part {
			if part[v] == int32(largest) {
				part[v] = int32(p)
				sizes[largest]--
				sizes[p]++
				break
			}
		}
	}
}

// working is a weighted graph used during coarsening: node weights count the
// collapsed original vertices; edge weights count collapsed original edges.
type working struct {
	n      int
	indptr []int64
	adj    []int32
	ewt    []float64
	nwt    []int64 // node weight = number of original vertices inside
}

// halfEdge is one direction of a weighted edge on its way into a working
// graph's adjacency.
type halfEdge struct {
	u, v int32
	w    float64
}

// setAdjacency fills w's CSR from edges: sorted by (u, v), with each run of
// equal (u, v) merged into one entry carrying the run's summed weight. The
// sort is pdqsort over the concrete type — the same algorithm, and so the
// same order within a run and the same float sums, as the sort.Slice it
// replaces, minus the reflection-based swaps.
func (w *working) setAdjacency(edges []halfEdge) {
	slices.SortFunc(edges, func(a, b halfEdge) int {
		if a.u != b.u {
			return cmp.Compare(a.u, b.u)
		}
		return cmp.Compare(a.v, b.v)
	})
	w.indptr = make([]int64, w.n+1)
	for i := 0; i < len(edges); {
		j := i
		acc := 0.0
		for j < len(edges) && edges[j].u == edges[i].u && edges[j].v == edges[i].v {
			acc += edges[j].w
			j++
		}
		w.adj = append(w.adj, edges[i].v)
		w.ewt = append(w.ewt, acc)
		w.indptr[edges[i].u+1]++
		i = j
	}
	for v := 0; v < w.n; v++ {
		w.indptr[v+1] += w.indptr[v]
	}
}

func newWorking(g *graph.Graph) *working {
	// Symmetrize (cheaply: add both directions, dedup via sort) so matching
	// and cut computation see an undirected structure.
	edges := make([]halfEdge, 0, g.NumEdges()*2)
	for v := graph.NodeID(0); int(v) < g.NumNodes; v++ {
		ws := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			if u == v {
				continue
			}
			edges = append(edges, halfEdge{v, u, float64(ws[i])}, halfEdge{u, v, float64(ws[i])})
		}
	}
	w := &working{n: g.NumNodes}
	w.nwt = make([]int64, g.NumNodes)
	for i := range w.nwt {
		w.nwt[i] = 1
	}
	w.setAdjacency(edges)
	return w
}

type coarseLevel struct {
	fine     *working
	fineN    int
	coarseOf []int32 // fine node -> coarse node
}

// coarsen performs one level of heavy-edge matching and contraction.
func coarsen(w *working, rng *rand.Rand) (*coarseLevel, *working) {
	match := make([]int32, w.n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(w.n)
	// Heavy-edge matching: visit nodes in random order, match each
	// unmatched node with its heaviest unmatched neighbor.
	for _, vi := range order {
		v := int32(vi)
		if match[v] != -1 {
			continue
		}
		best := int32(-1)
		bestW := -1.0
		for i := w.indptr[v]; i < w.indptr[v+1]; i++ {
			u := w.adj[i]
			if match[u] != -1 || u == v {
				continue
			}
			if w.ewt[i] > bestW {
				bestW = w.ewt[i]
				best = u
			}
		}
		if best != -1 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v // self-match
		}
	}
	// Number coarse nodes.
	coarseOf := make([]int32, w.n)
	for i := range coarseOf {
		coarseOf[i] = -1
	}
	cn := int32(0)
	for v := int32(0); int(v) < w.n; v++ {
		if coarseOf[v] != -1 {
			continue
		}
		coarseOf[v] = cn
		m := match[v]
		if m != v && m >= 0 {
			coarseOf[m] = cn
		}
		cn++
	}
	// Build the contracted graph.
	next := &working{n: int(cn)}
	next.nwt = make([]int64, cn)
	for v := int32(0); int(v) < w.n; v++ {
		next.nwt[coarseOf[v]] += w.nwt[v]
	}
	edges := make([]halfEdge, 0, len(w.adj))
	for v := int32(0); int(v) < w.n; v++ {
		cv := coarseOf[v]
		for i := w.indptr[v]; i < w.indptr[v+1]; i++ {
			cu := coarseOf[w.adj[i]]
			if cu == cv {
				continue
			}
			edges = append(edges, halfEdge{cv, cu, w.ewt[i]})
		}
	}
	next.setAdjacency(edges)
	return &coarseLevel{fine: w, fineN: w.n, coarseOf: coarseOf}, next
}

// initialPartition grows k regions greedily by BFS from random seeds on the
// coarsest graph, bounded by the balance target, then assigns leftovers to
// the lightest part.
func initialPartition(w *working, k int, imbalance float64, rng *rand.Rand) []int32 {
	part := make([]int32, w.n)
	for i := range part {
		part[i] = -1
	}
	var totalW int64
	for _, nw := range w.nwt {
		totalW += nw
	}
	target := float64(totalW) / float64(k)
	maxLoad := int64(target * (1 + imbalance))
	if maxLoad < 1 {
		maxLoad = 1
	}
	load := make([]int64, k)
	order := rng.Perm(w.n)
	oi := 0
	nextSeed := func() int32 {
		for oi < len(order) {
			v := int32(order[oi])
			oi++
			if part[v] == -1 {
				return v
			}
		}
		return -1
	}
	queue := make([]int32, 0, w.n)
	for p := 0; p < k-1; p++ { // last part takes the remainder
		// Keep growing part p — re-seeding across connected components —
		// until it reaches its target weight or nodes run out.
		for float64(load[p]) < target {
			seed := nextSeed()
			if seed == -1 {
				break
			}
			queue = queue[:0]
			queue = append(queue, seed)
			part[seed] = int32(p)
			load[p] += w.nwt[seed]
			for len(queue) > 0 && float64(load[p]) < target {
				v := queue[0]
				queue = queue[1:]
				for i := w.indptr[v]; i < w.indptr[v+1]; i++ {
					u := w.adj[i]
					// Cap growth close to the target so heavy coarse
					// hubs do not blow one part past its share.
					if part[u] != -1 || float64(load[p]+w.nwt[u]) > target*1.1 {
						continue
					}
					part[u] = int32(p)
					load[p] += w.nwt[u]
					queue = append(queue, u)
					if float64(load[p]) >= target {
						break
					}
				}
			}
		}
	}
	// Everything still unassigned belongs to the last part by default; the
	// lightest-part fallback below also mops up nodes skipped by maxLoad.
	for v := int32(0); int(v) < w.n; v++ {
		if part[v] == -1 && load[k-1]+w.nwt[v] <= maxLoad {
			part[v] = int32(k - 1)
			load[k-1] += w.nwt[v]
		}
	}
	// Any unassigned nodes go to the currently lightest part.
	for v := int32(0); int(v) < w.n; v++ {
		if part[v] != -1 {
			continue
		}
		best := 0
		for p := 1; p < k; p++ {
			if load[p] < load[best] {
				best = p
			}
		}
		part[v] = int32(best)
		load[best] += w.nwt[v]
	}
	return part
}

// refine runs boundary FM passes: repeatedly move the boundary vertex with
// the highest positive gain (cut reduction) to a neighboring part, subject
// to the balance constraint. Each pass visits boundary vertices in random
// order and applies greedy positive-gain moves; passes stop early when a
// sweep makes no move.
func refine(w *working, part []int32, k int, opts Options, rng *rand.Rand) {
	var totalW int64
	for _, nw := range w.nwt {
		totalW += nw
	}
	// Allow one extra node of slack on top of the imbalance bound: at
	// coarse levels node weights are large relative to the slack and a
	// strict bound freezes refinement entirely; finer levels re-balance
	// with smaller weights.
	var maxNodeW int64
	for _, nw := range w.nwt {
		if nw > maxNodeW {
			maxNodeW = nw
		}
	}
	maxLoad := int64(float64(totalW)/float64(k)*(1+opts.Imbalance)) + maxNodeW
	if maxLoad < 1 {
		maxLoad = 1
	}
	load := make([]int64, k)
	for v := 0; v < w.n; v++ {
		load[part[v]] += w.nwt[v]
	}
	conn := make([]float64, k) // scratch: weight to each part from v
	for pass := 0; pass < opts.RefinePasses; pass++ {
		moved := 0
		order := rng.Perm(w.n)
		for _, vi := range order {
			v := int32(vi)
			home := part[v]
			// Compute connectivity of v to each part.
			for p := range conn {
				conn[p] = 0
			}
			boundary := false
			for i := w.indptr[v]; i < w.indptr[v+1]; i++ {
				p := part[w.adj[i]]
				conn[p] += w.ewt[i]
				if p != home {
					boundary = true
				}
			}
			if !boundary {
				continue
			}
			bestP := home
			bestGain := 0.0
			for p := 0; p < k; p++ {
				if int32(p) == home {
					continue
				}
				if load[p]+w.nwt[v] > maxLoad {
					continue
				}
				gain := conn[p] - conn[home]
				if gain > bestGain {
					bestGain = gain
					bestP = int32(p)
				}
			}
			if bestP != home {
				part[v] = bestP
				load[home] -= w.nwt[v]
				load[bestP] += w.nwt[v]
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	rebalance(w, part, k, load, maxLoad, conn)
}

// rebalance empties overloaded parts down to maxLoad by moving their
// boundary nodes (preferring moves that damage the cut least) into the
// lightest parts. Refinement sweeps only take positive-gain moves, so
// without this pass an unbalanced initial partition would stay unbalanced.
func rebalance(w *working, part []int32, k int, load []int64, maxLoad int64, conn []float64) {
	avg := int64(0)
	for _, l := range load {
		avg += l
	}
	avg /= int64(k)
	for p := 0; p < k; p++ {
		guard := 0
		for load[p] > maxLoad && guard < w.n {
			guard++
			// Pick the node in part p whose move away loses the least.
			bestV := int32(-1)
			bestLoss := 0.0
			bestDst := int32(-1)
			for v := int32(0); int(v) < w.n; v++ {
				if part[v] != int32(p) {
					continue
				}
				for q := range conn {
					conn[q] = 0
				}
				for i := w.indptr[v]; i < w.indptr[v+1]; i++ {
					conn[part[w.adj[i]]] += w.ewt[i]
				}
				// Candidate destination: the lightest part with the best
				// connectivity trade-off.
				for q := 0; q < k; q++ {
					if q == p || load[q] >= avg {
						continue
					}
					loss := conn[p] - conn[q]
					if bestV == -1 || loss < bestLoss {
						bestV, bestLoss, bestDst = v, loss, int32(q)
					}
				}
			}
			if bestV == -1 {
				break
			}
			part[bestV] = bestDst
			load[p] -= w.nwt[bestV]
			load[bestDst] += w.nwt[bestV]
		}
	}
}

// HashPartition assigns node v to v % k — the no-locality baseline.
func HashPartition(n, k int) Assignment {
	a := make(Assignment, n)
	for v := range a {
		a[v] = int32(v % k)
	}
	return a
}

// LDGPartition is the linear deterministic greedy streaming partitioner:
// nodes arrive in order and are placed in the part with the most already-
// placed neighbors, discounted by a load penalty.
func LDGPartition(g *graph.Graph, k int, imbalance float64) Assignment {
	if imbalance <= 0 {
		imbalance = 0.05
	}
	cap_ := float64(g.NumNodes)/float64(k)*(1+imbalance) + 1
	part := make(Assignment, g.NumNodes)
	for i := range part {
		part[i] = -1
	}
	load := make([]float64, k)
	score := make([]float64, k)
	for v := graph.NodeID(0); int(v) < g.NumNodes; v++ {
		for p := range score {
			score[p] = 0
		}
		for _, u := range g.Neighbors(v) {
			if p := part[u]; p >= 0 {
				score[p]++
			}
		}
		best, bestScore := 0, -1.0
		for p := 0; p < k; p++ {
			s := score[p] * (1 - load[p]/cap_)
			// Ties (notably score 0 for nodes with no placed neighbors)
			// break toward the lightest part so no part starves.
			if s > bestScore || (s == bestScore && load[p] < load[best]) {
				bestScore = s
				best = p
			}
		}
		part[v] = int32(best)
		load[best]++
	}
	return part
}

// Quality summarizes a partition: EdgeCut counts directed edges whose
// endpoints live in different parts; Balance is maxPartSize / (n/k).
type Quality struct {
	EdgeCut    int64
	CutRatio   float64
	Balance    float64
	PartSizes  []int
	RemoteFrac float64 // = CutRatio; fraction of edges crossing shards
}

// Evaluate computes partition quality for assignment a over graph g.
func Evaluate(g *graph.Graph, a Assignment) Quality {
	k := a.NumParts()
	q := Quality{PartSizes: make([]int, k)}
	for v := graph.NodeID(0); int(v) < g.NumNodes; v++ {
		q.PartSizes[a[v]]++
		for _, u := range g.Neighbors(v) {
			if a[u] != a[v] {
				q.EdgeCut++
			}
		}
	}
	m := g.NumEdges()
	if m > 0 {
		q.CutRatio = float64(q.EdgeCut) / float64(m)
	}
	q.RemoteFrac = q.CutRatio
	if k > 0 && g.NumNodes > 0 {
		maxSize := 0
		for _, s := range q.PartSizes {
			if s > maxSize {
				maxSize = s
			}
		}
		q.Balance = float64(maxSize) / (float64(g.NumNodes) / float64(k))
	}
	return q
}
