package main

import (
	"math/rand"

	"pprengine/internal/delta"
	"pprengine/internal/graph"
)

// mirror replays a mutation history onto the generated graph, outside the
// engine. The stream generator uses it to emit only valid operations (a
// delete names an edge that exists, an insert one that does not), and the
// post-run gate uses it to rebuild the graph the oracle runs on.
type mirror struct {
	g    *graph.Graph
	rows map[graph.NodeID][]graph.Edge // rows touched so far, copied from g on first touch
}

func newMirror(g *graph.Graph) *mirror {
	return &mirror{g: g, rows: map[graph.NodeID][]graph.Edge{}}
}

func (m *mirror) row(v graph.NodeID) []graph.Edge {
	if r, ok := m.rows[v]; ok {
		return r
	}
	var r []graph.Edge
	ws := m.g.EdgeWeights(v)
	for i, u := range m.g.Neighbors(v) {
		r = append(r, graph.Edge{Src: v, Dst: u, Weight: ws[i]})
	}
	m.rows[v] = r
	return r
}

func (m *mirror) has(src, dst graph.NodeID) bool {
	for _, e := range m.row(src) {
		if e.Dst == dst {
			return true
		}
	}
	return false
}

func (m *mirror) apply(batch []delta.Mutation) {
	for _, op := range batch {
		switch op.Op {
		case delta.OpAddEdge:
			m.rows[op.Src] = append(m.row(op.Src), graph.Edge{Src: op.Src, Dst: op.Dst, Weight: op.Weight})
		case delta.OpDelEdge:
			r := m.row(op.Src)
			for i, e := range r {
				if e.Dst == op.Dst {
					m.rows[op.Src] = append(r[:i], r[i+1:]...)
					break
				}
			}
		}
	}
}

// graph materializes the mirrored state for the oracle.
func (m *mirror) graph() (*graph.Graph, error) {
	edges := make([]graph.Edge, 0, len(m.g.Adj))
	for v := graph.NodeID(0); int(v) < m.g.NumNodes; v++ {
		if r, ok := m.rows[v]; ok {
			edges = append(edges, r...)
			continue
		}
		ws := m.g.EdgeWeights(v)
		for i, u := range m.g.Neighbors(v) {
			edges = append(edges, graph.Edge{Src: v, Dst: u, Weight: ws[i]})
		}
	}
	return graph.FromEdges(m.g.NumNodes, edges)
}

// genMutations draws the write stream: batches of mutateBatchOps operations,
// three edge inserts to one delete, endpoints uniform over the vertices.
//
// The issue also asked for 1% add-vertex operations. They are left out: once
// a compaction has baked an appended vertex into the base CSR, delta.Store
// can no longer read its row (rowAtLocked only consults the base for locals
// below the locator's original core count), and every query that reaches the
// vertex fails with "unknown at epoch". A workload may not contain failing
// operations, and the store is outside this benchmark's files.
func genMutations(g *graph.Graph, seed int64, batches int) [][]delta.Mutation {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 977))
	m := newMirror(g)
	out := make([][]delta.Mutation, 0, batches)
	for b := 0; b < batches; b++ {
		batch := make([]delta.Mutation, 0, mutateBatchOps)
		added := map[[2]graph.NodeID]bool{} // edges inserted by this batch
		for len(batch) < mutateBatchOps {
			src := graph.NodeID(rng.Intn(g.NumNodes))
			var op delta.Mutation
			if rng.Intn(4) == 3 {
				row := m.row(src)
				if len(row) < 2 {
					continue // keep every vertex an out-edge
				}
				dst := row[rng.Intn(len(row))].Dst
				if added[[2]graph.NodeID{src, dst}] {
					// The coordinator resolves a delete against the row as
					// stored, without this batch's own inserts, and rejects
					// the whole batch with "edge not present".
					continue
				}
				op = delta.Mutation{Op: delta.OpDelEdge, Src: src, Dst: dst}
			} else {
				dst := graph.NodeID(rng.Intn(g.NumNodes))
				if src == dst || m.has(src, dst) {
					continue
				}
				added[[2]graph.NodeID{src, dst}] = true
				op = delta.Mutation{Op: delta.OpAddEdge, Src: src, Dst: dst, Weight: float32(0.05 + 0.95*rng.Float64())}
			}
			batch = append(batch, op)
			m.apply(batch[len(batch)-1:])
		}
		out = append(out, batch)
	}
	return out
}
