package shard

import (
	"fmt"

	"pprengine/internal/graph"
	"pprengine/internal/partition"
)

// Halo row caching implements the knob discussed in paper §3.2.1: "The
// higher the hop value for halo nodes, the lower the communication
// requirements and the higher the amount of stored data." The default
// shard caches halo nodes as columns only (their IDs, weights and degrees),
// which answers any request *about core nodes* locally. With halo rows
// cached, the shard additionally stores the full neighbor row of every
// 1-hop halo node, so a traversal that expands a halo node is served from
// shared memory instead of RPC — trading memory for communication.

// BuildOptions controls shard construction.
type BuildOptions struct {
	// CacheHaloRows stores the neighbor rows of 1-hop halo nodes in each
	// shard (the "2-hop halo" configuration).
	CacheHaloRows bool
}

// haloKey packs a (shard, local) address.
func haloKey(sh, local int32) uint64 {
	return uint64(uint32(sh))<<32 | uint64(uint32(local))
}

// HaloRow returns the cached neighbor row of halo node (sh, local) if this
// shard stores it. It never returns rows for the shard's own core nodes —
// use VertexProp for those.
func (s *Shard) HaloRow(sh, local int32) (VertexProp, bool) {
	ri, ok := s.HaloRowIndex(sh, local)
	if !ok {
		return VertexProp{}, false
	}
	lo, hi := s.HaloIndptr[ri], s.HaloIndptr[ri+1]
	return VertexProp{
		Local:   local,
		WDeg:    s.HaloWDeg[ri],
		Locals:  s.HaloNbrLocal[lo:hi],
		Shards:  s.HaloNbrShard[lo:hi],
		Weights: s.HaloNbrWeight[lo:hi],
		WDegs:   s.HaloNbrWDeg[lo:hi],
	}, true
}

// HaloRowIndex returns the position of halo node (sh, local) in HaloKeys —
// the row of its cached tuples in the halo arrays — if this shard stores it.
func (s *Shard) HaloRowIndex(sh, local int32) (int32, bool) {
	if s.haloIndex == nil || sh == s.ShardID {
		return 0, false
	}
	ri, ok := s.haloIndex[haloKey(sh, local)]
	return ri, ok
}

// ShareHaloKeys makes s cache the same halo nodes as from, in the same order,
// through from's key list and lookup index (both immutable once built). The
// delta compactor rewrites halo rows but never the set of cached nodes, so a
// rebuilt base shares them with the base it replaces.
func (s *Shard) ShareHaloKeys(from *Shard) {
	s.HaloKeys, s.haloIndex = from.HaloKeys, from.haloIndex
}

// HasHaloRows reports whether this shard caches halo rows.
func (s *Shard) HasHaloRows() bool { return s.haloIndex != nil }

// NumHaloRows returns the number of cached halo rows.
func (s *Shard) NumHaloRows() int { return len(s.HaloKeys) }

// buildHaloRows populates the halo row cache from the full graph (a
// preprocessing-time operation; at query time the graph is sharded).
func (s *Shard) buildHaloRows(g *graph.Graph, loc *Locator) {
	// Collect distinct halo (shard, local) pairs from the columns.
	seen := make(map[uint64]struct{})
	var order []uint64
	for i := range s.NbrLocal {
		if s.NbrShard[i] == s.ShardID {
			continue
		}
		k := haloKey(s.NbrShard[i], s.NbrLocal[i])
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		order = append(order, k)
	}
	s.HaloKeys = order
	s.HaloIndptr = make([]int64, len(order)+1)
	s.HaloWDeg = make([]float32, len(order))
	s.haloIndex = make(map[uint64]int32, len(order))
	var total int64
	for i, k := range order {
		sh := int32(k >> 32)
		local := int32(uint32(k))
		gv := loc.Global(sh, local)
		total += int64(g.Degree(gv))
		s.haloIndex[k] = int32(i)
	}
	s.HaloNbrLocal = make([]int32, 0, total)
	s.HaloNbrShard = make([]int32, 0, total)
	s.HaloNbrWeight = make([]float32, 0, total)
	s.HaloNbrWDeg = make([]float32, 0, total)
	for i, k := range order {
		sh := int32(k >> 32)
		local := int32(uint32(k))
		gv := loc.Global(sh, local)
		s.HaloWDeg[i] = g.WeightedDegree[gv]
		ws := g.EdgeWeights(gv)
		for j, u := range g.Neighbors(gv) {
			s.HaloNbrLocal = append(s.HaloNbrLocal, loc.LocalOf[u])
			s.HaloNbrShard = append(s.HaloNbrShard, loc.ShardOf[u])
			s.HaloNbrWeight = append(s.HaloNbrWeight, ws[j])
			s.HaloNbrWDeg = append(s.HaloNbrWDeg, g.WeightedDegree[u])
		}
		s.HaloIndptr[i+1] = int64(len(s.HaloNbrLocal))
	}
}

// RebuildHaloIndex reconstructs the halo lookup map from HaloKeys. Callers
// that assemble a Shard from arrays directly use it to make HaloRow work.
func (s *Shard) RebuildHaloIndex() error { return s.rebuildHaloIndex() }

// rebuildHaloIndex reconstructs the lookup map after deserialization.
func (s *Shard) rebuildHaloIndex() error {
	if len(s.HaloKeys) == 0 {
		return nil
	}
	if len(s.HaloIndptr) != len(s.HaloKeys)+1 {
		return fmt.Errorf("shard %d: halo indptr length mismatch", s.ShardID)
	}
	s.haloIndex = make(map[uint64]int32, len(s.HaloKeys))
	for i, k := range s.HaloKeys {
		s.haloIndex[k] = int32(i)
	}
	return nil
}

// BuildWithOptions is Build plus construction options.
func BuildWithOptions(g *graph.Graph, a partition.Assignment, numShards int, opts BuildOptions) ([]*Shard, *Locator, error) {
	shards, loc, err := Build(g, a, numShards)
	if err != nil {
		return nil, nil, err
	}
	if opts.CacheHaloRows {
		for _, s := range shards {
			s.buildHaloRows(g, loc)
		}
	}
	return shards, loc, nil
}
