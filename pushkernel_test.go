package main

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"pprengine/internal/core"
	"pprengine/internal/datasets"
	"pprengine/internal/partition"
	"pprengine/internal/shard"
)

// Push-kernel replay: the workload and engine settings of the front-door
// benchmark's ssppr_zipf (twitter-sim at scale 4, 4 shards, Zipf(1.1)
// sources over the degree ranking, alpha 0.462, eps 1e-5), without the
// cluster around the engine.
const (
	kernelShards  = 4
	kernelQueries = 64
	kernelZipfS   = 1.1
)

// kernelGroup is one push of a recorded pop round: the popped vertices of one
// shard and their rows, served from the shard itself.
type kernelGroup struct {
	ids, shardCol []int32
	batch         core.NeighborBatch
}

// kernelQuery is one recorded query: its source and, per pop round, the
// number of popped vertices and the pushes that follow in the driver's
// order, the source's shard first.
type kernelQuery struct {
	src, srcShard int32
	pops          []int
	rounds        [][]kernelGroup
	updates       int64 // neighbor updates over the whole query
}

var kernelOnce struct {
	sync.Once
	qs    []kernelQuery
	cores []int32 // each shard's core vertex count, the table's bounds
	err   error
}

func kernelConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Alpha, cfg.Eps = 0.462, 1e-5
	return cfg
}

// recordKernelQueries builds the graph and runs each query once through the
// served engine, bound to the graph as RunSSPPR binds it, recording its
// rounds.
func recordKernelQueries() ([]kernelQuery, []int32, error) {
	spec, err := datasets.Lookup("twitter-sim")
	if err != nil {
		return nil, nil, err
	}
	spec = spec.Scaled(4)
	spec.Seed = 1
	g := spec.Generate()
	assign, err := partition.Partition(g, kernelShards, partition.Options{Seed: 42})
	if err != nil {
		return nil, nil, err
	}
	shards, loc, err := shard.Build(g, assign, kernelShards)
	if err != nil {
		return nil, nil, err
	}
	cores := make([]int32, kernelShards)
	for sh := range cores {
		cores[sh] = loc.CoreCount(int32(sh))
	}
	byDegree := make([]int32, g.NumNodes)
	for i := range byDegree {
		byDegree[i] = int32(i)
	}
	sort.Slice(byDegree, func(i, j int) bool {
		di, dj := g.Degree(byDegree[i]), g.Degree(byDegree[j])
		if di != dj {
			return di > dj
		}
		return byDegree[i] < byDegree[j]
	})
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), kernelZipfS, 1, uint64(g.NumNodes-1))
	cfg := kernelConfig()
	qs := make([]kernelQuery, kernelQueries)
	for qi := range qs {
		q := &qs[qi]
		q.srcShard, q.src = loc.Locate(byDegree[zipf.Uint64()])
		m := core.NewSSPPR(q.src, q.srcShard, cores, cfg)
		for {
			locals, shardIDs := m.Pop()
			if len(locals) == 0 {
				break
			}
			byShard := make([][]int32, kernelShards)
			for i, l := range locals {
				byShard[shardIDs[i]] = append(byShard[shardIDs[i]], l)
			}
			var round []kernelGroup
			for k := int32(-1); k < kernelShards; k++ {
				sh := k
				if k < 0 {
					sh = q.srcShard
				} else if k == q.srcShard {
					continue
				}
				ids := byShard[sh]
				if len(ids) == 0 {
					continue
				}
				grp := kernelGroup{ids: ids, shardCol: make([]int32, len(ids)), batch: core.LocalBatch(shards[sh], ids)}
				for i := range grp.shardCol {
					grp.shardCol[i] = sh
				}
				for i := range ids {
					nl, _, _, _, _ := grp.batch.Row(i)
					q.updates += int64(len(nl))
				}
				round = append(round, grp)
			}
			q.pops = append(q.pops, len(locals))
			q.rounds = append(q.rounds, round)
			for _, grp := range round {
				if err := m.Push(grp.batch, grp.ids, grp.shardCol); err != nil {
					return nil, nil, err
				}
			}
		}
		m.Release()
	}
	return qs, cores, nil
}

// BenchmarkPushKernel replays the pop/push rounds of recorded twitter-sim
// Zipf queries through the served SSPPR, rows served from the shards in
// shared memory: the engine's table work alone, no fetch, cache or wire.
// One op is one query; ns/update is the time per neighbor update, the
// push loop's unit of work. allocs/op counts the recycled state's misses.
func BenchmarkPushKernel(b *testing.B) {
	kernelOnce.Do(func() { kernelOnce.qs, kernelOnce.cores, kernelOnce.err = recordKernelQueries() })
	if kernelOnce.err != nil {
		b.Fatal(kernelOnce.err)
	}
	qs, cores := kernelOnce.qs, kernelOnce.cores
	cfg := kernelConfig()
	var updates int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := &qs[i%len(qs)]
		m := core.NewSSPPR(q.src, q.srcShard, cores, cfg)
		for r, round := range q.rounds {
			if locals, _ := m.Pop(); len(locals) != q.pops[r] {
				b.Fatalf("query %d round %d: popped %d vertices, recorded %d", i%len(qs), r, len(locals), q.pops[r])
			}
			for _, grp := range round {
				if err := m.Push(grp.batch, grp.ids, grp.shardCol); err != nil {
					b.Fatalf("query %d round %d: %v", i%len(qs), r, err)
				}
			}
		}
		if locals, _ := m.Pop(); len(locals) != 0 {
			b.Fatalf("query %d: %d vertices left after the recorded rounds", i%len(qs), len(locals))
		}
		m.Release()
		updates += q.updates
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(updates), "ns/update")
	b.ReportMetric(float64(updates)/float64(b.N), "updates/op")
}
