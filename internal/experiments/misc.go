package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pprengine/internal/cluster"
	"pprengine/internal/core"
	"pprengine/internal/metrics"
)

// tensorRandomWalkThroughput measures the client-side-sampling Random Walk
// baseline over the cluster (one batch per machine's first process).
func tensorRandomWalkThroughput(c *cluster.Cluster, p Params, walkLen int) (float64, error) {
	roots := c.EvenQuerySet(p.Queries, 11)
	run := func() (float64, error) {
		var wg sync.WaitGroup
		var firstErr error
		var mu sync.Mutex
		start := time.Now()
		for m := range c.Storages {
			wg.Add(1)
			go func(m int) {
				defer wg.Done()
				_, err := core.RunTensorRandomWalk(context.Background(), c.Storages[m][0], roots[m], walkLen, int64(m), metrics.NewBreakdown())
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}(m)
		}
		wg.Wait()
		if firstErr != nil {
			return 0, firstErr
		}
		total := p.Queries * len(c.Storages)
		return metrics.Throughput(total, time.Since(start)), nil
	}
	for i := 0; i < p.Warmup; i++ {
		if _, err := run(); err != nil {
			return 0, err
		}
	}
	var sum float64
	n := maxInt(p.Repeats, 1)
	for i := 0; i < n; i++ {
		tp, err := run()
		if err != nil {
			return 0, err
		}
		sum += tp
	}
	return sum / float64(n), nil
}

// IntroRow holds the speedup comparisons claimed in the paper's
// introduction for Ogbn-products: engine vs tensor Forward Push (83x there)
// and engine vs tensor Random Walk (1.7x there).
type IntroRow struct {
	Workload      string
	EngineTP      float64
	TensorTP      float64
	EngineSpeedup float64
	// CallsPerQuery is the engine's wire requests per query (one walk for
	// Random Walk): the per-call costs the engine cuts weigh in proportion.
	CallsPerQuery float64
}

// wirePerQuery runs measuredRun and returns, beside its results, the wire
// requests per query over all of its passes.
func wirePerQuery(p Params, run func() (cluster.RunResult, error)) (float64, cluster.RunResult, float64, error) {
	before := metrics.WireRequests.Load()
	tp, last, err := measuredRun(p, run)
	passes := p.Warmup + max(p.Repeats, 1)
	calls := float64(metrics.WireRequests.Load()-before) / float64(passes*max(last.Queries, 1))
	return tp, last, calls, err
}

// Intro reproduces the introduction's products comparison on products-sim
// (4 machines). The tensor Random Walk substitute samples client-side from
// fetched neighbor lists (see DESIGN.md); the paper's point — Random Walk
// barely benefits from native operators while Forward Push benefits
// enormously — survives the substitution.
func Intro(p Params) (Report, []IntroRow, error) {
	spec, err := p.Spec("products-sim")
	if err != nil {
		return Report{}, nil, err
	}
	const machines = 4
	c, err := buildCluster(spec, machines, 1, cluster.PartitionMinCut)
	if err != nil {
		return Report{}, nil, err
	}
	defer c.Close()
	cfg := core.DefaultConfig()
	var rows []IntroRow

	// Forward Push: engine vs tensor.
	qs := c.EvenQuerySet(minInt(p.Queries, 8), 31)
	engineTP, _, fpCalls, err := wirePerQuery(p, func() (cluster.RunResult, error) {
		return c.RunSSPPRBatch(context.Background(), qs, cfg, cluster.EngineMap)
	})
	if err != nil {
		return Report{}, nil, err
	}
	qsT := c.EvenQuerySet(minInt(p.Queries, 4), 31)
	tensorTP, _, err := measuredRun(p, func() (cluster.RunResult, error) {
		return c.RunSSPPRBatch(context.Background(), qsT, core.TensorBaselineConfig(), cluster.EngineTensor)
	})
	if err != nil {
		return Report{}, nil, err
	}
	rows = append(rows, IntroRow{"Forward Push", engineTP, tensorTP, engineTP / tensorTP, fpCalls})

	// Random Walk: the engine's server-side sampling vs client-side
	// sampling over fetched neighbor infos.
	walkTPengine, _, rwCalls, err := wirePerQuery(p, func() (cluster.RunResult, error) {
		res, _, err := c.RunRandomWalkBatch(context.Background(), p.Queries, 16, 11)
		return res, err
	})
	if err != nil {
		return Report{}, nil, err
	}
	walkTPtensor, err := tensorRandomWalkThroughput(c, p, 16)
	if err != nil {
		return Report{}, nil, err
	}
	rows = append(rows, IntroRow{"Random Walk", walkTPengine, walkTPtensor, walkTPengine / walkTPtensor, rwCalls})

	r := Report{Title: "Intro claim: engine vs tensor on products-sim (4 machines)"}
	r.Lines = append(r.Lines, fmt.Sprintf("%-14s %14s %14s %10s %12s", "Workload", "Engine q/s", "Tensor q/s", "Speedup", "Calls/query"))
	for _, row := range rows {
		r.Lines = append(r.Lines, fmt.Sprintf("%-14s %14.1f %14.1f %9.1fx %12.2f",
			row.Workload, row.EngineTP, row.TensorTP, row.EngineSpeedup, row.CallsPerQuery))
	}
	return r, rows, nil
}

// PartQualityRow compares partitioners end to end.
type PartQualityRow struct {
	Partitioner string
	EdgeCut     int64
	CutRatio    float64
	RemoteFrac  float64
	Throughput  float64
}

// PartQuality is the extra ablation from DESIGN.md §5: min-cut vs LDG vs
// hash partitioning on twitter-sim, 4 machines, measuring edge cut, runtime
// remote-traffic fraction, and end-to-end SSPPR throughput.
func PartQuality(p Params) (Report, []PartQualityRow, error) {
	spec, err := p.Spec("twitter-sim")
	if err != nil {
		return Report{}, nil, err
	}
	const machines = 4
	cfg := core.DefaultConfig()
	kinds := []struct {
		name string
		kind cluster.PartitionKind
	}{
		{"min-cut (METIS-like)", cluster.PartitionMinCut},
		{"LDG streaming", cluster.PartitionLDG},
		{"hash", cluster.PartitionHash},
	}
	r := Report{Title: "Partitioner quality ablation on twitter-sim (4 machines)"}
	r.Lines = append(r.Lines, fmt.Sprintf("%-22s %12s %10s %12s %12s",
		"Partitioner", "EdgeCut", "CutRatio", "RemoteFrac", "Queries/s"))
	var rows []PartQualityRow
	for _, kd := range kinds {
		c, err := buildCluster(spec, machines, 1, kd.kind)
		if err != nil {
			return r, nil, err
		}
		qs := c.EvenQuerySet(minInt(p.Queries, 16), 41)
		tp, last, err := measuredRun(p, func() (cluster.RunResult, error) {
			return c.RunSSPPRBatch(context.Background(), qs, cfg, cluster.EngineMap)
		})
		quality := c.Quality
		c.Close()
		if err != nil {
			return r, nil, err
		}
		row := PartQualityRow{
			Partitioner: kd.name,
			EdgeCut:     quality.EdgeCut,
			CutRatio:    quality.CutRatio,
			RemoteFrac:  last.RemoteFraction(),
			Throughput:  tp,
		}
		rows = append(rows, row)
		r.Lines = append(r.Lines, fmt.Sprintf("%-22s %12d %10.3f %12.3f %12.1f",
			row.Partitioner, row.EdgeCut, row.CutRatio, row.RemoteFrac, row.Throughput))
	}
	return r, rows, nil
}
