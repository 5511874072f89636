package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"pprengine/internal/cluster"
	"pprengine/internal/core"
	"pprengine/internal/datasets"
	"pprengine/internal/graph"
	"pprengine/internal/ppr"
)

// Table1 reproduces the dataset-statistics table.
func Table1(p Params) (Report, []datasets.Table1Row) {
	rows := datasets.Table1(p.specs())
	r := Report{Title: "Table 1: Datasets (scaled stand-ins)"}
	r.Lines = append(r.Lines, fmt.Sprintf("%-18s %-18s %10s %12s %8s %8s", "Name", "StandsIn", "|V|", "|E|", "d_avg", "d_max"))
	for _, row := range rows {
		r.Lines = append(r.Lines, fmt.Sprintf("%-18s %-18s %10d %12d %8.1f %8d",
			row.Name, row.StandsIn, row.V, row.E, row.DAvg, row.DMax))
	}
	return r, rows
}

// Table2Row is one dataset's throughput comparison (queries/second).
type Table2Row struct {
	Dataset       string
	DGLSpMM       float64 // ideal-x4 single-machine power iteration
	PyTorchTensor float64 // distributed tensor forward push
	PPREngine     float64 // the engine
	// The work behind the throughputs, per query of the last measured
	// pass: pop rounds, push operations, and the vertex entries each
	// side's frontier detection reads — the engine drains its activated
	// set, the tensor baseline scans every vertex of the graph each round.
	EngineRounds, TensorRounds   float64
	EnginePushes, TensorPushes   float64
	EngineScanned, TensorScanned float64
}

// perQuery divides n by the successful queries of res.
func perQuery(n int64, res cluster.RunResult) float64 {
	return float64(n) / float64(max(res.Queries-res.Failed, 1))
}

// Table2 reproduces the headline throughput comparison: a 4-machine
// scenario with 3 compute processes per machine. Power iteration runs
// single-machine and is multiplied by 4 (the paper's "ideal case"), using
// tolerance 1e-10; the forward-push methods use α=0.462, ε=1e-6.
func Table2(p Params) (Report, []Table2Row, error) {
	const machines, procs = 4, 3
	cfg := core.DefaultConfig()
	var rows []Table2Row
	r := Report{Title: "Table 2: Throughput (queries/s), 4 machines x 3 procs"}
	r.Lines = append(r.Lines, fmt.Sprintf("%-18s %14s %16s %14s %10s %10s",
		"Dataset", "DGL SpMM", "PyTorch Tensor", "PPR Engine", "Eng/Tensor", "Eng/SpMM"))
	for _, spec := range p.specs() {
		g := spec.GenerateCached()
		dgl := powerIterationThroughput(g, machines, minInt(p.Queries, 8), 4321)

		c, err := buildCluster(spec, machines, procs, cluster.PartitionMinCut)
		if err != nil {
			return r, nil, err
		}
		qs := c.EvenQuerySet(p.Queries, 7)
		// The tensor baseline is orders of magnitude slower; run it with a
		// reduced query count and identical per-query accounting.
		qsTensor := c.EvenQuerySet(minInt(p.Queries, 4), 7)
		tensorTP, tensorRes, err := measuredRun(p, func() (cluster.RunResult, error) {
			return c.RunSSPPRBatch(context.Background(), qsTensor, core.TensorBaselineConfig(), cluster.EngineTensor)
		})
		if err != nil {
			c.Close()
			return r, nil, err
		}
		engineTP, engineRes, err := measuredRun(p, func() (cluster.RunResult, error) {
			return c.RunSSPPRBatch(context.Background(), qs, cfg, cluster.EngineMap)
		})
		c.Close()
		if err != nil {
			return r, nil, err
		}
		row := Table2Row{
			Dataset: spec.Name, DGLSpMM: dgl, PyTorchTensor: tensorTP, PPREngine: engineTP,
			EngineRounds:  perQuery(engineRes.Iterations, engineRes),
			TensorRounds:  perQuery(tensorRes.Iterations, tensorRes),
			EnginePushes:  perQuery(engineRes.Pushes, engineRes),
			TensorPushes:  perQuery(tensorRes.Pushes, tensorRes),
			EngineScanned: perQuery(engineRes.LocalRows+engineRes.RemoteRows+engineRes.HaloRows, engineRes),
			TensorScanned: perQuery(tensorRes.Iterations*int64(g.NumNodes), tensorRes),
		}
		rows = append(rows, row)
		r.Lines = append(r.Lines, fmt.Sprintf("%-18s %14.3f %16.3f %14.1f %9.1fx %9.1fx",
			row.Dataset, row.DGLSpMM, row.PyTorchTensor, row.PPREngine,
			row.PPREngine/row.PyTorchTensor, row.PPREngine/row.DGLSpMM))
	}
	r.Lines = append(r.Lines, "Work per query: pushes / rounds / vertices read to find the frontier (engine pops, tensor scans)")
	for _, row := range rows {
		r.Lines = append(r.Lines, fmt.Sprintf("%-18s engine %8.1f / %5.2f / %8.0f   tensor %8.1f / %5.2f / %8.0f",
			row.Dataset, row.EnginePushes, row.EngineRounds, row.EngineScanned, row.TensorPushes, row.TensorRounds, row.TensorScanned))
	}
	return r, rows, nil
}

// powerIterationThroughput measures single-machine power iteration
// (tol=1e-10) and scales by the machine count, the paper's idealized "DGL
// SpMM" number.
func powerIterationThroughput(g *graph.Graph, machines, queries int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	for i := 0; i < queries; i++ {
		src := graph.NodeID(rng.Intn(g.NumNodes))
		ppr.PowerIteration(g, src, 0.462, 1e-10, 500)
	}
	wall := time.Since(start)
	perMachine := float64(queries) / wall.Seconds()
	return perMachine * float64(machines)
}

// AccuracyRow reports the §4.2 accuracy claim for one dataset.
type AccuracyRow struct {
	Dataset   string
	Eps       float64
	Top100    float64 // precision vs power-iteration ground truth
	L1        float64
	FPSpeedup float64 // forward push vs power iteration, single machine
}

// Accuracy verifies that Forward Push at ε=1e-6 reaches 97%+ top-100
// precision against the power-iteration ground truth (§4.2), and measures
// the single-machine speed ratio between the two.
func Accuracy(p Params, sources int) (Report, []AccuracyRow, error) {
	r := Report{Title: "Accuracy (4.2): Forward Push eps=1e-6 vs Power Iteration 1e-10"}
	r.Lines = append(r.Lines, fmt.Sprintf("%-18s %10s %10s %12s %10s", "Dataset", "eps", "top-100", "L1", "FP/PI"))
	var rows []AccuracyRow
	for _, spec := range p.specs() {
		g := spec.GenerateCached()
		rng := rand.New(rand.NewSource(99))
		var precSum, l1Sum float64
		var fpTime, piTime time.Duration
		for q := 0; q < sources; q++ {
			src := graph.NodeID(rng.Intn(g.NumNodes))
			t0 := time.Now()
			exact, _ := ppr.PowerIteration(g, src, 0.462, 1e-10, 500)
			piTime += time.Since(t0)
			t0 = time.Now()
			res := ppr.ForwardPush(g, src, 0.462, 1e-6)
			fpTime += time.Since(t0)
			precSum += ppr.TopKPrecision(res.Scores, exact, 100)
			l1Sum += ppr.L1Error(res.Scores, exact)
		}
		row := AccuracyRow{
			Dataset:   spec.Name,
			Eps:       1e-6,
			Top100:    precSum / float64(sources),
			L1:        l1Sum / float64(sources),
			FPSpeedup: piTime.Seconds() / fpTime.Seconds(),
		}
		rows = append(rows, row)
		r.Lines = append(r.Lines, fmt.Sprintf("%-18s %10.0e %10.3f %12.2e %9.1fx",
			row.Dataset, row.Eps, row.Top100, row.L1, row.FPSpeedup))
	}
	return r, rows, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
