package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"pprengine/internal/delta"
	"pprengine/internal/metrics"
)

// runOpts are the knobs of one run of one workload.
type runOpts struct {
	seed    int64
	seconds float64
	scale   int
	traced  bool
	// smoke shrinks the warm-up and drops the sample-count floor: the smoke
	// test checks that every metric is reported, not what it reads.
	smoke  bool
	outDir string
}

func (o runOpts) warmupOps() int64 {
	if o.smoke {
		return 50
	}
	return warmupOps
}

// sized shrinks a count of gate sources, replayed queries or probe
// iterations on a smoke run, which checks presence, not values.
func (o runOpts) sized(n int) int {
	if o.smoke {
		return max(1, n/4)
	}
	return n
}

// windows is how many windows the measured phase is cut into. A smoke run is
// one window, so the per-operation costs divide by at least one operation
// however slow the host.
func (o runOpts) windows() int {
	if o.smoke {
		return 1
	}
	return windows
}

func (o runOpts) setups() int {
	if o.smoke || o.traced {
		return 1
	}
	return setupRepeats
}

// runResult is one run of one workload, as it goes into the result file.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	Seconds  float64 `json:"measured_seconds"`

	OpsAttempted int `json:"ops_attempted"`
	OpsOK        int `json:"ops_ok"`
	OpsFailed    int `json:"ops_failed"`
	OpsShed      int `json:"ops_shed"`
	// LastError is the latest error of a failed operation, if any failed.
	LastError string `json:"last_error,omitempty"`

	// EndToEnd comes from an untraced measured run, always.
	EndToEnd map[string]float64 `json:"end_to_end,omitempty"`
	// PerLayer comes from the traced run, the replay and the probes.
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// Samples is the count behind each percentile and each probe.
	Samples map[string]int `json:"samples"`
	Windows []windowStat   `json:"windows,omitempty"`
	// SetupSeconds lists every set-up of the run; setup_s is their median
	// plus the warm-up.
	SetupSeconds  []float64 `json:"setup_seconds,omitempty"`
	WarmupSeconds float64   `json:"warmup_seconds"`
	TraceFile     string    `json:"trace_file,omitempty"`
	// BudgetMs splits the mean client wall time of a traced request among
	// the layers, the front door and "unattributed"; the lines sum to it.
	BudgetMs map[string]float64 `json:"budget_ms,omitempty"`
}

// setUp builds the dataset and brings a deployment up o.setups() times,
// keeps the last one and returns every set-up's wall time.
func setUp(wl workloadDef, o runOpts) (*env, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t := time.Now()
		d, err := buildDataset(wl, o.seed, o.scale)
		if err != nil {
			return nil, nil, err
		}
		e, err := bringUp(wl, d, false)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t).Seconds())
		if i == o.setups()-1 {
			return e, times, nil
		}
		e.Close()
		e, d = nil, nil
		runtime.GC()
	}
}

// measured is a measured phase with the readings around it.
type measured struct {
	p             *phase
	before, after counters
	warmupS       float64
	mutLatNs      []int64 // mixed workload: write latency from due time
	mutCallNs     []int64 // mixed workload: time inside Cluster.Mutate
}

// loadAndMeasure warms the deployment up, runs one measured phase of dur on
// it and, on the mixed workload, checks the mutated graph against the oracle
// afterwards.
func loadAndMeasure(e *env, o runOpts, phaseID int64, dur time.Duration) (*measured, error) {
	open := e.wl.Kind == kindMixedWrite
	var wr *writer
	batches := genMutationsFor(e, o, dur)
	if open {
		wr = startWriter(e, batches)
		defer wr.finish()
	}
	t := time.Now()
	warm := e.drive(o.seed, phaseWarmup, 0, 0, o.warmupOps(), false)
	m := &measured{warmupS: time.Since(t).Seconds()}
	// A read that fails while nothing writes means the deployment is broken.
	// Beside writes a read can lose its epoch to another machine's compactor
	// (README, "What the benchmark found"); the measured phase counts those
	// as failed, the warm-up lets them pass.
	if err := phaseFailures(warm); err != nil && !open {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var writerAt time.Duration
	if open {
		writerAt = time.Since(wr.t0)
	}
	m.before = e.readCounters()
	m.p = e.drive(o.seed, phaseID, dur, o.windows(), 0, open)
	m.after = e.readCounters()
	if !open {
		return m, nil
	}
	if err := wr.finish(); err != nil {
		return nil, err
	}
	m.mutLatNs, m.mutCallNs = wr.since(writerAt)
	mir := newMirror(e.data.g)
	for _, b := range batches[:wr.applied] {
		mir.apply(b)
	}
	g, err := mir.graph()
	if err != nil {
		return nil, fmt.Errorf("rebuild mutated graph: %w", err)
	}
	if err := e.gate(g, false, o.seed, phasePostGate, o.sized(postGateSources)); err != nil {
		return nil, fmt.Errorf("after %d mutation batches: %w", wr.applied, err)
	}
	return m, nil
}

// genMutationsFor draws enough write batches for the warm-up and dur (nil
// unless the workload writes).
func genMutationsFor(e *env, o runOpts, dur time.Duration) [][]delta.Mutation {
	if e.wl.Kind != kindMixedWrite {
		return nil
	}
	n := int((dur.Seconds()+20)*mutateBatchRate) + 1
	return genMutations(e.data.g, o.seed, n)
}

// phaseFailures reports a phase in which any operation failed outright.
// Sheds are counted, not fatal.
func phaseFailures(p *phase) error {
	for _, s := range p.samples {
		if s.kind == opFailed {
			return fmt.Errorf("an operation failed: %s", p.stats.lastError())
		}
	}
	return nil
}

// runWorkload is one full run: set-up, correctness gate, warm-up, measured
// run, and in traced mode the traced run, the replay and the probes.
func runWorkload(wl workloadDef, o runOpts) (*runResult, error) {
	res := &runResult{Workload: wl.Name, Seed: o.seed, Traced: o.traced, Samples: map[string]int{}}
	e, setups, err := setUp(wl, o)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	if err := e.gate(e.data.g, true, o.seed, phaseGate, o.sized(gateSources)); err != nil {
		return nil, err
	}
	dur, phaseID := time.Duration(o.seconds*float64(time.Second)), int64(phaseMeasured)
	if o.traced {
		// A third of the time goes to the untraced reference the traced
		// run's throughput is compared with.
		dur, phaseID = dur/3, phaseRef
	}
	m, err := loadAndMeasure(e, o, phaseID, dur)
	if err != nil {
		return nil, err
	}
	ws := cutWindows(m.p, int64(wl.LimitMs*1e6), wl.Kind == kindMixedWrite)
	if !o.traced {
		if n := int(windowMedian(ws, func(w windowStat) float64 { return float64(w.LatencyCount) })); !o.smoke && n < minWindowSamples {
			return nil, fmt.Errorf("%s: the median window holds %d latency samples, need %d: lengthen -seconds", wl.Name, n, minWindowSamples)
		}
		res.SetupSeconds = setups
		res.WarmupSeconds = m.warmupS
		res.Seconds = m.p.elapsed.Seconds()
		res.Windows = ws
		fillEndToEnd(res, wl, m, ws, metrics.Median(setups)+m.warmupS)
		return res, nil
	}

	// Traced run on a fresh deployment over the same shards.
	refQPS := windowMedian(ws, func(w windowStat) float64 { return w.QPS })
	e.Close()
	e, err = bringUp(wl, e.data, true)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	tdur := time.Duration(o.seconds*float64(time.Second)) - dur
	tm, err := loadAndMeasure(e, o, phaseMeasured, tdur)
	if err != nil {
		return nil, err
	}
	tws := cutWindows(tm.p, int64(wl.LimitMs*1e6), wl.Kind == kindMixedWrite)
	res.Seconds = tm.p.elapsed.Seconds()
	res.Windows = tws
	countOps(res, tm.p)
	res.PerLayer = map[string]float64{}
	if err := fillPerLayer(res, e, o, tm, tws, refQPS); err != nil {
		return nil, err
	}
	return res, nil
}

// countOps fills the attempted/ok/failed/shed counts of the measured phase.
func countOps(res *runResult, p *phase) {
	res.OpsAttempted = len(p.samples)
	res.LastError = p.stats.lastError()
	for _, s := range p.samples {
		switch s.kind {
		case opOK:
			res.OpsOK++
		case opShed:
			res.OpsShed++
		default:
			res.OpsFailed++
		}
	}
}

// fillEndToEnd computes the end-to-end metrics of an untraced measured run.
func fillEndToEnd(res *runResult, wl workloadDef, m *measured, ws []windowStat, setupS float64) {
	countOps(res, m.p)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	minCount := ws[0].LatencyCount
	for _, w := range ws {
		if w.LatencyCount < minCount {
			minCount = w.LatencyCount
		}
	}
	res.Samples["lat_p50_ms"], res.Samples["lat_p99_ms"] = minCount, minCount
	res.EndToEnd = map[string]float64{
		"qps":                windowMedian(ws, func(w windowStat) float64 { return w.QPS }),
		"lat_p50_ms":         windowMedian(ws, func(w windowStat) float64 { return w.P50Ms }),
		"lat_p99_ms":         windowMedian(ws, func(w windowStat) float64 { return w.P99Ms }),
		"within_limit_ratio": windowMedian(ws, func(w windowStat) float64 { return w.Within }),
		"cpu_ms_per_op":      windowMedian(ws, func(w windowStat) float64 { return w.CPUMsPerOp }),
		"allocs_per_op":      windowMedian(ws, func(w windowStat) float64 { return w.AllocsPerOp }),
		"heap_kb_per_op":     windowMedian(ws, func(w windowStat) float64 { return w.HeapKBPerOp }),
		"heap_live_mb":       float64(ms.HeapAlloc) / (1 << 20),
		"setup_s":            setupS,
	}
	if wl.Kind == kindMixedWrite {
		fillOpenLoop(res.EndToEnd, res.Samples, m)
	}
}

// fillOpenLoop computes the two metrics only the open loop has: the write
// latency from each batch's due time and how late reads left the generator.
func fillOpenLoop(values map[string]float64, samples map[string]int, m *measured) {
	values["delta.mutate_p50_ms"] = percentile(m.mutLatNs, 0.50) / 1e6
	values["gen.late_p99_ms"] = percentile(append([]int64(nil), m.p.lateNs...), 0.99) / 1e6
	samples["delta.mutate_p50_ms"], samples["gen.late_p99_ms"] = len(m.mutLatNs), len(m.p.lateNs)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}
