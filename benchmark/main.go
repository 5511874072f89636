// Command benchmark is the repository's one front-door benchmark: a 4-machine
// loopback-TCP cluster with the production-default stack in one process,
// driven through QueryClient, GET /infer and Cluster.Mutate by four
// workloads. README.md in this directory describes the workloads, the
// metrics and how they interact.
//
//	go run ./benchmark                         every workload, untraced
//	go run ./benchmark -workload ssppr_zipf -trace 1
//	go run ./benchmark -repeat 5 -json A.json  a set of runs for compare
//	go run ./benchmark compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// resultFile is what -json writes and compare reads.
type resultFile struct {
	Meta meta         `json:"meta"`
	Runs []*runResult `json:"runs"`
}

// meta says what produced the numbers.
type meta struct {
	GitSHA     string         `json:"git_sha"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Seed       int64          `json:"seed"`
	Scale      int            `json:"scale"`
	Seconds    float64        `json:"seconds"`
	Clients    int            `json:"clients"`
	Stack      map[string]any `json:"stack"`
}

func newMeta(o runOpts) meta {
	sha := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				sha = s.Value
			}
		}
	}
	return meta{
		GitSHA: sha, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: o.seed, Scale: o.scale, Seconds: o.seconds, Clients: numClients(),
		Stack: map[string]any{
			"machines": machines, "procs_per_machine": 1, "zero_copy": true, "replicas": 2, "hedge": true,
			"cache_bytes": cacheBytes, "feat_cache_bytes": featCacheBytes, "agg_window_us": aggWindow.Microseconds(),
			"admit_max_inflight": admitInFlight, "admit_max_queue": admitQueue,
			"alpha": alpha, "eps": eps, "top_k": topK, "infer_top_k": inferTopK,
			"open_loop_rate": openLoopRate, "mutate_batches_per_s": mutateBatchRate, "mutate_batch_ops": mutateBatchOps,
			"compact_interval_s": compactInterval.Seconds(), "max_epochs": maxEpochs,
		},
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seeds graph generation, the source mix and the mutation stream")
		seconds  = flag.Float64("seconds", 10, "measured seconds per workload (BENCHMARK.json's run_seconds)")
		trace    = flag.Int("trace", 0, "1 = traced run, replay and probes: prints the per-layer metrics")
		scale    = flag.Int("scale", defaultScale, "dataset downscale factor")
		repeat   = flag.Int("repeat", 1, "runs per workload, on seeds seed, seed+1, ...")
		smoke    = flag.Bool("smoke", false, "tiny run for the smoke test: scale 32, 200 ms per workload, traced and untraced")
		probes   = flag.Bool("probes", false, "print only the layer probes of a traced run")
		jsonPath = flag.String("json", "", "result file to write (default <out>/result.json)")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for the result and trace files")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := runOpts{seed: *seed, seconds: *seconds, scale: *scale, traced: *trace != 0 || *probes, outDir: *outDir}
	if *smoke {
		o.smoke, o.scale, o.seconds = true, 32, 0.2
	}
	var wls []workloadDef
	if *workload == "all" {
		wls = workloads
	} else if wl, ok := findWorkload(*workload); ok {
		wls = []workloadDef{wl}
	} else {
		fatalf("unknown workload %q", *workload)
	}

	file := resultFile{Meta: newMeta(o)}
	for rep := 0; rep < *repeat; rep++ {
		ro := o
		ro.seed = o.seed + int64(rep)
		for _, wl := range wls {
			modes := []bool{ro.traced}
			if *smoke {
				modes = []bool{false, true}
			}
			for _, traced := range modes {
				ro.traced = traced
				res, err := runWorkload(wl, ro)
				if err != nil {
					// A failed gate or run prints no metrics at all.
					fatalf("%s (seed %d): %v", wl.Name, ro.seed, err)
				}
				printRun(res, *probes)
				file.Runs = append(file.Runs, res)
				runtime.GC()
			}
		}
	}
	path := *jsonPath
	if path == "" {
		path = filepath.Join(*outDir, "result.json")
	}
	if err := writeResultFile(path, &file); err != nil {
		fatalf("%v", err)
	}
	// The last line of standard output is the driver's: one JSON object for
	// the one workload it asked for.
	if len(file.Runs) == 1 {
		fmt.Println(driverLine(file.Runs[0]))
	}
}

func writeResultFile(path string, f *resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// catalogFor lists the metric definitions a run reports, in print order.
func catalogFor(res *runResult) []metricDef {
	if res.Traced {
		return perLayer
	}
	defs := endToEnd
	if _, ok := res.EndToEnd[openLoopOnly[0].Name]; ok {
		defs = append(append([]metricDef(nil), endToEnd...), openLoopOnly...)
	}
	return defs
}

// printRun prints every metric of a run by name, with unit and direction.
func printRun(res *runResult, probesOnly bool) {
	mode := "untraced"
	values := res.EndToEnd
	if res.Traced {
		mode, values = "traced", res.PerLayer
	}
	fmt.Printf("== %s  seed=%d  %s  measured=%.1fs  ops_attempted=%d ops_ok=%d ops_failed=%d ops_shed=%d\n",
		res.Workload, res.Seed, mode, res.Seconds, res.OpsAttempted, res.OpsOK, res.OpsFailed, res.OpsShed)
	if res.OpsFailed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d operations failed; the last error: %s\n", res.Workload, res.OpsFailed, res.LastError)
	}
	for _, def := range catalogFor(res) {
		n, isProbe := res.Samples[def.Name] // a count sits behind percentiles and probes
		if probesOnly && !isProbe {
			continue
		}
		line := fmt.Sprintf("%-30s %14.6g %-6s (%s is better", def.Name, values[def.Name], def.Unit, def.Better)
		if def.Bound > 0 {
			line += fmt.Sprintf(", bound %g", def.Bound)
		}
		line += ")"
		if isProbe {
			line += fmt.Sprintf("  n=%d", n)
		}
		fmt.Println(line)
	}
	if res.TraceFile != "" && !probesOnly {
		lines := make([]string, 0, len(res.BudgetMs))
		var total float64
		for line, v := range res.BudgetMs {
			lines = append(lines, line)
			total += v
		}
		sort.Strings(lines)
		fmt.Print("budget, mean ms of a request's client wall time:")
		for _, line := range lines {
			fmt.Printf(" %s=%.4g", line, res.BudgetMs[line])
		}
		fmt.Printf(" sum=%.4g\n", total)
		fmt.Printf("trace: %s (%d whole traces)\n", res.TraceFile, res.Samples["trace.whole_traces"])
	}
}

// driverLine is the result object of the benchmark contract: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func driverLine(res *runResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	values, defs := res.EndToEnd, endToEnd
	if res.Traced {
		values, defs = res.PerLayer, perLayer
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: true, Attempted: res.OpsAttempted, Failed: res.OpsFailed + res.OpsShed, Metrics: map[string]mv{}}
	for _, def := range defs {
		out.Metrics[def.Name] = mv{values[def.Name], def.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatalf("%v", err)
	}
	return string(b)
}
