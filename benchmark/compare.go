package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"pprengine/internal/metrics"
)

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the benchmark's bounds were sized against. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	ld := len(c)
	at := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (c[j-1]*(4-delta) + c[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median: the
// run-to-run noise a bound has to stay above.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, metrics.Median(xs))
}

func loadResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// side is one file's untraced runs of one workload.
type side struct {
	values            map[string][]float64
	failedShare       []float64 // per run: (failed + shed) / attempted
	attempted, failed int
}

func sidesOf(f *resultFile) map[string]*side {
	out := map[string]*side{}
	for _, r := range f.Runs {
		if r.Traced {
			continue
		}
		s := out[r.Workload]
		if s == nil {
			s = &side{values: map[string][]float64{}}
			out[r.Workload] = s
		}
		for k, v := range r.EndToEnd {
			s.values[k] = append(s.values[k], v)
		}
		s.failedShare = append(s.failedShare, ratio(float64(r.OpsFailed+r.OpsShed), float64(r.OpsAttempted)))
		s.attempted += r.OpsAttempted
		s.failed += r.OpsFailed + r.OpsShed
	}
	return out
}

// compareMain prints one row per workload x end-to-end metric: both medians,
// B's change against A as the base, the direction and the bound. A row whose
// run-to-run spread exceeds the bound is unresolved, not unchanged. Bounds
// and spreads are shares of A's median, except where absoluteBounds gives a
// plain difference. It returns 1 on a regression or a higher median failed
// share in B.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json   (A is the base)")
		return 2
	}
	fa, err := loadResultFile(args[0])
	if err == nil {
		var fb *resultFile
		if fb, err = loadResultFile(args[1]); err == nil {
			return compareFiles(fa, fb)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark compare:", err)
	return 2
}

func compareFiles(fa, fb *resultFile) int {
	a, b := sidesOf(fa), sidesOf(fb)
	status := 0
	fmt.Printf("%-18s %-20s %12s %12s %9s  %-6s %-7s  %-7s %-7s %s\n",
		"workload", "metric", "A median", "B median", "B/A", "better", "bound", "A iqr", "B iqr", "verdict")
	for _, wl := range workloads {
		sa, sb := a[wl.Name], b[wl.Name]
		if sa == nil || sb == nil {
			continue
		}
		for _, def := range append(append([]metricDef(nil), endToEnd...), openLoopOnly...) {
			va, vb := sa.values[def.Name], sb.values[def.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := metrics.Median(va), metrics.Median(vb)
			// worse, the spreads and the bound are shares of A's median,
			// or plain differences for a metric with an absolute bound.
			bound, base, unit := def.Bound, ma, ""
			if abs, ok := absoluteBounds[def.Name]; ok {
				bound, base, unit = abs, 1, "abs"
			}
			worse := ratio(mb-ma, base)
			if def.Better == "higher" {
				worse = -worse
			}
			spA, spB := spread(va)*ratio(ma, base), spread(vb)*ratio(mb, base)
			verdict := "ok"
			switch {
			case spA > bound || spB > bound:
				verdict = "unresolved"
			case worse > bound:
				verdict = "REGRESSION"
				status = 1
			}
			fmt.Printf("%-18s %-20s %12.5g %12.5g %9.4f  %-6s %4.2f%-3s  %-7.4f %-7.4f %s (n=%d,%d)\n",
				wl.Name, def.Name, ma, mb, ratio(mb, ma), def.Better, bound, unit, spA, spB, verdict, len(va), len(vb))
		}
		// Like every row, the failed share is judged by its median over the
		// runs: a read that loses its epoch in one run of six (README, "What
		// the benchmark found") shows in the totals, not in the verdict.
		shareA, shareB := metrics.Median(sa.failedShare), metrics.Median(sb.failedShare)
		verdict := "ok"
		if shareB > shareA {
			verdict = "MORE FAILURES"
			status = 1
		}
		fmt.Printf("%-18s %-20s %12.5g %12.5g %9s  %-6s %-7s  %-7s %-7s %s (failed %d of %d, %d of %d)\n",
			wl.Name, "failed_share", shareA, shareB, "", "lower", "0", "", "", verdict, sa.failed, sa.attempted, sb.failed, sb.attempted)
	}
	return status
}
