package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"pprengine/internal/metrics"
)

// percentile returns the p-quantile (0 < p <= 1) of xs by the nearest-rank
// rule; xs is sorted in place. Zero for an empty slice.
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(xs[i])
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// ratio is a/b, zero when b is zero: a layer that did no work reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuNs is the process's user+system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func takeMark(t0 time.Time) mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{atNs: int64(time.Since(t0)), cpuNs: cpuNs(), mallocs: ms.Mallocs, allocated: ms.TotalAlloc}
}

// windowStat is one measured window.
type windowStat struct {
	Seconds      float64 `json:"seconds"`
	Ops          int     `json:"ops"`
	OK           int     `json:"ok"`
	Within       float64 `json:"within_limit_ratio"`
	QPS          float64 `json:"qps"`
	P50Ms        float64 `json:"lat_p50_ms"`
	P99Ms        float64 `json:"lat_p99_ms"`
	CPUMsPerOp   float64 `json:"cpu_ms_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	HeapKBPerOp  float64 `json:"heap_kb_per_op"`
	LatencyCount int     `json:"latency_samples"`
}

// cutWindows splits a measured phase at its marks. An operation belongs to
// the window it finished in; on the open loop only operations inside the
// latency limit count towards qps. Failed and shed operations miss the limit.
func cutWindows(p *phase, limitNs int64, open bool) []windowStat {
	n := len(p.marks) - 1
	lats := make([][]int64, n)
	ws := make([]windowStat, n)
	for _, s := range p.samples {
		k := sort.Search(n, func(i int) bool { return p.marks[i+1].atNs > s.doneNs })
		if k >= n || s.doneNs < p.marks[0].atNs {
			continue
		}
		ws[k].Ops++
		if s.kind != opOK {
			continue
		}
		lats[k] = append(lats[k], s.latNs)
		if s.latNs <= limitNs {
			ws[k].Within++
		}
		if !open || s.latNs <= limitNs {
			ws[k].OK++
		}
	}
	for k := range ws {
		a, b := p.marks[k], p.marks[k+1]
		w := &ws[k]
		w.Seconds = float64(b.atNs-a.atNs) / 1e9
		w.QPS = ratio(float64(w.OK), w.Seconds)
		w.LatencyCount = len(lats[k])
		w.P50Ms = percentile(lats[k], 0.50) / 1e6
		w.P99Ms = percentile(lats[k], 0.99) / 1e6
		ops := float64(w.Ops)
		w.Within = ratio(w.Within, ops)
		w.CPUMsPerOp = ratio(float64(b.cpuNs-a.cpuNs)/1e6, ops)
		w.AllocsPerOp = ratio(float64(b.mallocs-a.mallocs), ops)
		w.HeapKBPerOp = ratio(float64(b.allocated-a.allocated)/1024, ops)
	}
	return ws
}

func windowMedian(ws []windowStat, f func(windowStat) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return metrics.Median(xs)
}
