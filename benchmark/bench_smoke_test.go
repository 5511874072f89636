package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"pprengine/internal/delta"
	"pprengine/internal/graph"
	"pprengine/internal/obs"
)

// TestSmoke runs every workload in -smoke mode, untraced and traced, and
// checks that each named metric is reported, finite and unit-tagged and that
// no operation failed. It asserts nothing about a measured value: on a slow
// host (or under the race detector) a latency can miss any limit and a short
// window can hold no sample at all.
func TestSmoke(t *testing.T) {
	o := runOpts{seed: 1, seconds: 0.2, scale: 32, smoke: true, outDir: t.TempDir()}
	for _, wl := range workloads {
		// The race detector slows a run about tenfold (a minute for all
		// four), so under it only the workload that starts every goroutine
		// the benchmark owns runs: open-loop generator, writer and poller.
		if raceDetector && wl.Kind != kindMixedWrite {
			continue
		}
		for _, traced := range []bool{false, true} {
			o.traced = traced
			res, err := runWorkload(wl, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			switch {
			case res.OpsAttempted == 0:
				t.Errorf("%s traced=%v: no operation attempted", wl.Name, traced)
			case res.OpsFailed != 0 && wl.Kind == kindMixedWrite:
				// Beside writes a read can lose its epoch to another
				// machine's compactor (README, "What the benchmark found"),
				// whenever a slow host lets a compaction fall into the run.
				t.Logf("%s traced=%v: %d of %d operations failed: %s", wl.Name, traced, res.OpsFailed, res.OpsAttempted, res.LastError)
			case res.OpsFailed != 0:
				t.Errorf("%s traced=%v: %d of %d operations failed: %s", wl.Name, traced, res.OpsFailed, res.OpsAttempted, res.LastError)
			}
			values := res.EndToEnd
			if traced {
				values = res.PerLayer
			}
			for _, def := range catalogFor(res) {
				v, ok := values[def.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s missing or not finite (%v)", wl.Name, traced, def.Name, v)
				}
				if def.Unit == "" || (def.Better != "higher" && def.Better != "lower") {
					t.Errorf("metric %s has no unit or direction", def.Name)
				}
			}
			if _, ok := values[openLoopOnly[0].Name]; !traced && ok != (wl.Kind == kindMixedWrite) {
				t.Errorf("%s: %s reported=%v", wl.Name, openLoopOnly[0].Name, ok)
			}
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(driverLine(res)), &line); err != nil || !line.Correct || line.Attempted < 1 {
				t.Errorf("%s traced=%v: bad driver line (%v)", wl.Name, traced, err)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if len(line.Metrics) != want {
				t.Errorf("%s traced=%v: driver line has %d metrics, want %d", wl.Name, traced, len(line.Metrics), want)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the catalogue in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the catalogue:\n%+v\n%+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the catalogue")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, catalogue has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v differs from the catalogue's %s", i, doc.Workloads[i], w.Name)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if s := spread([]float64{10, 10, 10}); s != 0 {
		t.Errorf("spread of a constant = %v", s)
	}
}

func TestSelfTime(t *testing.T) {
	parent := obs.Span{Start: 100, DurNs: 100}
	kids := []obs.Span{{Start: 110, DurNs: 30}, {Start: 120, DurNs: 40}, {Start: 190, DurNs: 50}}
	// Children cover [110,160) and [190,200): 60 of the parent's 100.
	if got := selfNs(parent, kids); got != 40 {
		t.Errorf("selfNs = %d, want 40", got)
	}
}

// TestBudgetSums checks that budgetOf gives every instant of the client span
// to exactly one line: work behind a wait counts only while the request
// waits, a container's own time is unattributed, the rest is the front door.
func TestBudgetSums(t *testing.T) {
	root := obs.Span{ID: 1, Name: "client:query", Start: 0, DurNs: 100}
	trace := []obs.Span{
		root,
		{ID: 2, Parent: 1, Name: "rpc:SSPPRQuery", Start: 10, DurNs: 80},
		{ID: 3, Parent: 2, Name: "query", Start: 15, DurNs: 70},
		{ID: 4, Parent: 3, Name: "push", Start: 20, DurNs: 20},
		{ID: 5, Parent: 3, Name: "agg:flush", Start: 30, DurNs: 30}, // overlaps the push until 40
		{ID: 6, Parent: 5, Name: "rpc:GetNeighborInfos", Start: 50, DurNs: 5},
		{ID: 7, Parent: 3, Name: "remote-fetch", Start: 45, DurNs: 25},
	}
	got := budgetOf(root, trace)
	want := map[string]int64{
		"frontdoor":    20, // [0,10) and [90,100): only the client span
		"unattributed": 35, // [10,20), [70,90): containers; [40,45): a flush nobody waits for
		"core":         30, // the push [20,40), flush or not; the wait alone [60,70)
		"agg":          10, // [45,50) and [55,60): the flush behind the wait
		"rpc":          5,  // [50,55): the handler behind the flush
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	if sum != root.DurNs {
		t.Errorf("budget sums to %d, the span lasted %d", sum, root.DurNs)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("budget = %v, want %v", got, want)
	}
}

func TestMirrorReplaysHistory(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 2, Weight: 1}, {Src: 1, Dst: 0, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	m := newMirror(g)
	m.apply([]delta.Mutation{
		{Op: delta.OpDelEdge, Src: 0, Dst: 1},
		{Op: delta.OpAddEdge, Src: 2, Dst: 1, Weight: 0.5},
	})
	out, err := m.graph()
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Neighbors(0); len(got) != 1 || got[0] != 2 {
		t.Errorf("row 0 = %v, want [2]", got)
	}
	if got := out.Neighbors(2); len(got) != 1 || got[0] != 1 || out.WeightedDegree[2] != 0.5 {
		t.Errorf("row 2 = %v (wdeg %v), want [1] (0.5)", got, out.WeightedDegree[2])
	}
	for _, batch := range genMutations(graph.Ring(64), 1, 3) {
		if len(batch) != mutateBatchOps {
			t.Errorf("batch of %d ops, want %d", len(batch), mutateBatchOps)
		}
	}
}
