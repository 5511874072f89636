package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"pprengine/internal/obs"
)

const (
	// benchMachine is the machine id the benchmark's own spans carry; the
	// cluster's machines are 0..machines-1.
	benchMachine = 100
	// traceRing is each tracer's span ring. A traced run records every
	// query, so the rings wrap; the analysis keeps the traces that are still
	// whole in every ring.
	traceRing = 1 << 17
	// traceFileCap bounds the traces written to the trace file.
	traceFileCap = 200

	traceHeader = "X-Bench-Trace"
)

// traceToHeader carries ctx's span context on an HTTP request, so the
// InferService's spans join the client's trace.
func traceToHeader(ctx context.Context, req *http.Request) {
	if sc := obs.FromContext(ctx); sc.Valid() {
		req.Header.Set(traceHeader, strconv.FormatUint(sc.TraceID, 16)+"-"+strconv.FormatUint(sc.SpanID, 16))
	}
}

// traceFromHeader is the server half: it restores the span context into the
// request's context before the wrapped handler runs.
func traceFromHeader(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t, s, ok := strings.Cut(r.Header.Get(traceHeader), "-"); ok {
			tid, err1 := strconv.ParseUint(t, 16, 64)
			sid, err2 := strconv.ParseUint(s, 16, 64)
			if err1 == nil && err2 == nil {
				r = r.WithContext(obs.ContextWith(r.Context(), obs.SpanContext{TraceID: tid, SpanID: sid}))
			}
		}
		next.ServeHTTP(w, r)
	})
}

// spanClass says how a span enters the latency budget.
type spanClass int

const (
	// classBusy: the request's own goroutine works, or queues, inside the span.
	classBusy spanClass = iota
	// classWait: the request's goroutine waits inside the span for the work
	// the classBehind spans below it do.
	classWait
	// classBehind: work done for the request on another goroutine or machine.
	// It counts only while the request waits; beside a busy span it is
	// overlap the request does not pay for.
	classBehind
)

// spanRole is a span name's layer, class and nesting rank: of the waits (or
// of the spans behind a wait) that cover an instant, the innermost wins.
type spanRole struct {
	layer string
	class spanClass
	rank  int
}

// spanRoles lists the spans a layer emits around its own work. A span not
// listed is a container: client:*, rpc:SSPPRQuery, query, infer and any name
// the benchmark does not know. Time only the client span covers is the front
// door (codec, loopback, dispatch), measured by the benchmark's own span
// around QueryClient.Query or the HTTP request; time only other containers
// cover is glue between the instrumented steps, which nobody named.
var spanRoles = map[string]spanRole{
	"pop":         {"core", classBusy, 0},
	"push":        {"core", classBusy, 0},
	"local-fetch": {"core", classBusy, 0},
	"admit:wait":  {"admit", classBusy, 0},

	"remote-fetch":   {"core", classWait, 1},
	"cache:wait":     {"cache", classWait, 2},
	"featcache:wait": {"gnn", classWait, 2},

	"agg:flush":              {"agg", classBehind, 1},
	"featagg:flush":          {"gnn", classBehind, 1},
	"ha:attempt":             {"ha", classBehind, 2},
	"admit:primary":          {"ha", classBehind, 2},
	"admit:hedge":            {"ha", classBehind, 2},
	"rpc:GetNeighborInfos":   {"rpc", classBehind, 3},
	"rpc:GetNeighborInfosAt": {"rpc", classBehind, 3},
	"rpc:FetchFeatures":      {"gnn", classBehind, 3},
}

const (
	budgetFrontDoor    = "frontdoor"
	budgetUnattributed = "unattributed"
)

// budgetOf splits the root span's wall time among the layers: every instant
// goes to exactly one line, so the lines sum to the wall time. An instant
// belongs to the busy span covering it; failing that, while a wait span
// covers it, to the innermost span working behind the wait, or to the wait
// itself; failing that, to the front door when nothing but the root covers
// it, and to nobody otherwise.
func budgetOf(root obs.Span, trace []obs.Span) map[string]int64 {
	lo, hi := root.Start, root.Start+root.DurNs
	type iv struct {
		a, b int64
		role spanRole
		ok   bool
	}
	ivs := make([]iv, 0, len(trace))
	cuts := []int64{lo, hi}
	for _, s := range trace {
		if s.ID == root.ID {
			continue
		}
		a, b := max(s.Start, lo), min(s.Start+s.DurNs, hi)
		if b <= a {
			continue
		}
		role, ok := spanRoles[s.Name]
		ivs = append(ivs, iv{a, b, role, ok})
		cuts = append(cuts, a, b)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := map[string]int64{}
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if a == b {
			continue
		}
		line := budgetFrontDoor
		var wait, behind spanRole
		busy := false
		for _, v := range ivs {
			if v.a > a || v.b < b {
				continue
			}
			if line == budgetFrontDoor {
				line = budgetUnattributed
			}
			switch {
			case !v.ok:
			case v.role.class == classBusy:
				line, busy = v.role.layer, true
			case v.role.class == classWait && v.role.rank > wait.rank:
				wait = v.role
			case v.role.class == classBehind && v.role.rank > behind.rank:
				behind = v.role
			}
		}
		switch {
		case busy:
		case wait.rank > 0 && behind.rank > 0:
			line = behind.layer
		case wait.rank > 0:
			line = wait.layer
		}
		out[line] += b - a
	}
	return out
}

// traceSummary is what the analysis of a traced run yields.
type traceSummary struct {
	Traces        int     `json:"traces"`
	SpansPerQuery float64 `json:"spans_per_query"`
	// BudgetMs is the mean client wall time of a request split by budgetOf;
	// its lines sum to ClientWallMs.
	BudgetMs     map[string]float64 `json:"budget_ms"`
	ClientWallMs float64            `json:"client_wall_ms_mean"`
	SelfMsByName map[string]float64 `json:"self_ms_by_name"` // per query
	MeanMsByName map[string]float64 `json:"mean_ms_by_name"` // per span
	// Unattributed is the median unattributed time of a request over the
	// median client wall time.
	ClientWallP50Ms   float64 `json:"client_wall_ms_p50"`
	UnattributedP50Ms float64 `json:"unattributed_ms_p50"`
	Unattributed      float64 `json:"unattributed_ratio"`
}

// selfNs is a span's duration minus the part of it its children cover.
func selfNs(s obs.Span, kids []obs.Span) int64 {
	if len(kids) == 0 {
		return s.DurNs
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	end := s.Start + s.DurNs
	var covered int64
	cursor := s.Start
	for _, k := range kids {
		lo, hi := k.Start, k.Start+k.DurNs
		if lo < cursor {
			lo = cursor
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			covered += hi - lo
			cursor = hi
		}
	}
	return s.DurNs - covered
}

// analyzeTraces merges the benchmark's spans with the cluster's by trace id
// and computes the budget and the self times over the traces that are whole:
// rooted at one of the benchmark's read spans, started at or after since (the
// traced phase's start, UnixNano) and after every wrapped ring's oldest
// surviving span.
func analyzeTraces(bench, clusterSpans []obs.Span, rings []*obs.Tracer, since int64) (traceSummary, [][]obs.Span) {
	horizon := since
	for _, tr := range rings {
		if sp := tr.Spans(); len(sp) > 0 && tr.Recorded() > int64(len(sp)) && sp[0].Start > horizon {
			horizon = sp[0].Start
		}
	}
	byTrace := map[uint64][]obs.Span{}
	for _, s := range append(append([]obs.Span(nil), bench...), clusterSpans...) {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	sum := traceSummary{BudgetMs: map[string]float64{}, SelfMsByName: map[string]float64{}, MeanMsByName: map[string]float64{}}
	nameCount := map[string]float64{}
	var kept [][]obs.Span
	var spans float64
	var walls, unattributed []int64
	for _, root := range bench {
		if root.Parent != 0 || root.Start < horizon || root.Name == "client:mutate" || root.Err {
			continue
		}
		tr := byTrace[root.Trace]
		kids := map[uint64][]obs.Span{}
		for _, s := range tr {
			if s.Parent != 0 {
				kids[s.Parent] = append(kids[s.Parent], s)
			}
		}
		for _, s := range tr {
			sum.SelfMsByName[s.Name] += float64(selfNs(s, kids[s.ID])) / 1e6
			sum.MeanMsByName[s.Name] += float64(s.DurNs) / 1e6
			nameCount[s.Name]++
		}
		budget := budgetOf(root, tr)
		for line, ns := range budget {
			sum.BudgetMs[line] += float64(ns) / 1e6
		}
		walls = append(walls, root.DurNs)
		unattributed = append(unattributed, budget[budgetUnattributed])
		spans += float64(len(tr))
		sum.Traces++
		if len(kept) < traceFileCap {
			kept = append(kept, tr)
		}
	}
	n := float64(sum.Traces)
	for k := range sum.BudgetMs {
		sum.BudgetMs[k] /= n
	}
	for k := range sum.SelfMsByName {
		sum.SelfMsByName[k] /= n
		sum.MeanMsByName[k] /= nameCount[k]
	}
	sum.SpansPerQuery = ratio(spans, n)
	sum.ClientWallMs = mean(walls) / 1e6
	sum.ClientWallP50Ms = percentile(walls, 0.50) / 1e6
	sum.UnattributedP50Ms = percentile(unattributed, 0.50) / 1e6
	sum.Unattributed = ratio(sum.UnattributedP50Ms, sum.ClientWallP50Ms)
	return sum, kept
}

// writeTraceFile writes the kept traces and their summary under dir.
func writeTraceFile(dir, workload string, seed int64, sum traceSummary, traces [][]obs.Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	doc := struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Summary  traceSummary `json:"summary"`
		Traces   [][]obs.Span `json:"traces"`
	}{workload, seed, sum, traces}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
