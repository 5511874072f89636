package obs

import (
	"bufio"
	"flag"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds the registry the golden file encodes: every
// instrument kind, a labeled family, escaping edge cases, and a scrape-time
// adapter.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("ppr_test_requests_total", "Requests handled.", nil).Add(3)
	r.Counter("ppr_test_ops_total", "Ops by phase.", Labels{"phase": "pop", "shard": "2"}).Add(2)
	r.Counter("ppr_test_ops_total", "Ops by phase.", Labels{"shard": "2", "phase": "push"}).Add(5)
	r.Gauge("ppr_test_queue_depth", "Current queue depth.", nil).Set(7.5)
	r.Counter("ppr_test_escape_total", "Help with \\ backslash and\nnewline.", Labels{"path": "a\\b\"c\n"}).Inc()
	h := r.Histogram("ppr_test_latency_seconds", "Query latency.", nil, []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 8} {
		h.Observe(v)
	}
	r.CounterFunc("ppr_test_adapter_total", "Scrape-time adapter.", nil, func() float64 { return 42 })
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	const path = "testdata/metrics.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from golden (-want +got):\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestLabelDedup verifies equal label sets identify the same series
// regardless of map iteration order, and distinct sets stay distinct.
func TestLabelDedup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", Labels{"a": "1", "b": "2"})
	b := r.Counter("x_total", "x", Labels{"b": "2", "a": "1"})
	if a != b {
		t.Fatal("equal label sets produced distinct series")
	}
	c := r.Counter("x_total", "x", Labels{"a": "1", "b": "3"})
	if a == c {
		t.Fatal("distinct label sets shared a series")
	}
}

func TestCounterMonotone(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("m_total", "m", nil)
	c.Add(5)
	c.Add(-3) // ignored
	c.Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("counter = %v, want 6", got)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual", "d", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("dual", "d", nil)
}

// TestHistogramInvariants renders a randomly-filled histogram and checks the
// text-format invariants: cumulative buckets are monotone non-decreasing,
// the +Inf bucket equals _count, and _sum matches the observations.
func TestHistogramInvariants(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("inv_seconds", "inv", nil, []float64{0.25, 0.5, 1, 2})
	rng := rand.New(rand.NewSource(7))
	var sum float64
	const n = 1000
	for i := 0; i < n; i++ {
		v := rng.Float64() * 4 // spills past the last bound ~half the time
		sum += v
		h.Observe(v)
	}
	if h.Count() != n {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var buckets []int64
	var infVal, countVal int64 = -1, -1
	var sumVal float64
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		switch {
		case strings.HasPrefix(name, "inv_seconds_bucket"):
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", val, err)
			}
			buckets = append(buckets, v)
			if strings.Contains(name, `le="+Inf"`) {
				infVal = v
			}
		case name == "inv_seconds_sum":
			sumVal, _ = strconv.ParseFloat(val, 64)
		case name == "inv_seconds_count":
			countVal, _ = strconv.ParseInt(val, 10, 64)
		}
	}
	if len(buckets) != 5 {
		t.Fatalf("got %d bucket lines, want 5 (4 bounds + +Inf)", len(buckets))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] < buckets[i-1] {
			t.Fatalf("cumulative buckets not monotone: %v", buckets)
		}
	}
	if infVal != countVal || countVal != n {
		t.Fatalf("+Inf bucket %d, _count %d, want both %d", infVal, countVal, n)
	}
	if diff := sumVal - sum; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("_sum = %v, want %v", sumVal, sum)
	}
}

func TestEngineAdaptersRender(t *testing.T) {
	r := NewRegistry()
	RegisterEngineMetrics(r)
	RegisterGoMetrics(r)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"ppr_cache_hits_total", "ppr_agg_flushes_total", "ppr_wire_requests_total",
		"ppr_failovers_total", "ppr_breaker_opens_total", "go_goroutines",
	} {
		if !strings.Contains(out, "\n"+want+" ") && !strings.Contains(out, "\n"+want+"{") {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestTenantLatencyHookGolden: tenant names come off the wire, so the
// per-tenant histogram family is capped — the first MaxTenantSeries names keep
// their own series, every later one lands in tenant="other". The golden file
// holds the family's _count lines after 70 tenants each completed queries
// (the bucket lines repeat the registry golden's shape 65 times over).
func TestTenantLatencyHookGolden(t *testing.T) {
	r := NewRegistry()
	hook := TenantLatencyHook(r)
	for round := 0; round < 2; round++ {
		for i := 0; i < MaxTenantSeries+6; i++ {
			hook("t"+strconv.Itoa(100+i), 0.001*float64(i+1))
		}
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	series := 0
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "#") || strings.HasPrefix(line, "ppr_tenant_query_seconds_count") {
			got.WriteString(line + "\n")
			if !strings.HasPrefix(line, "#") {
				series++
			}
		}
	}
	if series != MaxTenantSeries+1 {
		t.Fatalf("%d series after %d tenants, want %d named + other", series, MaxTenantSeries+6, MaxTenantSeries)
	}
	const path = "testdata/tenant_metrics.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("tenant exposition differs from golden:\n--- want ---\n%s--- got ---\n%s", want, got.String())
	}
}
