package experiments

import (
	"strings"
	"testing"
)

// quickParams keep every experiment fast enough for the regular test run.
func quickParams() Params {
	return Params{Scale: 32, Warmup: 0, Repeats: 1, Queries: 4}
}

func TestTable1(t *testing.T) {
	p := quickParams()
	r, rows := Table1(p)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(r.String(), "twitter-sim") {
		t.Fatalf("report missing dataset: %s", r)
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	p := quickParams()
	_, rows, err := Table2(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		// The paper's headline ordering, PPR Engine >> PyTorch Tensor, is a
		// wall-clock ratio that varies with the host (under -race the
		// engine slows, the tensor baseline's simulated dispatch does not),
		// so pprbench reports it and tier-1 asserts the work behind it.
		// Both run Forward Push over the same sources, and the counts are
		// deterministic. The engine finishes in fewer rounds (6.0–7.3 per
		// query against 8.4–10.4 at quickParams), so it pays fewer fetch
		// round trips; and each round the tensor baseline finds its
		// frontier by scanning every vertex, while the engine drains only
		// the vertices it activated.
		if row.EngineRounds <= 0 || row.EnginePushes <= 0 || row.TensorPushes <= 0 {
			t.Fatalf("%s: a side did no work: %+v", row.Dataset, row)
		}
		if row.EngineRounds >= row.TensorRounds {
			t.Fatalf("%s: engine %.2f rounds per query, tensor %.2f: want fewer",
				row.Dataset, row.EngineRounds, row.TensorRounds)
		}
		if row.TensorScanned < 2*row.EngineScanned {
			t.Fatalf("%s: the tensor scan reads %.0f vertices per query, the engine pops %.0f: want at least 2x",
				row.Dataset, row.TensorScanned, row.EngineScanned)
		}
		// The engine-vs-SpMM position is scale-dependent: compiled power
		// iteration over a test-scale graph is cheap, whereas the paper's
		// graphs make any whole-graph method slow. Recorded, not asserted
		// (see EXPERIMENTS.md "honest divergences").
		if row.DGLSpMM <= 0 {
			t.Fatalf("%s: missing SpMM row", row.Dataset)
		}
	}
}

func TestAccuracyClaim(t *testing.T) {
	p := quickParams()
	_, rows, err := Accuracy(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Top100 < 0.9 {
			t.Fatalf("%s: top-100 precision %.3f below 0.9", row.Dataset, row.Top100)
		}
		// The FP-vs-PI speed ratio is scale-dependent (FP's locality only
		// pays off on graphs much larger than the tiny test scale), so it
		// is recorded but not asserted here; see EXPERIMENTS.md.
		if row.FPSpeedup <= 0 {
			t.Fatalf("%s: missing FP/PI ratio", row.Dataset)
		}
	}
}

func TestTable3LadderImproves(t *testing.T) {
	p := quickParams()
	_, rows, err := Table3(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The ladder's speed-ups are wall-clock ratios and vary with the host;
	// the traffic behind them does not. Every rung replays the same pop
	// rounds. Single ships one request per remote row; batching ships at
	// most one per round (two machines: one remote shard), whose bytes are
	// the IDs plus a small header; compression and overlap change the
	// response encoding and the timing, never the requests.
	single, batch := rows[0], rows[1]
	if single.Rounds == 0 || single.RemoteRows == 0 {
		t.Fatalf("Single rung did no remote work: %+v", single)
	}
	if single.Requests != single.RemoteRows {
		t.Fatalf("Single: %d requests for %d remote rows", single.Requests, single.RemoteRows)
	}
	if batch.Requests > batch.Rounds || 2*batch.Requests > single.Requests {
		t.Fatalf("+Batch: %d requests over %d rounds (Single: %d)", batch.Requests, batch.Rounds, single.Requests)
	}
	if ids := 4 * batch.RemoteRows; batch.RequestBytes >= single.RequestBytes || batch.RequestBytes > ids+64*batch.Requests {
		t.Fatalf("+Batch: %d request bytes, Single %d", batch.RequestBytes, single.RequestBytes)
	}
	for _, row := range rows {
		if row.Rounds != single.Rounds || row.RemoteRows != single.RemoteRows {
			t.Fatalf("%s: %d rounds and %d remote rows, Single %d and %d", row.Name, row.Rounds, row.RemoteRows, single.Rounds, single.RemoteRows)
		}
	}
	for _, row := range rows[2:] {
		if row.Requests != batch.Requests || row.RequestBytes != batch.RequestBytes {
			t.Fatalf("%s: %d requests / %d bytes, +Batch %d / %d", row.Name, row.Requests, row.RequestBytes, batch.Requests, batch.RequestBytes)
		}
	}
}

func TestFig5aRuns(t *testing.T) {
	p := quickParams()
	p.Queries = 2
	_, rows, err := Fig5a(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Remote fraction grows with machine count (more partitions => more
	// cross-shard edges), per the paper's observation.
	for d := 0; d < 4; d++ {
		r2 := rows[d*3].RemoteFrac
		r8 := rows[d*3+2].RemoteFrac
		if r8 < r2 {
			t.Fatalf("dataset %s: remote fraction fell from %.3f (2) to %.3f (8)",
				rows[d*3].Dataset, r2, r8)
		}
	}
}

func TestFig6PushShare(t *testing.T) {
	p := quickParams()
	_, rows, err := Fig6(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	// For every dataset the engine's per-query push time must undercut the
	// tensor baseline's (the paper reports 5-16x).
	for i := 0; i < len(rows); i += 2 {
		tensor, engine := rows[i], rows[i+1]
		if engine.Push >= tensor.Push {
			t.Fatalf("%s: engine push %v not faster than tensor push %v",
				engine.Dataset, engine.Push, tensor.Push)
		}
	}
}

func TestIntroComparison(t *testing.T) {
	p := quickParams()
	_, rows, err := Intro(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper's structural claim is that FP gains far exceed RW gains. The
	// speed-ups themselves are wall-clock ratios that vary with the host;
	// what causes them does not: a Forward Push query makes at least twice
	// the remote calls of a walk, so the per-call costs the engine removes
	// weigh at least twice as heavily on it.
	fp, rw := rows[0], rows[1]
	if rw.CallsPerQuery <= 0 {
		t.Fatalf("Random Walk made no remote calls: %+v", rw)
	}
	if fp.CallsPerQuery < 2*rw.CallsPerQuery {
		t.Fatalf("FP makes %.2f remote calls per query, RW %.2f per walk: want at least 2x",
			fp.CallsPerQuery, rw.CallsPerQuery)
	}
}

func TestPartQualityOrdering(t *testing.T) {
	p := quickParams()
	_, rows, err := PartQuality(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	minCut, hash := rows[0], rows[2]
	if minCut.EdgeCut >= hash.EdgeCut {
		t.Fatalf("min-cut edge cut %d not below hash %d", minCut.EdgeCut, hash.EdgeCut)
	}
	if minCut.RemoteFrac >= hash.RemoteFrac {
		t.Fatalf("min-cut remote frac %.3f not below hash %.3f", minCut.RemoteFrac, hash.RemoteFrac)
	}
}

func TestFig7LossDecreases(t *testing.T) {
	p := quickParams()
	_, stats, err := Fig7(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) < 2 {
		t.Fatalf("stats = %v", stats)
	}
	if !(stats[len(stats)-1].MeanLoss < stats[0].MeanLoss) {
		t.Fatalf("loss did not decrease: %v", stats)
	}
}

func TestFig5bRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	p := quickParams()
	p.Queries = 4
	_, rows, err := Fig5b(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*4*2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Seconds <= 0 {
			t.Fatalf("non-positive time: %+v", row)
		}
	}
}

func TestHaloAblation(t *testing.T) {
	p := quickParams()
	_, rows, err := Halo(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	plain, cached := rows[0], rows[1]
	if cached.RemoteFrac >= plain.RemoteFrac {
		t.Fatalf("halo rows did not reduce remote traffic: %.3f vs %.3f",
			cached.RemoteFrac, plain.RemoteFrac)
	}
	if cached.HaloFrac <= 0 || plain.HaloFrac != 0 {
		t.Fatalf("halo fractions wrong: %+v", rows)
	}
	if cached.MemoryBytes <= plain.MemoryBytes {
		t.Fatalf("halo rows should cost memory: %d vs %d",
			cached.MemoryBytes, plain.MemoryBytes)
	}
}

func TestEpsSweepMonotone(t *testing.T) {
	p := quickParams()
	_, rows, err := EpsSweep(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Tighter eps touches at least as many nodes and is never better than
	// ~equal throughput; precision is non-decreasing (within noise).
	for i := 1; i < len(rows); i++ {
		if rows[i].Touched < rows[i-1].Touched {
			t.Fatalf("touched not monotone: %+v", rows)
		}
		if rows[i].Top100+0.05 < rows[i-1].Top100 {
			t.Fatalf("precision regressed sharply: %+v", rows)
		}
	}
	if rows[len(rows)-1].Top100 < 0.9 {
		t.Fatalf("tightest eps precision %.3f", rows[len(rows)-1].Top100)
	}
}

func TestNetLatencySweep(t *testing.T) {
	p := quickParams()
	p.Queries = 6
	p.Repeats = 2
	_, rows, err := NetLatency(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// A 10ms link must hurt throughput unambiguously.
	if rows[2].Throughput >= rows[0].Throughput {
		t.Fatalf("10ms latency did not reduce throughput: %+v", rows)
	}
	// On this single-core host overlap has almost no local work to hide,
	// so its benefit is within scheduling noise; assert only that it is
	// not catastrophically worse. The positive overlap gain is reported
	// (not asserted) by the netlatency experiment at larger scales.
	if rows[2].OverlapTP < rows[2].Throughput*0.6 {
		t.Fatalf("overlap collapsed under latency: %+v", rows[2])
	}
}

func TestModelsComparison(t *testing.T) {
	p := quickParams()
	_, rows, err := Models(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		// Every architecture must learn the synthetic task well beyond
		// random (0.25 for 4 classes).
		if row.HeldOut < 0.4 {
			t.Fatalf("%s: held-out accuracy %.3f", row.Model, row.HeldOut)
		}
	}
}

func TestCacheBenchSecondPassCheaper(t *testing.T) {
	p := quickParams()
	p.Queries = 8
	_, rows, err := CacheBench(p, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (two passes x two budgets)", len(rows))
	}
	off1, off2, on1, on2 := rows[0], rows[1], rows[2], rows[3]
	// Cache disabled: both passes pay full price and report no cache stats —
	// the ablation baseline is untouched.
	if off1.CacheHits != 0 || off2.CacheHits != 0 || off1.CacheCoalesced != 0 {
		t.Fatalf("cache-off passes report cache stats: %+v %+v", off1, off2)
	}
	if off2.RemoteRows == 0 || off2.BytesSent == 0 {
		t.Fatalf("cache-off second pass did no remote work: %+v", off2)
	}
	// Cache enabled: the repeated pass fetches strictly less over the wire.
	if on2.RemoteRows >= on1.RemoteRows || on2.RemoteRows >= off2.RemoteRows {
		t.Fatalf("cached second pass RemoteRows not lower: on1=%d on2=%d off2=%d",
			on1.RemoteRows, on2.RemoteRows, off2.RemoteRows)
	}
	if on2.BytesSent >= off2.BytesSent {
		t.Fatalf("cached second pass bytes not lower: %d vs %d", on2.BytesSent, off2.BytesSent)
	}
	if on2.CacheHits == 0 {
		t.Fatal("cached second pass recorded no hits")
	}
}

func TestTraceOverheadRuns(t *testing.T) {
	p := quickParams()
	p.Queries = 2
	_, rows, err := TraceOverhead(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (rates 0, 0.01, 1)", len(rows))
	}
	// Rate 0 records nothing; rate 1 records every query's spans. Overhead
	// numbers are noise-dominated at this scale, so only span counts are
	// asserted.
	if rows[0].Spans != 0 {
		t.Fatalf("rate 0 recorded %d spans", rows[0].Spans)
	}
	if rows[2].Spans == 0 {
		t.Fatal("rate 1 recorded no spans")
	}
	if rows[2].Throughput <= 0 {
		t.Fatalf("rate 1 throughput = %v", rows[2].Throughput)
	}
}
