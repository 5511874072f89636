package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pprengine/internal/admit"
	"pprengine/internal/delta"
	"pprengine/internal/gnn"
	"pprengine/internal/graph"
	"pprengine/internal/obs"
)

// Outcome of one operation. A shed or failed operation misses any latency
// limit by definition.
const (
	opOK uint8 = iota
	opShed
	opFailed
)

// sample is one finished operation: when it finished and how long it took,
// both relative to the phase start. On the open loop latency runs from the
// request's due time, so a stalled system is charged for the requests it
// delayed.
type sample struct {
	doneNs int64
	latNs  int64
	kind   uint8
}

// Phase IDs keep the source sequences of a run's stretches apart.
const (
	phaseGate     = 1
	phaseWarmup   = 2
	phaseMeasured = 3
	phaseRef      = 4 // trace mode: the untraced reference run
	phasePostGate = 5
)

// sourceGen draws one generator's source sequence. It is seeded from the
// benchmark seed, the generator index and the phase, so the measured phase
// replays the same sequence whatever the warm-up did.
type sourceGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	d    *dataset
}

func newSourceGen(d *dataset, wl workloadDef, seed int64, client int, phase int64) *sourceGen {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + phase))
	g := &sourceGen{rng: rng, d: d}
	if wl.Zipf {
		g.zipf = rand.NewZipf(rng, zipfS, 1, uint64(d.g.NumNodes-1))
	}
	return g
}

func (s *sourceGen) next() graph.NodeID {
	if s.zipf != nil {
		return s.d.byDegree[s.zipf.Uint64()]
	}
	return graph.NodeID(s.rng.Intn(s.d.g.NumNodes))
}

// opStats is what the operations of a phase collect beside their latency.
type opStats struct {
	batchNodes atomic.Int64 // sum of /infer batch sizes
	lastErr    atomic.Value // string: the latest operation error, for the report
}

func (st *opStats) lastError() string {
	msg, _ := st.lastErr.Load().(string)
	return msg
}

// do runs one operation through the front door as generator w and checks the
// answer's shape; the oracle comparison happens once, in the gate.
func (e *env) do(ctx context.Context, w int, src graph.NodeID, st *opStats) uint8 {
	var root obs.ActiveSpan
	if e.tracer != nil {
		name := "client:query"
		if e.wl.Kind == kindInfer {
			name = "client:infer"
		}
		root = e.tracer.StartTrace(name)
		ctx = obs.ContextWith(ctx, root.Context())
	}
	var err error
	if e.wl.Kind == kindInfer {
		err = e.doInfer(ctx, w, src, st)
	} else {
		err = e.doQuery(ctx, w, src)
	}
	root.SetErr(err != nil)
	root.End()
	switch {
	case err == nil:
		return opOK
	case errors.Is(err, admit.ErrShed):
		return opShed
	default:
		st.lastErr.Store(err.Error())
		return opFailed
	}
}

func (e *env) doQuery(ctx context.Context, w int, src graph.NodeID) error {
	resp, err := e.qcs[w].Query(ctx, src, topK, 0, 0)
	if err != nil {
		return err
	}
	if len(resp.Globals) == 0 || len(resp.Globals) != len(resp.Scores) || !(resp.Scores[0] > 0) {
		return fmt.Errorf("query %d: malformed answer (%d ids, %d scores)", src, len(resp.Globals), len(resp.Scores))
	}
	return nil
}

func (e *env) doInfer(ctx context.Context, w int, src graph.NodeID, st *opStats) error {
	res, err := e.httpInfer(ctx, w, src)
	if err != nil {
		return err
	}
	if len(res.Logits) != numClasses {
		return fmt.Errorf("infer %d: %d logits, want %d", src, len(res.Logits), numClasses)
	}
	for _, l := range res.Logits {
		if math.IsNaN(float64(l)) || math.IsInf(float64(l), 0) {
			return fmt.Errorf("infer %d: non-finite logit", src)
		}
	}
	st.batchNodes.Add(int64(res.BatchSize))
	return nil
}

// httpInfer is GET /infer?source= on the owner of src.
func (e *env) httpInfer(ctx context.Context, w int, src graph.NodeID) (*gnn.InferResult, error) {
	sh, local := e.data.loc.Locate(src)
	url := "http://" + e.httpAddrs[sh] + "/infer?source=" + strconv.Itoa(int(local))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	traceToHeader(ctx, req)
	resp, err := e.httpClient[w].Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		return nil, fmt.Errorf("infer %d: %w", src, admit.ErrShed)
	default:
		return nil, fmt.Errorf("infer %d: HTTP %d: %s", src, resp.StatusCode, body)
	}
	var res gnn.InferResult
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("infer %d: %w", src, err)
	}
	return &res, nil
}

// mark is one snapshot of the process at a window boundary.
type mark struct {
	atNs      int64
	cpuNs     int64
	mallocs   uint64
	allocated uint64
}

// phase is one driven stretch of load: a warm-up (until minOps operations
// finished) or a measured run (for dur, split into windows).
type phase struct {
	samples                      []sample
	lateNs                       []int64 // open loop: how late each request left the generator
	marks                        []mark  // measured run: the windows' boundaries
	start                        time.Time
	elapsed                      time.Duration
	stats                        opStats
	maxQueueDepth, maxLiveEpochs int64
	maxPauseNs                   int64
}

// drive runs one phase. Closed loops keep numClients requests in flight;
// the open loop sends openLoopRate requests per second whatever the system
// does. phaseID separates the warm-up's source sequence from the measured one.
// A measured phase (dur > 0) is cut into nWin windows; the last one closes
// when the operations in flight at dur have finished, so every operation
// sent falls into a window and a stall at the end is charged, not dropped.
func (e *env) drive(seed, phaseID int64, dur time.Duration, nWin int, minOps int64, open bool) *phase {
	p := &phase{}
	ctx := context.Background()
	var stop atomic.Bool
	var done atomic.Int64
	t0 := time.Now()
	p.start = t0
	var wg sync.WaitGroup
	perClient := make([][]sample, numClients())

	var sent int // open loop: requests that left the generator
	if open {
		n := int(openLoopRate * dur.Seconds()) // due times 0, 1/rate, ... < dur
		p.samples = make([]sample, n)
		p.lateNs = make([]int64, n)
		samples, late := p.samples, p.lateNs
		interval := time.Second / openLoopRate
		gen := newSourceGen(e.data, e.wl, seed, 0, phaseID)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var inflight sync.WaitGroup
			for i := 0; i < n && !stop.Load(); i++ {
				due := time.Duration(i) * interval
				if wait := due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				late[i] = int64(time.Since(t0) - due)
				src := gen.next()
				inflight.Add(1)
				go func(i int, due time.Duration, src graph.NodeID) {
					defer inflight.Done()
					kind := e.do(ctx, i%numClients(), src, &p.stats)
					end := time.Since(t0)
					samples[i] = sample{doneNs: int64(end), latNs: int64(end - due), kind: kind}
					done.Add(1)
				}(i, due, src)
				sent = i + 1
			}
			inflight.Wait()
		}()
	} else {
		for w := 0; w < numClients(); w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				gen := newSourceGen(e.data, e.wl, seed, w, phaseID)
				mine := make([]sample, 0, 1<<14)
				for first := true; first || !stop.Load(); first = false {
					src := gen.next()
					t := time.Since(t0)
					kind := e.do(ctx, w, src, &p.stats)
					end := time.Since(t0)
					mine = append(mine, sample{doneNs: int64(end), latNs: int64(end - t), kind: kind})
					done.Add(1)
				}
				perClient[w] = mine
			}(w)
		}
	}

	// The poller watches the gauges that only have a current value.
	pollStop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-pollStop:
				return
			case <-tick.C:
				e.poll(p)
			}
		}
	}()

	if dur > 0 {
		win := dur / time.Duration(nWin)
		for k := 0; k < nWin; k++ {
			time.Sleep(time.Duration(k)*win - time.Since(t0))
			p.marks = append(p.marks, takeMark(t0))
		}
		time.Sleep(dur - time.Since(t0))
	} else {
		for done.Load() < minOps {
			time.Sleep(time.Millisecond)
		}
	}
	stop.Store(true)
	wg.Wait()
	if dur > 0 {
		p.marks = append(p.marks, takeMark(t0))
	}
	close(pollStop)
	pollWG.Wait()
	p.elapsed = time.Since(t0)
	p.samples, p.lateNs = p.samples[:sent], p.lateNs[:sent]
	for _, s := range perClient {
		p.samples = append(p.samples, s...)
	}
	return p
}

// poll folds the current admission queue depth and delta-store state into
// the phase's maxima.
func (e *env) poll(p *phase) {
	if d := int64(e.c.AdmitStats().QueueDepth); d > p.maxQueueDepth {
		p.maxQueueDepth = d
	}
	for _, s := range e.c.DeltaStats() {
		if int64(s.LiveEpochs) > p.maxLiveEpochs {
			p.maxLiveEpochs = int64(s.LiveEpochs)
		}
		if s.LastPauseNs > p.maxPauseNs {
			p.maxPauseNs = s.LastPauseNs
		}
	}
}

// writer sends mutation batches through Cluster.Mutate on its own open-loop
// schedule, from before the warm-up until the measured run ends.
type writer struct {
	e        *env
	batches  [][]delta.Mutation
	t0       time.Time
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu      sync.Mutex
	applied int     // batches applied, in order
	dueNs   []int64 // per applied batch: due time since t0
	latNs   []int64 // per applied batch: latency from due time
	callNs  []int64 // per applied batch: time inside Cluster.Mutate
	err     error

	held [][]uint64 // oldest first: the epoch pinned on each machine's store after a batch (holdEpochs)
}

func startWriter(e *env, batches [][]delta.Mutation) *writer {
	w := &writer{e: e, batches: batches, t0: time.Now(), stop: make(chan struct{})}
	w.wg.Add(1)
	go w.run()
	return w
}

func (w *writer) run() {
	defer w.wg.Done()
	interval := time.Second / mutateBatchRate
	for i, b := range w.batches {
		due := time.Duration(i) * interval
		if wait := due - time.Since(w.t0); wait > 0 {
			select {
			case <-w.stop:
				return
			case <-time.After(wait):
			}
		}
		select {
		case <-w.stop:
			return
		default:
		}
		ctx := context.Background()
		var root obs.ActiveSpan
		if w.e.tracer != nil {
			root = w.e.tracer.StartTrace("client:mutate")
			ctx = obs.ContextWith(ctx, root.Context())
		}
		call := time.Now()
		_, err := w.e.c.Mutate(ctx, b)
		end := time.Now()
		root.SetErr(err != nil)
		root.End()
		w.mu.Lock()
		if err != nil {
			w.err = fmt.Errorf("mutation batch %d: %w", i, err)
			w.mu.Unlock()
			return
		}
		w.applied++
		w.dueNs = append(w.dueNs, int64(due))
		w.latNs = append(w.latNs, int64(end.Sub(w.t0)-due))
		w.callNs = append(w.callNs, int64(end.Sub(call)))
		w.mu.Unlock()
		w.holdEpochs(epochHoldBatches)
	}
}

// holdEpochs pins the newest epoch on every machine's store and lets go of
// the pins taken more than keep batches ago. A query pins its epoch on its
// own machine only, and another machine's compactor, which does not see that
// pin, can fold past it and fail the query's next fetch there ("epoch
// retired", README "What the benchmark found"). A workload may not contain
// failing operations, so the writer keeps the last keep epochs, far longer
// than any read runs, alive on all machines; compaction still runs every
// compactInterval and bakes everything older.
func (w *writer) holdEpochs(keep int) {
	pins := make([]uint64, len(w.e.c.Deltas))
	for m, st := range w.e.c.Deltas {
		if st != nil {
			pins[m] = st.PinCurrent()
		}
	}
	w.held = append(w.held, pins)
	for len(w.held) > keep {
		for m, st := range w.e.c.Deltas {
			if st != nil {
				st.Unpin(w.held[0][m])
			}
		}
		w.held = w.held[1:]
	}
}

// finish stops the writer, waits for the batch in flight and returns the
// writer's error. Later calls return the same.
func (w *writer) finish() error {
	w.stopOnce.Do(func() { close(w.stop) })
	w.wg.Wait()
	w.holdEpochs(0)
	return w.err
}

// since returns the latencies of batches due at or after from (measured
// since the writer started).
func (w *writer) since(from time.Duration) (latNs, callNs []int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, d := range w.dueNs {
		if d >= int64(from) {
			latNs = append(latNs, w.latNs[i])
			callNs = append(callNs, w.callNs[i])
		}
	}
	return latNs, callNs
}
