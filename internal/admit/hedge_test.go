package admit

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"pprengine/internal/agg"
	"pprengine/internal/chaos"
	"pprengine/internal/ha"
	"pprengine/internal/mem"
	"pprengine/internal/metrics"
	"pprengine/internal/obs"
	"pprengine/internal/rpc"
	"pprengine/internal/wire"
)

// The adaptive hedge delay is a per-shard p95 recomputed as samples are
// recorded: MaxDelay until warm-up, inside [MinDelay, MaxDelay] always, and
// caught up with a shifted latency distribution within one window.
func TestHedgeDelayTracksLatency(t *testing.T) {
	router := ha.NewReplicaRouter(ha.NewHealthTracker(ha.Options{}), make([][]*ha.Endpoint, 2), ha.Options{})
	h := NewHedger(router, HedgeOptions{MinDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond})
	for i := 0; i < hedgeWarmup-1; i++ {
		h.Observe(0, 2*time.Millisecond)
		if d := h.Delay(0); d != 50*time.Millisecond {
			t.Fatalf("delay after %d samples = %v, want MaxDelay until warm-up", i+1, d)
		}
	}
	h.Observe(0, 2*time.Millisecond)
	if d := h.Delay(0); d != 2*time.Millisecond {
		t.Fatalf("delay at warm-up = %v, want the 2ms p95", d)
	}
	if d := h.Delay(1); d != 50*time.Millisecond {
		t.Fatalf("shard 1 has no samples but delay = %v: the windows must be per shard", d)
	}
	// The distribution shifts to 10ms: one window of samples later the delay
	// has followed it (and is on its way before that).
	for i := 0; i < hedgeLatWindow+hedgeRecalc-hedgeWarmup; i++ { // ends on a recomputation
		h.Observe(0, 10*time.Millisecond)
	}
	if d := h.Delay(0); d != 10*time.Millisecond {
		t.Fatalf("delay one window after the shift = %v, want 10ms", d)
	}
	// ... and it only moves when the p95 is recomputed, every hedgeRecalc
	// samples, not on every call.
	for i := 0; i < hedgeRecalc-1; i++ {
		h.Observe(0, 30*time.Millisecond)
	}
	if d := h.Delay(0); d != 10*time.Millisecond {
		t.Fatalf("delay moved to %v between recomputations", d)
	}
	h.Observe(0, 30*time.Millisecond)
	if d := h.Delay(0); d != 30*time.Millisecond {
		t.Fatalf("delay after %d slow samples = %v, want 30ms (they are the top 5%% of the window)", hedgeRecalc, d)
	}
	for i := 0; i < hedgeLatWindow; i++ {
		h.Observe(0, time.Microsecond)
	}
	if d := h.Delay(0); d != time.Millisecond {
		t.Fatalf("delay under a fast primary = %v, want the MinDelay clamp", d)
	}
	for i := 0; i < hedgeLatWindow; i++ {
		h.Observe(0, time.Second)
	}
	if d := h.Delay(0); d != 50*time.Millisecond {
		t.Fatalf("delay under a slow primary = %v, want the MaxDelay clamp", d)
	}
	if d := NewHedger(router, HedgeOptions{Delay: 7 * time.Millisecond}).Delay(0); d != 7*time.Millisecond {
		t.Fatalf("fixed delay = %v, want 7ms", d)
	}
}

// hedgeRig is a primary (machine 0) and a replica (machine 1) of shard 0
// behind chaos listeners, a router over them and a hedger over the router.
type hedgeRig struct {
	in      *chaos.Injector
	tracker *ha.HealthTracker
	router  *ha.ReplicaRouter
	hedger  *Hedger
}

const methodFail = rpc.Method(40) // a handler that always errors

func newHedgeRig(t *testing.T, haOpts ha.Options, hopts HedgeOptions) *hedgeRig {
	t.Helper()
	rig := &hedgeRig{in: chaos.New(1), tracker: ha.NewHealthTracker(haOpts)}
	var eps []*ha.Endpoint
	for m, marker := range []string{"A", "B"} {
		srv := rpc.NewServer()
		srv.Handle(rpc.MethodGetNeighborInfos, func(p []byte) ([]byte, error) {
			if len(p) == 0 {
				return []byte(marker), nil
			}
			// A real fetch: one empty row per requested id, so the response
			// decodes and is big enough to come from the frame pool.
			ids, err := wire.DecodeIDList(p)
			if err != nil {
				return nil, err
			}
			return wire.EncodeCSR(&wire.NeighborInfos{Indptr: make([]int32, len(ids)+1), RowWDeg: make([]float32, len(ids))}), nil
		})
		srv.Handle(methodFail, func([]byte) ([]byte, error) { return nil, errors.New("handler says no") })
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(rig.in.WrapListener(m, lis))
		t.Cleanup(srv.Close)
		ep := ha.NewEndpoint(m, 0, lis.Addr().String(), []string{"m0", "m1"}[m], rpc.LatencyModel{})
		rig.tracker.Register(ep)
		eps = append(eps, ep)
	}
	rig.router = ha.NewReplicaRouter(rig.tracker, [][]*ha.Endpoint{eps}, haOpts)
	t.Cleanup(rig.router.Close)
	rig.hedger = NewHedger(rig.router, hopts)
	return rig
}

// The hedge/failover state machine, one row per rule of the Hedger's header.
func TestHedgeStateMachine(t *testing.T) {
	type want struct {
		res       string
		hedges    int64
		wins      int64
		failovers int64
		machine   int // of the PeerError, when the call fails
		remote    bool
		minWait   time.Duration
	}
	cases := []struct {
		name   string
		ha     ha.Options
		hedge  HedgeOptions
		method rpc.Method
		setup  func(r *hedgeRig)
		want   want
	}{
		{
			name:  "slow primary: the hedge wins, and a win is not a failover",
			hedge: HedgeOptions{Delay: 5 * time.Millisecond},
			setup: func(r *hedgeRig) { r.in.SetPlan(0, chaos.Plan{Delay: 150 * time.Millisecond}) },
			want:  want{res: "B", hedges: 1, wins: 1},
		},
		{
			name:  "fast primary: no hedge goes out",
			hedge: HedgeOptions{Delay: time.Second},
			setup: func(r *hedgeRig) {},
			want:  want{res: "A"},
		},
		{
			name:  "primary hard error before the hedge delay: the failover loop and its accounting",
			hedge: HedgeOptions{Delay: time.Second},
			setup: func(r *hedgeRig) { r.in.Kill(0) },
			want:  want{res: "B", failovers: 1},
		},
		{
			name:   "remote handler error: the peer answered, no replica is tried",
			hedge:  HedgeOptions{Delay: time.Second},
			method: methodFail,
			setup:  func(r *hedgeRig) {},
			want:   want{remote: true, machine: 0},
		},
		{
			name:  "both fail: a PeerError naming the last machine tried",
			hedge: HedgeOptions{Delay: time.Second},
			setup: func(r *hedgeRig) { r.in.Kill(0); r.in.Kill(1) },
			want:  want{machine: 1, failovers: 1},
		},
		{
			name:  "an open breaker is never hedged into",
			ha:    ha.Options{BreakerThreshold: 1},
			hedge: HedgeOptions{Delay: time.Millisecond},
			setup: func(r *hedgeRig) {
				r.tracker.ReportFailure("m1")
				r.in.SetPlan(0, chaos.Plan{Delay: 20 * time.Millisecond})
			},
			want: want{res: "A", minWait: 30 * time.Millisecond},
		},
		{
			name:  "blackholed primary, no hedge: the attempt ends at AttemptTimeout and fails over",
			ha:    ha.Options{AttemptTimeout: 80 * time.Millisecond},
			hedge: HedgeOptions{Delay: time.Second},
			setup: func(r *hedgeRig) {
				r.in.SetPlan(0, chaos.Plan{Blackhole: true})
				r.in.Kill(0)
			},
			// The hedged phase times the primary out, then the failover loop
			// tries it once more before the replica.
			want: want{res: "B", failovers: 1, minWait: 80 * time.Millisecond},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rig := newHedgeRig(t, tc.ha, tc.hedge)
			// Connect both endpoints first, so every case starts from live
			// connections and what it kills is a connection in use.
			for _, ep := range rig.router.Endpoints(0) {
				if _, err := ep.Client(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			tc.setup(rig)
			m := tc.method
			if m == 0 {
				m = rpc.MethodGetNeighborInfos
			}
			start := time.Now()
			fut := rig.hedger.CallTraced(obs.SpanContext{}, 0, m, nil)
			res, err := fut.Wait()
			elapsed := time.Since(start)
			if tc.want.res != "" {
				if err != nil || string(res) != tc.want.res {
					t.Fatalf("result = %q, %v; want %q", res, err, tc.want.res)
				}
			} else {
				var pe *ha.PeerError
				if !errors.As(err, &pe) || pe.Machine != tc.want.machine {
					t.Fatalf("err = %v, want a PeerError naming machine %d", err, tc.want.machine)
				}
				var re *rpc.RemoteError
				if errors.As(err, &re) != tc.want.remote {
					t.Fatalf("err = %v, remote = %v, want %v", err, !tc.want.remote, tc.want.remote)
				}
			}
			fut.Release()
			if st := rig.hedger.Stats(); st.Hedges != tc.want.hedges || st.Wins != tc.want.wins {
				t.Fatalf("hedger stats = %+v, want %d hedges, %d wins", st, tc.want.hedges, tc.want.wins)
			}
			if got := rig.router.Failovers(); got != tc.want.failovers {
				t.Fatalf("failovers = %d, want %d", got, tc.want.failovers)
			}
			if elapsed < tc.want.minWait {
				t.Fatalf("resolved after %v, want at least %v", elapsed, tc.want.minWait)
			}
		})
	}
}

// Releasing a call before it resolves abandons it, and the state machine —
// not the caller — hands the pooled response back: whether the primary, the
// hedge or an aggregated flush was going to win, and also with poison mode
// scribbling over every released buffer.
func TestReleaseBeforeResolveReturnsBuffer(t *testing.T) {
	ids := make([]int32, 64)
	payload := wire.EncodeIDList(ids)
	for _, poison := range []bool{false, true} {
		mem.SetPoison(poison)
		for _, tc := range []struct {
			name  string
			slow  int // machine whose link is delayed
			issue func(r *hedgeRig) (release func(), onDone func(func()) bool)
		}{
			{"primary", 1, nil},
			{"hedge", 0, nil},
			{"flush", 1, func(r *hedgeRig) (func(), func(func()) bool) {
				a := agg.NewTier(agg.Neighbors, func(ctx context.Context, sh int32, m rpc.Method, p []byte) agg.Response {
					return r.hedger.CallTraced(obs.FromContext(ctx), sh, m, p)
				}, 0, agg.Options{ZeroCopy: true})
				tk := a.Enqueue(ids)
				return tk.Release, tk.OnDone
			}},
		} {
			rig := newHedgeRig(t, ha.Options{}, HedgeOptions{Delay: 5 * time.Millisecond})
			for _, ep := range rig.router.Endpoints(0) {
				if _, err := ep.Client(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			base := metrics.PoolLiveBytes.Load()
			// Every link is slow enough that Release comes first; the loser's
			// is slower still.
			rig.in.SetPlan(1-tc.slow, chaos.Plan{Delay: 10 * time.Millisecond})
			rig.in.SetPlan(tc.slow, chaos.Plan{Delay: 40 * time.Millisecond})
			var release func()
			var onDone func(func()) bool
			if tc.issue != nil {
				release, onDone = tc.issue(rig)
			} else {
				fut := rig.hedger.CallTraced(obs.SpanContext{}, 0, rpc.MethodGetNeighborInfos, payload)
				release, onDone = fut.Release, fut.OnDone
			}
			done := make(chan struct{})
			if !onDone(func() { close(done) }) {
				close(done)
			}
			release()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("poison=%v %s: abandoned call never resolved", poison, tc.name)
			}
			release() // idempotent
			deadline := time.Now().Add(5 * time.Second)
			for metrics.PoolLiveBytes.Load() != base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond) // the loser's late response is still landing
			}
			if live := metrics.PoolLiveBytes.Load(); live != base {
				t.Fatalf("poison=%v %s: PoolLiveBytes = %d, want the pre-call %d", poison, tc.name, live, base)
			}
		}
	}
	mem.SetPoison(false)
}
