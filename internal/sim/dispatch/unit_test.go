package dispatch_test

// The unit protocol: the front session plans a grid into units (a trace
// coordinate's shards, cut only when coordinates < slots) and hands each
// unit's cache misses to the dispatcher as one call, which sends them as one
// backend call, finishes the members that answered and re-sends only the
// ones that failed retryably.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rebalance/internal/clock"
	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
	"rebalance/internal/sim/shardcache"
)

// mixed9Members are the nine one-configuration shard specs of one mixed9
// coordinate, in grid order.
func mixed9Members(t testing.TB, workload string, seed uint64, insts int64) []sim.ShardSpec {
	t.Helper()
	var specs []sim.ShardSpec
	for _, o := range []string{
		`{"kind":"bpred","options":{"configs":["gshare-big"]}}`,
		`{"kind":"bpred","options":{"configs":["tournament-big"]}}`,
		`{"kind":"bpred","options":{"configs":["tage-big"]}}`,
		`{"kind":"btb","options":{"geometries":[{"entries":512,"ways":4}]}}`,
		`{"kind":"btb","options":{"geometries":[{"entries":1024,"ways":8}]}}`,
		`{"kind":"icache","options":{"geometries":[{"size_kb":16,"line_bytes":64,"ways":4}]}}`,
		`{"kind":"icache","options":{"geometries":[{"size_kb":32,"line_bytes":64,"ways":8}]}}`,
		`{"kind":"branch-mix"}`,
		`{"kind":"bbl"}`,
	} {
		spec := sim.ShardSpec{Workload: workload, Seed: seed, Insts: insts}
		if err := json.Unmarshal([]byte(o), &spec.Observer); err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	return specs
}

// stripped renders a report up to timing fields.
func stripped(t testing.TB, rep *sim.Report) string {
	t.Helper()
	enc, err := json.Marshal(rep.Stripped())
	if err != nil {
		t.Fatal(err)
	}
	return string(enc)
}

// TestCleanGridCallsEqualUnits: a clean sweep through a session whose
// workers match the dispatcher's slots makes exactly one backend call per
// planned unit — 8 for the 72-shard mixed9 grid (its coordinates), 4 when
// one coordinate's nine configurations meet four slots (the cut rule) — and
// the dispatched report equals the local one up to timing, whether the
// backend is a session of its own or a worker across HTTP.
func TestCleanGridCallsEqualUnits(t *testing.T) {
	one := mixed9Spec(5_000)
	one.Workloads, one.SeedCount = one.Workloads[:1], 1
	cases := []struct {
		name     string
		spec     *sim.Spec
		inFlight int
		calls    int64
	}{
		{"8 coordinates x 9 configs, 2 slots", mixed9Spec(5_000), 2, 8},
		{"1 coordinate x 9 configs, 4 slots", one, 4, 4},
	}
	backends := map[string]func() dispatch.Backend{
		"local": func() dispatch.Backend { return &dispatch.LocalBackend{Sess: sim.NewSession(2)} },
		"http":  func() dispatch.Backend { return dispatch.NewHTTPBackend(newWorker(t).URL, nil) },
	}
	for _, tc := range cases {
		local, err := sim.NewSession(2).Run(context.Background(), tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		for name, backend := range backends {
			t.Run(tc.name+", "+name, func(t *testing.T) {
				cb := &countingWrapper{inner: backend()}
				d, err := dispatch.New([]dispatch.Backend{cb}, dispatch.Options{MaxInFlight: tc.inFlight})
				if err != nil {
					t.Fatal(err)
				}
				sess := sim.NewSession(tc.inFlight)
				sess.SetRunner(d)
				rep, err := sess.Run(context.Background(), tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				if got := cb.calls.Load(); got != tc.calls {
					t.Errorf("sweep made %d backend calls, want %d (one per planned unit)", got, tc.calls)
				}
				if stripped(t, rep) != stripped(t, local) {
					t.Error("dispatched report differs from the local run's beyond timing fields")
				}
			})
		}
	}
}

// TestInvalidMemberFailsAlone: a worker's verdict that one member is
// unrunnable — an {"error", "invalid": true} record — reaches the client as
// that member's ErrInvalidSpec, its unit-mates unharmed; under the
// dispatcher, as a script against the model, such a member is never re-sent
// and the backend not blamed.
func TestInvalidMemberFailsAlone(t *testing.T) {
	check := func(t *testing.T, out []sim.Outcome, bad int) {
		t.Helper()
		for i, o := range out {
			if i == bad {
				if !errors.Is(o.Err, sim.ErrInvalidSpec) {
					t.Errorf("member %d: err = %v, want ErrInvalidSpec", i, o.Err)
				}
			} else if o.Err != nil || o.Shard.Insts == 0 {
				t.Errorf("member %d: {err %v, insts %d}, want it unharmed by its unit-mate", i, o.Err, o.Shard.Insts)
			}
		}
	}
	t.Run("dispatcher", func(t *testing.T) {
		runScript(t, "oio0", "3*3", "calls [3] healthy [a] hedges 0/0 probes 0 delay 0s: o1 i1 o1", false)
	})
	t.Run("wire", func(t *testing.T) {
		// The worker's verdict on member 1, as its record says it.
		srv := tamperingWorker(t, func(status int, body []byte) (int, []byte) {
			var recs []json.RawMessage
			if err := json.Unmarshal(body, &recs); err != nil {
				t.Error(err)
				return status, body
			}
			recs[1] = json.RawMessage(`{"error":"sim: invalid spec: not on this worker","invalid":true}`)
			body, _ = json.Marshal(recs)
			return status, body
		})
		specs := mixed9Members(t, "comd-lite", 1, 5_000)[:3]
		out, err := dispatch.NewHTTPBackend(srv.URL, nil).RunShards(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		check(t, out, 1)
	})
}

// tamperingWorker is a real worker whose answers pass through tamper (status
// and body) on their way out.
func tamperingWorker(t *testing.T, tamper func(status int, body []byte) (int, []byte)) *httptest.Server {
	t.Helper()
	inner := dispatch.WorkerHandler(sim.NewSession(1), 0)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		status, body := tamper(rec.Code, rec.Body.Bytes())
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_, _ = w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestBrokenAnswerFailsTheCall: whatever goes wrong with a call as a whole —
// the connection, the status, an answer array that is short, long, trailed
// by garbage, or holds a record answering another shard — fails every member
// the call carried, retryably and blamed on the worker once; the dispatcher
// then completes them all on the healthy backend with Attempts 2. Once per
// call: the broken worker survives FailThreshold − 1 such units and dies of
// the next.
func TestBrokenAnswerFailsTheCall(t *testing.T) {
	records := func(t *testing.T, body []byte) []json.RawMessage {
		t.Helper()
		var recs []json.RawMessage
		if err := json.Unmarshal(body, &recs); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	rejoin := func(t *testing.T, recs []json.RawMessage) []byte {
		t.Helper()
		body, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	cases := map[string]func(t *testing.T) func(int, []byte) (int, []byte){
		"transport error": func(*testing.T) func(int, []byte) (int, []byte) {
			return func(int, []byte) (int, []byte) { panic(http.ErrAbortHandler) }
		},
		"status 500": func(*testing.T) func(int, []byte) (int, []byte) {
			return func(int, []byte) (int, []byte) { return http.StatusInternalServerError, []byte(`{"error":"boom"}`) }
		},
		"short array": func(t *testing.T) func(int, []byte) (int, []byte) {
			return func(s int, b []byte) (int, []byte) { return s, rejoin(t, records(t, b)[1:]) }
		},
		"long array": func(t *testing.T) func(int, []byte) (int, []byte) {
			return func(s int, b []byte) (int, []byte) {
				recs := records(t, b)
				return s, rejoin(t, append(recs, recs[0]))
			}
		},
		"trailing bytes": func(*testing.T) func(int, []byte) (int, []byte) {
			return func(s int, b []byte) (int, []byte) { return s, append(bytes.Clone(b), "[]"...) }
		},
		"records swapped": func(t *testing.T) func(int, []byte) (int, []byte) {
			return func(s int, b []byte) (int, []byte) {
				recs := records(t, b)
				recs[0], recs[1] = recs[1], recs[0]
				return s, rejoin(t, recs)
			}
		},
		"a lone object": func(t *testing.T) func(int, []byte) (int, []byte) {
			return func(s int, b []byte) (int, []byte) { return s, records(t, b)[0] }
		},
	}
	specs := mixed9Members(t, "comd-lite", 1, 5_000)[6:]
	for name, tamper := range cases {
		t.Run(name, func(t *testing.T) {
			broken := dispatch.NewHTTPBackend(tamperingWorker(t, tamper(t)).URL, nil)
			out, err := broken.RunShards(context.Background(), specs)
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range out {
				if o.Err == nil || errors.Is(o.Err, sim.ErrInvalidSpec) {
					t.Errorf("member %d: err = %v, want a retryable failure of the call", i, o.Err)
				}
			}

			d, err := dispatch.New([]dispatch.Backend{broken, dispatch.NewHTTPBackend(newWorker(t).URL, nil)}, withInFlight(onVirtualTime(), 1))
			if err != nil {
				t.Fatal(err)
			}
			for n := 1; n <= dispatch.FailThreshold; n++ {
				// Ties break by slice order: while it lives, the broken
				// worker takes each unit first.
				out, err = d.RunShards(context.Background(), specs)
				if err != nil {
					t.Fatal(err)
				}
				for i, o := range out {
					if o.Err != nil || o.Attempts != 2 {
						t.Errorf("unit %d, member %d: {attempts %d, err %v}, want it completed by the failover call", n, i, o.Attempts, o.Err)
					}
				}
				if dead := n == dispatch.FailThreshold; (len(d.Healthy()) == 1) != dead {
					t.Errorf("healthy = %v after %d broken calls; want the broken worker dead exactly at the %dth", d.Healthy(), n, dispatch.FailThreshold)
				}
			}
		})
	}
}

// hangUnitBackend runs units on a real session, except that a call carrying
// any member of one seed hangs while its clock runs to the call's attempt
// deadline.
type hangUnitBackend struct {
	dispatch.LocalBackend
	clk      *clock.Virtual
	hangSeed uint64
}

func (b *hangUnitBackend) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	for i := range specs {
		if specs[i].Seed == b.hangSeed {
			b.clk.Advance(attemptDeadline(len(specs)))
			<-ctx.Done()
			return nil, ctx.Err()
		}
	}
	return b.LocalBackend.RunShards(ctx, specs)
}

// TestAttemptTimeoutFailsTheUnit is TestAttemptTimeoutFailsTheShard for a
// unit of several members: the coordinate whose calls hang exhausts its
// attempts as a whole, an AllowPartial run degrades around it naming every
// member — each with the calls it rode in — and the other coordinates'
// shards are all there. Two workers hang alike, so the hung unit's calls
// alternate between them and neither is blamed to death.
func TestAttemptTimeoutFailsTheUnit(t *testing.T) {
	opts := onVirtualTime()
	v := opts.Clock.(*clock.Virtual)
	var backends []dispatch.Backend
	for i := 0; i < 2; i++ {
		backends = append(backends, &hangUnitBackend{LocalBackend: dispatch.LocalBackend{Sess: sim.NewSession(1)}, clk: v, hangSeed: 2})
	}
	d, err := dispatch.New(backends, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess := sim.NewSession(1)
	sess.SetRunner(d)
	rep, err := sess.Run(context.Background(), &sim.Spec{
		Workloads:    []string{"comd-lite"},
		SeedCount:    3,
		Insts:        5_000,
		Observers:    []sim.ObserverSpec{{Kind: "bbl"}, {Kind: "branch-mix"}, {Kind: "bias"}},
		AllowPartial: true,
	})
	if err != nil {
		t.Fatalf("Run = %v; an attempt timeout must degrade an allow_partial run, not abort it", err)
	}
	if len(rep.Shards) != 6 || len(rep.FailedShards) != 3 {
		t.Fatalf("%d shards, failed_shards %+v; want 6 and the hung coordinate's 3", len(rep.Shards), rep.FailedShards)
	}
	for i, kind := range []string{"bbl", "branch-mix", "bias"} {
		f := rep.FailedShards[i]
		cell := fmt.Sprintf("sim: shard {comd-lite %s seed 2}", kind)
		if f.Seed != 2 || f.Observer != kind || f.Attempts != dispatch.Attempts || !strings.Contains(f.Error, "timed out") || !strings.Contains(f.Error, cell) {
			t.Errorf("failed_shards[%d] = %+v, want {seed 2, %s, %d attempts} timed out and named %q", i, f, kind, dispatch.Attempts, cell)
		}
	}
}

// delayedBackend answers its first call with a real session's outcomes
// 10 ms after it began, on clk, and holds every later call until its
// context ends — a straggler, once a latency sample exists to judge it by.
type delayedBackend struct {
	dispatch.LocalBackend
	clk   clock.Clock
	calls atomic.Int64
}

func (b *delayedBackend) Name() string { return "delayed" }

func (b *delayedBackend) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	if b.calls.Add(1) == 1 {
		<-b.clk.NewTimer(10 * time.Millisecond).C
		return b.LocalBackend.RunShards(ctx, specs)
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestHedgedUnitWritesBackOnce: a straggling unit is hedged as a whole, the
// duplicate's answer completes every member, and the front session writes
// each back to its cache exactly once — nine leads, nine entries — so a
// rerun costs no backend call.
func TestHedgedUnitWritesBackOnce(t *testing.T) {
	cache, err := shardcache.New(shardcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := withInFlight(onVirtualTime(), 1)
	opts.Hedge = true
	slow := &delayedBackend{LocalBackend: dispatch.LocalBackend{Sess: sim.NewSession(1)}, clk: opts.Clock}
	fast := &countingWrapper{inner: &dispatch.LocalBackend{Sess: sim.NewSession(1)}}
	// Ties break by slice order, so the unit's primary is the straggler.
	d, err := dispatch.New([]dispatch.Backend{slow, fast}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A first unit, answered in 10 ms, is the sample the hedge delay is
	// derived from.
	if _, err := d.RunShards(context.Background(), []sim.ShardSpec{testSpec(1)}); err != nil {
		t.Fatal(err)
	}
	sess := sim.NewSession(1) // one slot: the coordinate is one unit of nine
	sess.SetCache(cache)
	sess.SetRunner(d)
	spec := mixed9Spec(5_000)
	spec.Workloads, spec.SeedCount = spec.Workloads[:1], 1
	cold, err := sess.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range cold.Shards {
		if sh.Cached {
			t.Errorf("cold shard %s marked cached", sh.Observer)
		}
	}
	if st := d.Stats(); st.Hedges != 1 || st.HedgeWins != 1 || fast.calls.Load() != 1 {
		t.Errorf("stats = %+v, %d calls on the hedge backend; want one hedge of the whole unit, and it wins", st, fast.calls.Load())
	}
	if st := cache.Stats(); st.Misses != 9 || st.Entries != 9 {
		t.Errorf("cache stats = %+v, want each of the 9 members led once and stored once", st)
	}
	warm, err := sess.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range warm.Shards {
		if !sh.Cached {
			t.Errorf("warm shard %s not served from the cache", sh.Observer)
		}
	}
	if got := fast.calls.Load(); got != 1 {
		t.Errorf("warm pass reached a backend (%d calls in all)", got)
	}
	if stripped(t, cold) != stripped(t, warm) {
		t.Error("warm report differs from the cold one beyond timing fields")
	}
	// Beneath the session: the hedge rides its primary's attempt, so every
	// member of the hedged unit spends one attempt from the budget, not two.
	outs, err := d.RunShards(context.Background(), mixed9Members(t, "comd-lite", 1, 5_000))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err != nil || o.Attempts != 1 {
			t.Errorf("member %d: {attempts %d, err %v}, want one hedged attempt", i, o.Attempts, o.Err)
		}
	}
	if st := d.Stats(); st.Hedges != 2 || st.HedgeWins != 2 || fast.calls.Load() != 2 {
		t.Errorf("stats = %+v, %d calls on the hedge backend; want the direct unit hedged whole too", st, fast.calls.Load())
	}
}
