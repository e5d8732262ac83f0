package sim

// Tests for the session's failure policy: how the failed Outcomes a runner
// reports become failed_shards entries in the report, which runs are
// allowed to degrade, how a strict run aborts, what a runner may not hand
// back, and the wire shape of the result.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rebalance/internal/analysis"
	"rebalance/internal/program"
)

// scriptedRunner answers each RunShards call with the outcomes scripted for
// the cells it was sent — out[s-1] is seed s's, partialSpec's grid order —
// and records the specs it was handed.
type scriptedRunner struct {
	out   []Outcome
	mu    sync.Mutex
	specs []ShardSpec
}

func (r *scriptedRunner) RunShards(_ context.Context, specs []ShardSpec) ([]Outcome, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.specs = append(r.specs, specs...)
	out := make([]Outcome, len(specs))
	for k := range specs {
		out[k] = r.out[specs[k].Seed-1]
	}
	return out, nil
}

// runnerFunc is a ShardRunner written as a function.
type runnerFunc func(context.Context, []ShardSpec) ([]Outcome, error)

func (f runnerFunc) RunShards(ctx context.Context, specs []ShardSpec) ([]Outcome, error) {
	return f(ctx, specs)
}

// runScripted runs partialSpec(allowPartial) through a runner scripted with
// out.
func runScripted(allowPartial bool, out ...Outcome) (*Report, *scriptedRunner, error) {
	r := &scriptedRunner{out: out}
	sess := NewSession(2)
	sess.SetRunner(r)
	rep, err := sess.Run(context.Background(), partialSpec(allowPartial))
	return rep, r, err
}

// partialSpec is a 1 workload x 2 seeds x 1 observer grid: two shards,
// small enough to reason about every index.
func partialSpec(allowPartial bool) *Spec {
	return &Spec{
		Workloads:    []string{"comd-lite"},
		SeedCount:    2,
		Insts:        20_000,
		Observers:    []ObserverSpec{{Kind: "bbl"}},
		AllowPartial: allowPartial,
	}
}

// localShards runs the spec on the in-process pool and returns the full
// grid of real shards — the raw material for scripting partial runners
// whose surviving shards pass the session's identity checks and merge.
func localShards(t *testing.T, spec *Spec) []Shard {
	t.Helper()
	rep, err := NewSession(2).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Shards
}

func TestPartialRunBuildsFailedShards(t *testing.T) {
	full := localShards(t, partialSpec(false))
	if len(full) != 2 {
		t.Fatalf("grid is %d shards, want 2", len(full))
	}
	scriptErr := errors.New("backend ate it")
	// The seed-2 cell is abandoned after 4 attempts.
	rep, r, err := runScripted(true, Outcome{Shard: full[0], Attempts: 1}, Outcome{Attempts: 4, Err: scriptErr})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.specs) != 2 {
		t.Fatalf("runner saw %d specs, want the 2-shard grid", len(r.specs))
	}
	if len(rep.Shards) != 1 || rep.Shards[0].Seed != full[0].Seed {
		t.Fatalf("surviving shards = %+v, want only the seed-%d shard", rep.Shards, full[0].Seed)
	}
	if len(rep.FailedShards) != 1 {
		t.Fatalf("failed shards = %+v, want exactly 1", rep.FailedShards)
	}
	fs := rep.FailedShards[0]
	want := FailedShard{Workload: "comd-lite", Seed: 2, Observer: "bbl", Attempts: 4, Error: "sim: shard {comd-lite bbl seed 2}: " + scriptErr.Error()}
	if fs != want {
		t.Errorf("failed shard = %+v, want %+v", fs, want)
	}
	if rep.TotalInsts != rep.Shards[0].Insts {
		t.Errorf("total_insts = %d counts abandoned work, want %d", rep.TotalInsts, rep.Shards[0].Insts)
	}
	// The merge runs over survivors only, and says so.
	if len(rep.Merged) != 1 || rep.Merged[0].Seeds != 1 {
		t.Fatalf("merged = %+v, want one bbl entry over 1 seed", rep.Merged)
	}
}

func TestPartialErrorRequiresAllowPartial(t *testing.T) {
	full := localShards(t, partialSpec(false))
	down := errors.New("down")
	// The scripted runner delivers nothing to ShardDone, so this is the
	// strict policy's second leg: the failed outcome itself fails the run.
	_, _, err := runScripted(false, Outcome{Shard: full[0], Attempts: 1}, Outcome{Attempts: 2, Err: down})
	if !errors.Is(err, down) {
		t.Fatalf("Run = %v; without AllowPartial a failed outcome must fail the run with its error", err)
	}
}

func TestPartialAllFailedIsAFailedRun(t *testing.T) {
	down := errors.New("down")
	_, _, err := runScripted(true, Outcome{Attempts: 1, Err: down}, Outcome{Attempts: 1, Err: errors.New("also down")})
	if err == nil || !strings.Contains(err.Error(), "all 2 shards failed") || !errors.Is(err, down) {
		t.Fatalf("Run = %v, want the all-failed refusal wrapping the first failure; an empty report is not a degraded one", err)
	}
}

// TestRunnerOutcomeCountMismatch: outcomes are index-aligned with the specs
// of a call by construction, so the one way a runner can misalign them is
// by count — which fails every member of that call, named, under either
// policy (both of partialSpec's cells, one call each: all failed), never an
// index panic in the report loop.
func TestRunnerOutcomeCountMismatch(t *testing.T) {
	for _, allowPartial := range []bool{false, true} {
		for _, n := range []int{0, 2} {
			sess := NewSession(2)
			sess.SetRunner(runnerFunc(func(context.Context, []ShardSpec) ([]Outcome, error) {
				return make([]Outcome, n), nil
			}))
			_, err := sess.Run(context.Background(), partialSpec(allowPartial))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("sim: runner answered %d outcomes for 1 shards", n)) ||
				!strings.Contains(err.Error(), "sim: shard {comd-lite bbl seed") {
				t.Errorf("allow_partial=%v, %d outcomes: Run = %v, want the named count rejection", allowPartial, n, err)
			}
		}
	}
}

// TestRunnerOutcomeIdentityMismatch: a completed outcome must be the shard
// its cell asked for — here the runner answers both cells with seed 1.
func TestRunnerOutcomeIdentityMismatch(t *testing.T) {
	full := localShards(t, partialSpec(false))
	_, _, err := runScripted(true, Outcome{Shard: full[0]}, Outcome{Shard: full[0]})
	if err == nil || !strings.Contains(err.Error(), "runner shard 1 is {comd-lite bbl seed 1}, want {comd-lite bbl seed 2}") {
		t.Fatalf("Run = %v, want the identity rejection", err)
	}
}

// TestRunGridCancelledMidGrid: cancellation is read off the run's own
// context, between units — the unit that was executing finishes, no
// further unit starts, and the context's error is the run's, whatever the
// outcomes recorded so far say.
func TestRunGridCancelledMidGrid(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Three coordinates on one slot: three units of one cell each.
	cells := gridOf(t, &Spec{Workloads: []string{"comd-lite"}, SeedCount: 3, Insts: 5_000, Observers: []ObserverSpec{{Kind: "bbl"}}})
	var ran []int
	_, err := NewSession(1).runGrid(ctx, cells, nil, make([]Outcome, len(cells)), 1, func(_ context.Context, _ []gridCell, unit []int, _ []Outcome) {
		ran = append(ran, unit...)
		if unit[0] == 1 {
			cancel()
		}
	}, func(int) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runGrid = %v, want context.Canceled", err)
	}
	if len(ran) != 2 {
		t.Fatalf("units ran over cells %v, want only 0 and 1", ran)
	}
}

// TestLocalAllowPartialCancellationAborts: cancellation is a judgment on
// the run, not the shards — even a partial-tolerant local run must abort.
func TestLocalAllowPartialCancellationAborts(t *testing.T) {
	spec := partialSpec(true)
	spec.Insts = 2_000_000
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewSession(2).Run(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled even with allow_partial", err)
	}
}

// TestFailedShardsWireShape pins the report JSON: a clean run carries no
// failed_shards key at all (goldens stay byte-identical), a degraded one
// carries the structured entries.
func TestFailedShardsWireShape(t *testing.T) {
	clean, err := json.Marshal(&Report{Schema: SchemaV1})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(clean, []byte("failed_shards")) {
		t.Fatalf("clean report leaks the failed_shards key: %s", clean)
	}
	degraded, err := json.Marshal(&Report{
		Schema: SchemaV1,
		FailedShards: []FailedShard{
			{Workload: "comd-lite", Seed: 2, Observer: "bbl", Attempts: 4, Error: "backend ate it"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `"failed_shards":[{"workload":"comd-lite","seed":2,"observer":"bbl","attempts":4,"error":"backend ate it"}]`
	if !strings.Contains(string(degraded), want) {
		t.Fatalf("degraded report = %s, want it to contain %s", degraded, want)
	}
}

func TestSpecAllowPartialRoundTrips(t *testing.T) {
	spec := partialSpec(true)
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"allow_partial":true`)) {
		t.Fatalf("spec JSON = %s, want allow_partial", data)
	}
	back, err := DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.AllowPartial {
		t.Fatal("allow_partial lost in the decode round trip")
	}
	// Default off: a spec that never mentions it does not emit it.
	data, err = json.Marshal(partialSpec(false))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("allow_partial")) {
		t.Fatalf("spec JSON = %s leaks allow_partial when off", data)
	}
}

// failFinishes is how many upcoming Finish calls of the "fail-finish"
// observer kind fail; the rest behave like bbl.
var failFinishes atomic.Int64

type failFinishShard struct{ laneShard }

func (s failFinishShard) Finish() (Result, error) {
	if failFinishes.Add(-1) >= 0 {
		return nil, errors.New("scripted finish failure")
	}
	return s.laneShard.Finish()
}

// registerFailFinish makes "fail-finish" the one nameable kind for the
// length of one test: the property tests that walk ObserverKinds must keep
// seeing exactly the production kinds.
func registerFailFinish(t *testing.T) {
	saved := observerKinds
	t.Cleanup(func() { observerKinds = saved })
	observerKinds = []struct {
		kind string
		new  observerFactory
	}{{"fail-finish", analysisFactory("fail-finish", func(*program.Program) ShardObserver {
		bbl := analysis.NewBBL()
		return failFinishShard{newLaneShard(bbl, func() Result { return bbl.Result() })}
	}, func() Result { return &analysis.BBLResult{} }, analysis.ScanBBL)}}
}

// TestLocalFailurePolicy drives the session's one failure policy over the
// local pool with a real failing shard: one worker, the first of four
// shards fails. A strict run aborts early — the chained ShardDone hook
// cancels the grid, so the caller's hook sees the failure and nothing
// after it — while an AllowPartial run finishes the grid and degrades.
func TestLocalFailurePolicy(t *testing.T) {
	registerFailFinish(t)
	for _, allowPartial := range []bool{false, true} {
		t.Run(fmt.Sprintf("allow_partial=%v", allowPartial), func(t *testing.T) {
			failFinishes.Store(1)
			var outcomes, failures atomic.Int64
			ctx := WithShardDone(context.Background(), func(_ Shard, err error) {
				outcomes.Add(1)
				if err != nil {
					failures.Add(1)
				}
			})
			rep, err := NewSession(1).Run(ctx, &Spec{
				Workloads:    []string{"comd-lite"},
				SeedCount:    4,
				Insts:        5_000,
				Observers:    []ObserverSpec{{Kind: "fail-finish"}},
				AllowPartial: allowPartial,
			})
			if failures.Load() != 1 {
				t.Errorf("hook saw %d failures, want 1", failures.Load())
			}
			if !allowPartial {
				want := "sim: shard {comd-lite fail-finish seed 1}: scripted finish failure"
				if rep != nil || err == nil || err.Error() != want {
					t.Fatalf("Run = (%v, %v), want a nil report and %q", rep, err, want)
				}
				if got := outcomes.Load(); got != 1 {
					t.Errorf("hook saw %d outcomes; a strict run must abort the grid at the first failure", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Shards) != 3 || len(rep.FailedShards) != 1 || rep.FailedShards[0].Seed != 1 || rep.FailedShards[0].Attempts != 1 {
				t.Fatalf("%d shards, failed_shards %+v; want seeds 2-4 surviving and seed 1 abandoned after 1 attempt", len(rep.Shards), rep.FailedShards)
			}
			if got := outcomes.Load(); got != 4 {
				t.Errorf("hook saw %d outcomes, want the whole 4-shard grid", got)
			}
		})
	}
}
