package sim

// Tests for the session's failure policy: how the *PartialError a runner
// reports becomes failed_shards entries in the report, which runs are
// allowed to degrade, how a strict run aborts, and the wire shape of the
// result.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"rebalance/internal/analysis"
	"rebalance/internal/program"
	"rebalance/internal/registry"
)

// scriptedRunner replays a fixed RunShards outcome and records the specs
// it was handed.
type scriptedRunner struct {
	shards []Shard
	err    error
	specs  []ShardSpec
}

func (r *scriptedRunner) RunShards(_ context.Context, specs []ShardSpec) ([]Shard, error) {
	r.specs = specs
	return r.shards, r.err
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
	r := &scriptedRunner{
		shards: []Shard{full[0], {}}, // seed-2 position abandoned
		err:    &PartialError{Failures: []ShardFailure{{Index: 1, Attempts: 4, Err: scriptErr}}},
	}
	sess := NewSession(2)
	sess.SetRunner(r)
	rep, err := sess.Run(context.Background(), partialSpec(true))
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
	want := FailedShard{Workload: "comd-lite", Seed: 2, Observer: "bbl", Attempts: 4, Error: scriptErr.Error()}
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
	r := &scriptedRunner{
		shards: []Shard{full[0], {}},
		err:    &PartialError{Failures: []ShardFailure{{Index: 1, Attempts: 2, Err: errors.New("down")}}},
	}
	sess := NewSession(2)
	sess.SetRunner(r)
	_, err := sess.Run(context.Background(), partialSpec(false))
	var pe *PartialError
	if err == nil || !errors.As(err, &pe) {
		t.Fatalf("Run = %v; without AllowPartial the runner's partial outcome must fail the run", err)
	}
}

func TestPartialAllFailedIsAFailedRun(t *testing.T) {
	r := &scriptedRunner{
		shards: []Shard{{}, {}},
		err: &PartialError{Failures: []ShardFailure{
			{Index: 0, Attempts: 1, Err: errors.New("down")},
			{Index: 1, Attempts: 1, Err: errors.New("down")},
		}},
	}
	sess := NewSession(2)
	sess.SetRunner(r)
	_, err := sess.Run(context.Background(), partialSpec(true))
	if err == nil || !strings.Contains(err.Error(), "all 2 shards failed") {
		t.Fatalf("Run = %v, want the all-failed refusal; an empty report is not a degraded one", err)
	}
}

func TestPartialRejectsOutOfRangeIndex(t *testing.T) {
	full := localShards(t, partialSpec(false))
	r := &scriptedRunner{
		shards: []Shard{full[0], full[1]},
		err:    &PartialError{Failures: []ShardFailure{{Index: 7, Attempts: 1, Err: errors.New("down")}}},
	}
	sess := NewSession(2)
	sess.SetRunner(r)
	_, err := sess.Run(context.Background(), partialSpec(true))
	if err == nil || !strings.Contains(err.Error(), "shard 7 of 2") {
		t.Fatalf("Run = %v, want the out-of-range index rejection", err)
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

// TestPartialErrorMessage pins the error prose front-ends print.
func TestPartialErrorMessage(t *testing.T) {
	pe := &PartialError{Failures: []ShardFailure{
		{Index: 3, Attempts: 5, Err: fmt.Errorf("no live backend")},
		{Index: 9, Attempts: 5, Err: fmt.Errorf("also down")},
	}}
	if got := pe.Error(); got != "sim: 2 shards failed (first: no live backend)" {
		t.Fatalf("Error() = %q", got)
	}
}

// TestPartialErrorUnwraps: errors.Is sees through a PartialError to every
// failure underneath, so a bare RunShards caller can still match causes.
func TestPartialErrorUnwraps(t *testing.T) {
	pe := &PartialError{Failures: []ShardFailure{
		{Index: 0, Attempts: 3, Err: errors.New("worker down")},
		{Index: 4, Attempts: 1, Err: fmt.Errorf("%w: bad shard", ErrInvalidSpec)},
	}}
	if !errors.Is(pe, ErrInvalidSpec) {
		t.Fatal("errors.Is does not reach the second failure's cause")
	}
	if errors.Is(pe, context.Canceled) {
		t.Fatal("errors.Is matched a cause no failure carries")
	}
}

// failFinishes is how many upcoming Finish calls of the "fail-finish"
// observer kind fail; the rest behave like bbl.
var failFinishes atomic.Int64

type failFinishShard struct{ shard }

func (s failFinishShard) Finish() (Result, error) {
	if failFinishes.Add(-1) >= 0 {
		return nil, errors.New("scripted finish failure")
	}
	return s.shard.Finish()
}

// registerFailFinish makes the "fail-finish" kind nameable for the length
// of one test, in a registry of its own: the registry-driven property
// tests must keep seeing exactly the production kinds.
func registerFailFinish(t *testing.T) {
	saved := obsRegistry
	t.Cleanup(func() { obsRegistry = saved })
	obsRegistry = registry.New[ObserverFactory]("observer kind")
	RegisterObserver("fail-finish", analysisFactory("fail-finish", func(*program.Program) ShardObserver {
		bbl := analysis.NewBBL()
		return failFinishShard{shard{bbl, func() Result { return bbl.Result() }}}
	}, func() Result { return &analysis.BBLResult{} },
		func(data []byte) (Result, error) { return analysis.DecodeBBLResult(data) }))
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
