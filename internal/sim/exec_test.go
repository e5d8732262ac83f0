package sim

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"rebalance/internal/sim/shardcache"
	"rebalance/internal/trace"
	"rebalance/internal/trace/replay"
)

// runJob runs one job as a group of one on s — the tests' direct line
// into the group executor, for configurations that must stay out of the
// observer registry and for driving a bare (cacheless, storeless) session.
func (s *Session) runJob(ctx context.Context, c *trace.Compiled, job *shardJob, norm *Spec) (Shard, error) {
	var sh [1]Shard
	var errs [1]error
	s.runGroup(ctx, c, norm, []shardJob{*job}, []int{0}, sh[:], errs[:])
	return sh[0], errs[0]
}

// cachedShard is the name TestEncodeFailureServesComputedShard (pinned
// unmodified across the executor unification) drives runJob under.
func (s *Session) cachedShard(ctx context.Context, c *trace.Compiled, job *shardJob, norm *Spec) (Shard, error) {
	return s.runJob(ctx, c, job, norm)
}

// TestWorkersFollowThePlan: the pool — and Report.Workers — is sized by
// the plan's scheduling units, not the raw shard count. A trace store
// folds this 2-coordinate, 16-shard grid into two groups, so a 16-worker
// session runs (and reports) two workers; without a store every shard is
// its own unit and the session's full width is used.
func TestWorkersFollowThePlan(t *testing.T) {
	spec := &Spec{
		Workloads: []string{"comd-lite"},
		Seeds:     []uint64{1, 2},
		Insts:     5_000,
		Observers: fullObserverSpecs(),
	}
	sess := newReplaySession(t, 16, replay.Options{})
	rep, err := sess.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shards) < 16 {
		t.Fatalf("grid has %d shards, need at least 16 for the bound to bind", len(rep.Shards))
	}
	if rep.Workers != 2 {
		t.Errorf("replay run over 2 coordinates reports %d workers, want 2", rep.Workers)
	}
	plain, err := NewSession(16).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Workers != 16 {
		t.Errorf("storeless run reports %d workers, want the session's 16", plain.Workers)
	}
	if string(renderGolden(t, rep)) != string(renderGolden(t, plain)) {
		t.Error("grouped and per-shard plans produced different reports")
	}
}

// TestOverlappingGroupsComputeOnce: two concurrent runs whose grids
// overlap — the same observers listed in opposite orders, so the runs'
// groups want the same result-cache keys in opposite grid order — must
// both finish, agree shard for shard, and between them compute each
// distinct shard exactly once: whichever run leads a key, the other is
// served by its flight or its write-back. (Leading several keys at once is
// why runGroup takes them in ascending key order rather than grid order.)
func TestOverlappingGroupsComputeOnce(t *testing.T) {
	forward := []ObserverSpec{{Kind: "bbl"}, {Kind: "bias"}, {Kind: "branch-mix"}, {Kind: "footprint"}}
	backward := []ObserverSpec{forward[3], forward[2], forward[1], forward[0]}
	spec := func(obs []ObserverSpec) *Spec {
		return &Spec{Workloads: []string{"comd-lite"}, Seeds: []uint64{1, 2}, Insts: 30_000, Observers: obs}
	}
	for round := 0; round < 10; round++ {
		sess := newReplaySession(t, 2, replay.Options{})
		cache, err := shardcache.New(shardcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sess.SetCache(cache)
		reps := make([]*Report, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i, obs := range [][]ObserverSpec{forward, backward} {
			wg.Add(1)
			go func(i int, sp *Spec) {
				defer wg.Done()
				reps[i], errs[i] = sess.Run(context.Background(), sp)
			}(i, spec(obs))
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		results := map[string]string{}
		for _, rep := range reps {
			for _, sh := range rep.Shards {
				enc, err := sh.Result.EncodeJSON()
				if err != nil {
					t.Fatal(err)
				}
				id := fmt.Sprintf("%s/%d", sh.Observer, sh.Seed)
				if prev, ok := results[id]; ok && prev != string(enc) {
					t.Errorf("shard %s differs between the two runs", id)
				}
				results[id] = string(enc)
			}
		}
		if st := cache.Stats(); int(st.Misses) != len(results) || int(st.Hits) != len(results) {
			t.Errorf("round %d: %d misses / %d hits for %d distinct shards requested twice; want each computed once and served once",
				round, st.Misses, st.Hits, len(results))
		}
	}
}
