package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"rebalance/internal/sim/shardcache"
	"rebalance/internal/trace"
	"rebalance/internal/trace/replay"
	"rebalance/internal/workload"
	"rebalance/internal/workload/synth"
)

func newReplaySession(t *testing.T, workers int, opts replay.Options) (*Session, *replay.Store) {
	t.Helper()
	traces, err := replay.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(workers)
	sess.SetTraceStore(traces)
	return sess, traces
}

// replayPropertyConfigs covers every observer kind, plus two
// grouped bpred shapes, with small configurations; two plain
// bpred configurations, so a group of them all has members to fuse. It
// fails the test if a future kind is added without a spec here.
func replayPropertyConfigs(t *testing.T) []ObserverConfig {
	t.Helper()
	specs := []ObserverSpec{
		{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tage-small"]}`)},
		{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tournament-small"],"grouped":true}`)},
		{Kind: "bpred", Options: json.RawMessage(`{"configs":["tage-small","tournament-small"],"grouped":true}`)},
		{Kind: "btb", Options: json.RawMessage(`{"geometries":[{"entries":512,"ways":4}]}`)},
		{Kind: "icache", Options: json.RawMessage(`{"geometries":[{"size_kb":16,"line_bytes":64,"ways":4}]}`)},
		{Kind: "branch-mix"},
		{Kind: "bias"},
		{Kind: "footprint"},
		{Kind: "bbl"},
	}
	covered := map[string]bool{}
	for _, sp := range specs {
		covered[sp.Kind] = true
	}
	for _, kind := range ObserverKinds() {
		if !covered[kind] {
			t.Fatalf("observer kind %q is not covered by the replay and group property tests; add a spec for it", kind)
		}
	}
	cfgs, err := expandObservers(specs)
	if err != nil {
		t.Fatal(err)
	}
	return cfgs
}

// TestReplayedResultsBitIdenticalAcrossRegistry is the ObserverKinds-driven
// property test behind the trace store's correctness claim: for every
// observer kind — including grouped bpred — a
// result computed by replaying the materialized stream is byte-identical
// to one computed on the live generation path, across replay batch sizes
// 1/7/4096 and two recordings of the stream: the session's own and the
// reference oracle's.
func TestReplayedResultsBitIdenticalAcrossRegistry(t *testing.T) {
	cfgs := replayPropertyConfigs(t)

	sess := NewSession(1)
	c, err := sess.Compiled("comd-lite")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const seed, insts = 3, 20_000

	// "compiled" is what the session records (generate); "reference" is the
	// oracle's recording of the same coordinate, driven directly — the
	// tree-walk engine is no request option. The two must be byte-identical.
	compiled, reference := replay.NewRecorder(), replay.NewRecorder()
	if _, err := generate(ctx, new(trace.Executor), c, &ShardSpec{Seed: seed, Insts: insts}, compiled); err != nil {
		t.Fatal(err)
	}
	oracle := trace.NewExecutor(c.Program(), seed)
	oracle.Attach(reference)
	if err := oracle.RunReference(insts); err != nil {
		t.Fatal(err)
	}
	traces := map[string]*replay.Trace{"compiled": compiled.Trace(), "reference": reference.Trace()}
	if !bytes.Equal(replay.Encode(traces["compiled"]), replay.Encode(traces["reference"])) {
		t.Fatal("the session's recording differs from the reference oracle's")
	}

	for _, recording := range []string{"compiled", "reference"} {
		for _, cfg := range cfgs {
			t.Run(recording+"/"+cfg.Key(), func(t *testing.T) {
				generated, err := sess.runJob(ctx, c, cellOf("comd-lite", cfg, seed, insts))
				if err != nil {
					t.Fatal(err)
				}
				want, err := generated.Result.AppendJSON(nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, batchSize := range []int{1, 7, 4096} {
					func() {
						obs := cfg.NewObserver(c.Program())
						if err := replay.Deliver(ctx, traces[recording], batchSize, obs); err != nil {
							t.Fatal(err)
						}
						res, err := obs.Finish()
						if err != nil {
							t.Fatal(err)
						}
						got, err := res.AppendJSON(nil)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Errorf("batchSize %d: replayed result differs from generated result\nreplayed:  %s\ngenerated: %s", batchSize, got, want)
						}
					}()
				}
			})
		}
	}
}

// TestGroupedShardsBitIdenticalToAlone is the property behind the plan's
// one rule: for every observer kind plus the grouped bpred
// shapes, a shard executed as a member of its coordinate's group — one
// shared pass, its plain bpred members fused into one multi-predictor Sim —
// is byte-identical to the same shard executed alone, on a live executor
// and on a replayed trace.
func TestGroupedShardsBitIdenticalToAlone(t *testing.T) {
	cfgs := replayPropertyConfigs(t)
	ctx := context.Background()
	bare := NewSession(1)
	c, err := bare.Compiled("comd-lite")
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]gridCell, len(cfgs))
	group := make([]int, len(cfgs))
	alone := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		cells[i] = cellOf("comd-lite", cfg, 3, 20_000)
		group[i] = i
		sh, err := bare.runJob(ctx, c, cells[i])
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = encode(t, sh.Result)
	}
	replayed, _ := newReplaySession(t, 1, replay.Options{})
	for name, sess := range map[string]*Session{"live": bare, "replayed": replayed} {
		out := make([]Outcome, len(cells))
		sess.runGroup(ctx, c, cells, group, out)
		for i := range cells {
			if out[i].Err != nil {
				t.Fatalf("%s/%s: %v", name, cfgs[i].Key(), out[i].Err)
			}
			if got := encode(t, out[i].Shard.Result); got != alone[i] {
				t.Errorf("%s/%s: grouped shard differs from the shard executed alone\ngrouped: %s\nalone:   %s",
					name, cfgs[i].Key(), got, alone[i])
			}
		}
	}
}

// TestReplayRunBitIdenticalToGolden runs the repository's golden grid
// through a trace-store session: the report must match the committed
// golden file byte-for-byte (up to the timing fields the golden already
// excludes), and a second run — served from the warm store — must match
// again while generating nothing new.
func TestReplayRunBitIdenticalToGolden(t *testing.T) {
	sess, traces := newReplaySession(t, 2, replay.Options{})
	cold, err := sess.Run(context.Background(), goldenRunSpec())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sess.Run(context.Background(), goldenRunSpec())
	if err != nil {
		t.Fatal(err)
	}

	coordinates := 2 * 2 // workloads x seeds in the golden grid
	st := traces.Stats()
	if int(st.Misses) != coordinates {
		t.Errorf("trace store generated %d times, want once per coordinate (%d)", st.Misses, coordinates)
	}
	// Grouped delivery consults the store once per coordinate per run: the
	// cold run's lookups all generate, the warm run's all hit.
	if int(st.Hits) != coordinates {
		t.Errorf("trace store hits = %d, want %d (one per coordinate on the warm run)", st.Hits, coordinates)
	}

	coldJSON, warmJSON := renderGolden(t, cold), renderGolden(t, warm)
	if string(coldJSON) != string(warmJSON) {
		t.Error("warm-store report differs from cold report")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "report_v1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(coldJSON) != string(want) {
		t.Errorf("replayed report drifted from the golden file;\ngot:\n%s", coldJSON)
	}
}

// TestReplaySecondObserverNeverRegenerates pins the stats contract the CI
// smoke cross-checks: over a multi-observer grid, generation count equals
// coordinate count exactly — the second observer of a coordinate always
// rides the first's pass. Grouped delivery makes this structural within a
// run (one store lookup feeds every observer of the coordinate), and a
// second run hits the warm store once per coordinate.
func TestReplaySecondObserverNeverRegenerates(t *testing.T) {
	sess, traces := newReplaySession(t, 4, replay.Options{})
	spec := &Spec{
		Workloads: []string{"comd-lite", "xalan-lite"},
		Seeds:     []uint64{1, 2, 3},
		Insts:     20_000,
		Observers: fullObserverSpecs(),
	}
	rep, err := sess.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	coordinates := 2 * 3
	if perCoord := len(rep.Shards) / coordinates; perCoord < 2 {
		t.Fatalf("grid has %d observers per coordinate, need at least 2 for the test to mean anything", perCoord)
	}
	st := traces.Stats()
	if int(st.Misses) != coordinates {
		t.Errorf("%d generations for %d coordinates; a coordinate's stream must be generated exactly once", st.Misses, coordinates)
	}
	if st.Hits != 0 {
		t.Errorf("trace store hits = %d on the cold run, want 0 (each coordinate's observers share one lookup)", st.Hits)
	}
	if _, err := sess.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	st = traces.Stats()
	if int(st.Misses) != coordinates || int(st.Hits) != coordinates {
		t.Errorf("after a warm run: misses = %d, hits = %d; want %d and %d (no regeneration, one hit per coordinate)",
			st.Misses, st.Hits, coordinates, coordinates)
	}
}

// TestReplayComposesWithResultCache layers both caches: the result cache
// short-circuits whole shards, so a second run touches the trace store
// not at all.
func TestReplayComposesWithResultCache(t *testing.T) {
	sess, traces := newReplaySession(t, 2, replay.Options{})
	cache, err := shardcache.New(shardcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess.SetCache(cache)

	if _, err := sess.Run(context.Background(), goldenRunSpec()); err != nil {
		t.Fatal(err)
	}
	before := traces.Stats()
	warm, err := sess.Run(context.Background(), goldenRunSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := range warm.Shards {
		if !warm.Shards[i].Cached {
			t.Errorf("shard %d not served from the result cache", i)
		}
	}
	after := traces.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("result-cache-served run touched the trace store: before %+v, after %+v", before, after)
	}
}

// TestReplayRunShardWorkerPath drives the worker-protocol entry point
// through the trace store: the shard result must match a store-less
// session's, and a second observer over the same coordinate must replay.
func TestReplayRunShardWorkerPath(t *testing.T) {
	spec := ShardSpec{
		Workload: "comd-lite",
		Seed:     5,
		Insts:    15_000,
		Observer: ObserverSpec{Kind: "bbl"},
	}
	plain, err := NewSession(1).RunShard(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	sess, traces := newReplaySession(t, 1, replay.Options{})
	replayed, err := sess.RunShard(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	plain.ElapsedNS, replayed.ElapsedNS = 0, 0
	pj, _ := EncodeShard(plain)
	rj, _ := EncodeShard(replayed)
	if !bytes.Equal(pj, rj) {
		t.Errorf("replayed worker shard differs from generated:\nreplayed:  %s\ngenerated: %s", rj, pj)
	}

	spec.Observer = ObserverSpec{Kind: "branch-mix"}
	if _, err := sess.RunShard(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	st := traces.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("worker-path stats = %+v, want 1 generation and 1 replay for two observers of one coordinate", st)
	}
}

// TestTraceStoreHoldsStreamsAtTrr1Size pins the admission arithmetic of the
// default store: a recorded coordinate is resident at its trr1 size — at
// most 4 bytes per instruction, Session.stream's Reserve included — so a
// coordinate at simd's default -max-insts (100M, ≤ 400 MB) fits under the
// default 1 GiB byte bound instead of being generated, refused on insert
// and generated again by every shard that wants it. The store charges
// exactly what its traces hold (capacity, not length), so an over-Reserve
// cannot hide from the bound.
func TestTraceStoreHoldsStreamsAtTrr1Size(t *testing.T) {
	const insts = 200_000
	var specs []ShardSpec
	for _, w := range workload.Names() {
		specs = append(specs, ShardSpec{Workload: w, Seed: 1, Insts: insts, Observer: ObserverSpec{Kind: "bbl"}})
	}
	specs = append(specs, ShardSpec{
		Workload: "resident-synth", Synth: &synth.Params{Name: "resident-synth", BlockLen: 1}, // the branchiest stream synth builds
		Seed: 1, Insts: insts, Observer: ObserverSpec{Kind: "bbl"},
	})
	sess, traces := newReplaySession(t, 1, replay.Options{})
	var held int64
	for _, sp := range specs {
		if _, err := sess.RunShard(context.Background(), sp); err != nil {
			t.Fatal(err)
		}
		key, err := sp.TraceKey()
		if err != nil {
			t.Fatal(err)
		}
		tr, ok := traces.Get(key)
		if !ok {
			t.Fatalf("%s: recorded coordinate was not admitted to the memory tier", sp.Workload)
		}
		if perInst := float64(tr.MemBytes()) / float64(tr.Len()); perInst > 4 {
			t.Errorf("%s: %.2f resident bytes per instruction, want <= 4", sp.Workload, perInst)
		}
		held += tr.MemBytes()
	}
	if st := traces.Stats(); st.Entries != len(specs) || st.Bytes != held {
		t.Errorf("store stats %+v, want %d entries charged the %d bytes their traces hold", st, len(specs), held)
	}
}

// TestColdReplayAllocatesTheStreamNotItsExpansion bounds what recording
// costs in a machine-independent unit: one cold shard through a fresh
// store allocates the trr1 records and one delivery batch, not 32 bytes
// per instruction of expanded stream.
func TestColdReplayAllocatesTheStreamNotItsExpansion(t *testing.T) {
	const insts = 200_000
	sess, _ := newReplaySession(t, 1, replay.Options{})
	if _, err := sess.Compiled("comd-lite"); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sh, err := sess.RunShard(context.Background(), ShardSpec{Workload: "comd-lite", Seed: 1, Insts: insts, Observer: ObserverSpec{Kind: "bbl"}})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if perInst := float64(after.TotalAlloc-before.TotalAlloc) / float64(sh.Insts); perInst > 8 {
		t.Errorf("a cold replayed shard allocated %.1f bytes per instruction, want <= 8", perInst)
	}
}

// TestStorelessShardAllocatesNoInstructionBatch is the same kind of bound
// for the generated path: a storeless shard whose observer consumes lanes
// allocates less, all told — executor, lane, observer, shard — than the
// 128 KiB a single batch of expanded instructions would take.
func TestStorelessShardAllocatesNoInstructionBatch(t *testing.T) {
	sess := NewSession(1)
	if _, err := sess.Compiled("comd-lite"); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := sess.RunShard(context.Background(), ShardSpec{Workload: "comd-lite", Seed: 1, Insts: 200_000, Observer: ObserverSpec{Kind: "branch-mix"}})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(trace.BatchSize*32); got >= limit {
		t.Errorf("a storeless branch-mix shard allocated %d bytes, want less than one instruction batch (%d)", got, limit)
	}
}

// TestReplayDiskTierWarmRestart is the disk tier's restart story at the
// session level: a fresh session over the same directory serves every
// coordinate from disk and generates nothing.
func TestReplayDiskTierWarmRestart(t *testing.T) {
	dir := t.TempDir()
	first, _ := newReplaySession(t, 2, replay.Options{Dir: dir})
	if _, err := first.Run(context.Background(), goldenRunSpec()); err != nil {
		t.Fatal(err)
	}
	sess, traces := newReplaySession(t, 2, replay.Options{Dir: dir})
	rep, err := sess.Run(context.Background(), goldenRunSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := traces.Stats()
	if st.Misses != 0 {
		t.Errorf("restarted session regenerated %d coordinates; the disk tier must serve them all", st.Misses)
	}
	coordinates := 2 * 2
	if int(st.DiskHits) != coordinates {
		t.Errorf("disk hits = %d, want one promotion per coordinate (%d)", st.DiskHits, coordinates)
	}
	got := renderGolden(t, rep)
	want, err := os.ReadFile(filepath.Join("testdata", "report_v1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("disk-replayed report drifted from the golden file;\ngot:\n%s", got)
	}
}

func TestReplayCancellation(t *testing.T) {
	sess, _ := newReplaySession(t, 2, replay.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sess.Run(ctx, goldenRunSpec())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under a cancelled context = %v, want context.Canceled", err)
	}
	// The session stays usable: a fresh context runs normally.
	if _, err := sess.Run(context.Background(), goldenRunSpec()); err != nil {
		t.Fatal(err)
	}
}

func TestTraceKey(t *testing.T) {
	base := ShardSpec{
		Workload: "comd-lite",
		Seed:     1,
		Insts:    10_000,
		Observer: ObserverSpec{Kind: "bbl"},
	}
	key := func(t *testing.T, sp ShardSpec) string {
		t.Helper()
		k, err := sp.TraceKey()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	baseKey := key(t, base)
	if len(baseKey) != len(traceKeyVersion)+1+64 || baseKey[:4] != traceKeyVersion+"-" {
		t.Fatalf("trace key %q is not a versioned sha256 digest", baseKey)
	}

	// The key ignores the axis that does not change the stream.
	observer := base
	observer.Observer = ObserverSpec{Kind: "branch-mix"}
	if key(t, observer) != baseKey {
		t.Error("observer changed the trace key; the stream does not depend on who watches")
	}

	// And is sensitive to every axis that does change it.
	for name, mut := range map[string]func(*ShardSpec){
		"workload": func(sp *ShardSpec) { sp.Workload = "xalan-lite" },
		"seed":     func(sp *ShardSpec) { sp.Seed = 2 },
		"insts":    func(sp *ShardSpec) { sp.Insts = 20_000 },
	} {
		sp := base
		mut(&sp)
		if key(t, sp) == baseKey {
			t.Errorf("%s change did not change the trace key", name)
		}
	}

	// Synth coordinates key on canonical params, so spelling differences
	// collapse and knob differences distinguish.
	synthSpec := func(seed uint64) ShardSpec {
		return ShardSpec{
			Workload: "trace-key-synth",
			Synth:    &synth.Params{Name: "trace-key-synth", Seed: 1},
			Seed:     seed,
			Insts:    10_000,
			Observer: ObserverSpec{Kind: "bbl"},
		}
	}
	if key(t, synthSpec(1)) == key(t, synthSpec(2)) {
		t.Error("synth coordinates with different seeds share a trace key")
	}

	if _, err := (&ShardSpec{}).TraceKey(); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("TraceKey on an invalid spec = %v, want ErrInvalidSpec", err)
	}
}
