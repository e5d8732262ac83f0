package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"rebalance/internal/bpred"
	"rebalance/internal/btb"
	"rebalance/internal/icache"
	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
	"rebalance/internal/sim/shardcache"
)

// tracedSweep is timedSweep with spans: a sweep root around the same call
// the timed run makes, a shard child per completion (its end is the
// callback's time, its start that minus the shard's elapsed time), and the
// report encode.
func tracedSweep(ctx context.Context, e *env, tr *tracer, sweepID int) (*sim.Report, time.Duration, error) {
	root := tr.open("sweep", 0, sweepID)
	hook := func(sh sim.Shard, err error) {
		end := tr.now()
		attrs := map[string]string{
			"workload": sh.Workload, "seed": strconv.FormatUint(sh.Seed, 10),
			"observer": sh.Observer, "cached": strconv.FormatBool(sh.Cached),
		}
		if err != nil {
			attrs["error"] = err.Error()
		}
		tr.add("shard", end-sh.ElapsedNS, end, root, sweepID, attrs)
	}
	if e.rig != nil {
		e.rig.onShard = hook
		defer func() { e.rig.onShard = nil }()
	} else {
		ctx = sim.WithShardDone(ctx, hook)
	}
	t0 := time.Now()
	rep, err := e.sweep(ctx)
	if err == nil {
		enc := tr.open("report.encode", root, sweepID)
		_, err = json.Marshal(rep)
		tr.finish(enc)
	}
	wall := time.Since(t0)
	tr.finish(root)
	return rep, wall, err
}

// busyNS is the simulation time one sweep's shards report, counting each
// execution once: a cached shard did no work in this sweep, and the shards
// of one replayed coordinate share a single delivery pass and report its
// elapsed time nine times.
func busyNS(rep *sim.Report, replayed bool) int64 {
	var busy int64
	seen := map[string]bool{}
	for _, sh := range rep.Shards {
		if sh.Cached {
			continue
		}
		if replayed {
			coord := sh.Workload + "\x00" + strconv.FormatUint(sh.Seed, 10)
			if seen[coord] {
				continue
			}
			seen[coord] = true
		}
		busy += sh.ElapsedNS
	}
	return busy
}

// exactCounts sums the simulated counters of a report's merged results.
// They are pure functions of the spec: identical on every commit, host and
// session wiring, or the simulator's behaviour changed.
func exactCounts(rep *sim.Report, t *layerTable) {
	sum := func(a [2]int64) float64 { return float64(a[0] + a[1]) }
	var branches, mispredicts, lookups, btbMisses, accesses, icMisses float64
	for _, m := range rep.Merged {
		switch r := m.Result.(type) {
		case *bpred.Result:
			branches += sum(r.Branches)
			mispredicts += float64(r.Mispredicts())
		case *btb.Result:
			lookups += sum(r.Lookups)
			btbMisses += sum(r.Misses)
		case *icache.Result:
			accesses += sum(r.Accesses)
			icMisses += sum(r.Misses)
		}
	}
	t.set("bpred.branches", branches)
	t.set("bpred.mispredicts", mispredicts)
	t.set("btb.lookups", lookups)
	t.set("btb.misses", btbMisses)
	t.set("icache.accesses", accesses)
	t.set("icache.misses", icMisses)
}

func cacheStats(e *env) shardcache.Stats {
	if e.cache == nil {
		return shardcache.Stats{}
	}
	return e.cache.Stats()
}

// runTraced is the traced run, separate from the timed one: traced sweeps
// beside untraced ones (their ratio is the tracing overhead), one
// hand-driven sweep with a span per layer call, and the unit costs that
// fill the layer table. Spans are written to trace-<workload>.json.
func runTraced(ctx context.Context, cfg *runConfig) (*workloadDoc, error) {
	d, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	workers := setProcs()
	chk, err := newChecker(d, cfg)
	if err != nil {
		return nil, err
	}
	e, err := setup(ctx, d, cfg.seed, workers, cfg.sz)
	if err != nil {
		return nil, fmt.Errorf("setting up %s: %w", d.name, err)
	}
	defer func() { e.close() }()
	if d.mode == modeCoordinator {
		ref, err := localReference(ctx, d, cfg.seed, workers, cfg.sz)
		if err != nil {
			return nil, err
		}
		if err := chk.expect(ref); err != nil {
			return nil, err
		}
	}

	tr := newTracer()
	t := newLayerTable()
	n := cfg.sz.tracedSweeps
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	store0, cache0 := e.storeStats(), cacheStats(e)

	var plain, traced, overhead, elapsed []float64
	var busy, wallSum int64
	var last *sim.Report
	for i := 0; i < n; i++ {
		for _, withSpans := range []bool{false, true} {
			if err := e.prepare(); err != nil {
				return nil, err
			}
			var rep *sim.Report
			var wall time.Duration
			if withSpans {
				rep, wall, err = tracedSweep(ctx, e, tr, i)
			} else {
				rep, wall, err = timedSweep(ctx, e)
			}
			if ctx.Err() != nil {
				return nil, fmt.Errorf("%s: traced run: %w", d.name, ctx.Err())
			}
			tr.call("verify.digest", 0, i, func() { chk.sweep(rep, err) })
			if err != nil {
				continue
			}
			ms := float64(wall.Nanoseconds()) / 1e6
			if !withSpans {
				plain = append(plain, ms)
				continue
			}
			traced = append(traced, ms)
			last = rep
			b := busyNS(rep, e.store != nil)
			busy += b
			wallSum += wall.Nanoseconds()
			overhead = append(overhead, ms-float64(b)/float64(workers)/1e6)
			for _, sh := range rep.Shards {
				elapsed = append(elapsed, float64(sh.ElapsedNS)/1e6)
			}
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return nil, fmt.Errorf("%s: every traced-run sweep failed: %w", d.name, chk.firstErr)
	}
	runtime.ReadMemStats(&mem1)
	store1, cache1 := e.storeStats(), cacheStats(e)
	sweeps := float64(2 * n)

	exactCounts(last, t)
	t.set("sim.shard_elapsed_ms_p50", median(elapsed))
	t.set("sim.shard_elapsed_ms_p99", percentile(elapsed, 99))
	t.set("sim.worker_utilization", float64(busy)/(float64(workers)*float64(wallSum)))
	t.set("sim.run_overhead_ms", median(overhead))
	t.set("sim.alloc_mb_per_sweep", float64(mem1.TotalAlloc-mem0.TotalAlloc)/(1<<20)/sweeps)
	t.set("sim.gc_cycles_per_sweep", float64(mem1.NumGC-mem0.NumGC)/sweeps)
	t.set("replay.store_hits_per_sweep", float64(store1.Hits-store0.Hits)/sweeps)
	t.set("replay.store_misses_per_sweep", float64(store1.Misses-store0.Misses)/sweeps)
	t.set("replay.store_evictions_per_sweep", float64(store1.Evictions-store0.Evictions)/sweeps)
	if lookups := float64(cache1.Hits - cache0.Hits + cache1.Misses - cache0.Misses); lookups > 0 {
		t.set("shardcache.hit_ratio", float64(cache1.Hits-cache0.Hits)/lookups)
	}
	t.set("shardcache.evictions_per_sweep", float64(cache1.Evictions-cache0.Evictions)/sweeps)
	t.set("bench.trace_overhead_pct", 100*(median(traced)/median(plain)-1))

	handErr := handDriven(ctx, e, tr, n, last, chk.reference)
	if handErr != nil {
		chk.fail(chk.shardsPerSweep, handErr)
	}
	var ownDispatcher *dispatch.Stats
	if e.rig != nil {
		st := e.rig.disp.Stats()
		ownDispatcher = &st
	}
	// The unit costs build stores of their own; release the workload's first.
	e.close()

	units, cleanup, err := newUnitCosts(ctx, cfg, workers, t)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	if err := units.run(); err != nil {
		return nil, fmt.Errorf("unit costs: %w", err)
	}
	if ownDispatcher != nil {
		// The dispatched workload's own dispatcher, over its real sweeps.
		t.setDispatchStats(*ownDispatcher)
	}
	measured := median(plain)
	t.set("sim.model_error_pct", 100*(predictWallMS(d, cfg.sz, workers, t)/measured-1))
	t.set("failed_ops_ratio", chk.failedRatio())

	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+d.name+".json")); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	printSelfTimes(cfg, tr, n)

	doc := newWorkloadDoc(d, 2*n, chk)
	doc.PerLayer = t.rows()
	if chk.firstErr != nil {
		return &doc, fmt.Errorf("%w: %s: %v", errIncorrect, d.name, chk.firstErr)
	}
	return &doc, nil
}

// printSelfTimes lists where the hand-driven sweep's time went, by span
// name, largest first.
func printSelfTimes(cfg *runConfig, tr *tracer, handSweep int) {
	var hand []span
	for _, s := range tr.spans {
		if s.Sweep == handSweep && s.Name != "verify.digest" {
			hand = append(hand, s)
		}
	}
	self := selfByName(hand)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	// Largest first; ties by name so the listing is stable.
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(cfg.log, "%s: hand-driven sweep self time by span (ms)\n", cfg.workload)
	for _, name := range names {
		fmt.Fprintf(cfg.log, "  %-36s %10.3f\n", name, float64(self[name])/1e6)
	}
}

// observerCostName maps an observer configuration key of the two grids to
// the layer-table entry that prices it. The 512x4 BTB and the 16K I-cache
// are priced as the geometry the table measures.
func observerCostName(key string) string {
	kind, rest, _ := strings.Cut(key, "/")
	switch kind {
	case "bpred":
		return "bpred.observe_ns_per_inst." + rest
	case "btb":
		return "btb.observe_ns_per_inst"
	case "icache":
		return "icache.observe_ns_per_inst"
	case "branch-mix":
		return "analysis.mix_ns_per_inst"
	default:
		return "analysis." + kind + "_ns_per_inst"
	}
}

// predictWallMS predicts a workload's sweep wall from the layer table: the
// sum of unit cost times count along the session's path, divided by the
// workers where the path is parallel. The gap to the measured median is
// sim.model_error_pct — what the table does not explain.
func predictWallMS(d *workloadDef, sz sizes, workers int, t *layerTable) float64 {
	spec := d.spec(1, sz)
	insts := float64(spec.Insts)
	coords := float64(len(spec.Workloads) * len(spec.Seeds))
	deliver := t.get("replay.deliver_ns_per_inst")
	var observeSelf float64 // ns/inst, summed over the grid's configurations
	var configs float64
	for _, u := range d.units() {
		cfg, err := unitConfig(u)
		if err != nil {
			return 0
		}
		observeSelf += max(0, t.get(observerCostName(cfg.Key()))-deliver)
		configs++
	}
	shards := coords * configs
	par := float64(workers)
	// Serial tail of every sweep: the merges and the report encode.
	tailMS := shards*t.get("sim.merge_us")/1e3 + t.get("sim.report_encode_ms")
	fixedMS := shards * t.get("sim.shard_fixed_us") / 1e3
	generate := t.get("trace.generate_ns_per_inst")
	switch d.mode {
	case modeGenerate:
		return coords*insts*(configs*generate+observeSelf)/1e6/par + fixedMS/par + tailMS
	case modeReplayWarm:
		return coords*insts*(deliver+observeSelf)/1e6/par + tailMS
	case modeReplayCold:
		return coords*insts*(t.get("replay.record_ns_per_inst")+deliver+observeSelf)/1e6/par + tailMS
	case modeCached:
		perShard := t.get("sim.cache_key_us") + t.get("shardcache.do_hit_us") + t.get("sim.shard_decode_us")
		return shards*perShard/1e3/par + tailMS
	default: // modeCoordinator
		rtt := shards * t.get("dispatch.shard_rtt_us_p50") / 1e3
		return coords*insts*(configs*generate+observeSelf)/1e6/par + (fixedMS+rtt)/par + t.get("sweep.coord_overhead_ms") + tailMS
	}
}
