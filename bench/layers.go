package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rebalance/internal/bpred"
	"rebalance/internal/program"
	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
	"rebalance/internal/sim/shardcache"
	"rebalance/internal/trace"
	"rebalance/internal/trace/replay"
	"rebalance/internal/workload"
	"rebalance/internal/workload/synth"
)

// unitCosts measures every layer from outside, by timing calls into its
// exported functions, and fills the layer table: the cost model end-to-end
// wall is predicted from. Per-instruction figures are over a stream of
// sizes.unitInsts instructions, the mean of the two grid workloads, the
// minimum of sizes.unitReps repetitions with the median beside it.
type unitCosts struct {
	ctx     context.Context
	cfg     *runConfig
	workers int
	t       *layerTable
	dir     string // scratch directory for the disk tiers

	progs    map[string]*program.Program
	compiled map[string]*trace.Compiled
	traces   map[string]*replay.Trace
	mixed    *workloadDef // the mixed9 2M-inst grid (cached-rerun's definition)
	rep9     *sim.Report  // a real mixed9 report: the payload of the sim and cache costs
	grid9    []gridShard  // rep9's shards with their specs, configurations and records
}

// msSince and usSince convert an elapsed time to the table's units.
func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }
func usSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

// reps calls fn sizes.unitReps times and returns what each call returned.
func (u *unitCosts) reps(fn func() (float64, error)) ([]float64, error) {
	out := make([]float64, 0, u.cfg.sz.unitReps)
	for i := 0; i < u.cfg.sz.unitReps; i++ {
		if err := u.ctx.Err(); err != nil {
			return nil, err
		}
		v, err := fn()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// perWorkload measures fn on each grid workload and records the mean over
// workloads of each repetition rank: min of reps with the median beside it.
func (u *unitCosts) perWorkload(name string, fn func(w string) (float64, error)) error {
	var mins, meds []float64
	for _, w := range gridWorkloads {
		rs, err := u.reps(func() (float64, error) { return fn(w) })
		if err != nil {
			return fmt.Errorf("%s on %s: %w", name, w, err)
		}
		mins = append(mins, minOf(rs))
		meds = append(meds, median(rs))
	}
	u.t.setMinMedian(name, mean(mins), mean(meds))
	return nil
}

// nsPerInst times fn, which streams n instructions, and returns ns/inst.
func nsPerInst(fn func() (n int64, err error)) (float64, error) {
	t0 := time.Now()
	n, err := fn()
	el := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("stream of %d instructions", n)
	}
	return float64(el.Nanoseconds()) / float64(n), nil
}

func (u *unitCosts) run() error {
	steps := []func() error{
		u.buildCosts, u.streamCosts, u.storeCosts, u.observerCosts,
		u.replayRatios, u.simCosts, u.shardcacheCosts, u.dispatchCosts, u.scaling,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// buildCosts: workload and synth program construction, and compilation.
func (u *unitCosts) buildCosts() error {
	u.progs = map[string]*program.Program{}
	u.compiled = map[string]*trace.Compiled{}
	if err := u.perWorkload("workload.build_ms", func(w string) (float64, error) {
		t0 := time.Now()
		p, err := workload.Build(w)
		u.progs[w] = p
		return msSince(t0), err
	}); err != nil {
		return err
	}
	rs, err := u.reps(func() (float64, error) {
		t0 := time.Now()
		_, err := synth.Build(synth.Defaults())
		return msSince(t0), err
	})
	if err != nil {
		return err
	}
	u.t.setReps("synth.build_ms", rs)
	return u.perWorkload("trace.compile_ms", func(w string) (float64, error) {
		t0 := time.Now()
		c, err := trace.Compile(u.progs[w])
		u.compiled[w] = c
		return msSince(t0), err
	})
}

// streamCosts: generation on both engines, recording, and the two ends of
// the trr1 codec, all into or out of consumers that do nothing.
func (u *unitCosts) streamCosts() error {
	insts := u.cfg.sz.unitInsts
	u.traces = map[string]*replay.Trace{}
	encoded := map[string][]byte{}
	measures := []struct {
		name string
		fn   func(w string) (int64, error)
	}{
		{"trace.generate_ns_per_inst", func(w string) (int64, error) {
			ex := trace.NewCompiledExecutor(u.compiled[w], u.cfg.seed)
			ex.SetContext(u.ctx)
			ex.Attach(nopObserver{})
			return insts, ex.Run(insts)
		}},
		{"trace.generate_ref_ns_per_inst", func(w string) (int64, error) {
			ex := trace.NewExecutor(u.progs[w], u.cfg.seed)
			ex.SetContext(u.ctx)
			ex.Attach(nopObserver{})
			return insts, ex.RunReference(insts)
		}},
		{"replay.record_ns_per_inst", func(w string) (int64, error) {
			rec := replay.NewRecorder()
			rec.Reserve(int(insts))
			ex := trace.NewCompiledExecutor(u.compiled[w], u.cfg.seed)
			ex.SetContext(u.ctx)
			ex.Attach(rec)
			err := ex.Run(insts)
			u.traces[w] = rec.Trace()
			return insts, err
		}},
		{"replay.deliver_ns_per_inst", func(w string) (int64, error) {
			tr := u.traces[w]
			return int64(tr.Len()), replay.Deliver(u.ctx, tr, trace.BatchSize, &readObserver{})
		}},
		{"replay.encode_ns_per_inst", func(w string) (int64, error) {
			encoded[w] = replay.Encode(u.traces[w])
			return int64(u.traces[w].Len()), nil
		}},
		{"replay.decode_ns_per_inst", func(w string) (int64, error) {
			tr, err := replay.Decode(encoded[w])
			if err == nil && tr.Len() != u.traces[w].Len() {
				err = fmt.Errorf("decoded %d instructions, encoded %d", tr.Len(), u.traces[w].Len())
			}
			return int64(u.traces[w].Len()), err
		}},
	}
	for _, m := range measures {
		if err := u.perWorkload(m.name, func(w string) (float64, error) {
			return nsPerInst(func() (int64, error) { return m.fn(w) })
		}); err != nil {
			return err
		}
	}
	var resident, disk []float64
	for _, w := range gridWorkloads {
		n := float64(u.traces[w].Len())
		resident = append(resident, float64(u.traces[w].MemBytes())/n)
		disk = append(disk, float64(len(encoded[w]))/n)
	}
	u.t.set("replay.resident_bytes_per_inst", mean(resident))
	u.t.set("replay.disk_bytes_per_inst", mean(disk))
	return nil
}

// storeCosts: the trace store's three ways of answering — disk write on
// insert, disk hit by a fresh store over a populated directory, memory hit.
func (u *unitCosts) storeCosts() error {
	generated := func() (*replay.Trace, error) {
		return nil, fmt.Errorf("the store ran the generator on what should be a hit")
	}
	n := 0
	stores := map[string]*replay.Store{} // per workload, a store holding its trace
	if err := u.perWorkload("replay.store_put_disk_ms", func(w string) (float64, error) {
		n++
		st, err := replay.New(replay.Options{Dir: filepath.Join(u.dir, fmt.Sprintf("traces-%d", n))})
		if err != nil {
			return 0, err
		}
		stores[w] = st
		t0 := time.Now()
		st.Put("tr1-bench-"+w, u.traces[w])
		return msSince(t0), nil
	}); err != nil {
		return err
	}
	n = 0
	if err := u.perWorkload("replay.store_disk_hit_ms", func(w string) (float64, error) {
		n++
		st, err := replay.New(replay.Options{Dir: filepath.Join(u.dir, fmt.Sprintf("traces-%d", n))})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, hit, err := st.Do(u.ctx, "tr1-bench-"+w, generated)
		if err == nil && !hit {
			err = fmt.Errorf("fresh store over a populated directory missed")
		}
		return msSince(t0), err
	}); err != nil {
		return err
	}
	return u.perWorkload("replay.store_mem_hit_us", func(w string) (float64, error) {
		t0 := time.Now()
		for i := 0; i < u.cfg.sz.smallOps; i++ {
			if _, _, err := stores[w].Do(u.ctx, "tr1-bench-"+w, generated); err != nil {
				return 0, err
			}
		}
		return usSince(t0) / float64(u.cfg.sz.smallOps), nil
	})
}

// observerCosts: one materialised trace delivered to one fresh observer per
// configuration. An observer's self time is its figure minus
// replay.deliver_ns_per_inst, the cost of the delivery walk itself.
func (u *unitCosts) observerCosts() error {
	bp := func(opts string) sim.ObserverSpec {
		return sim.ObserverSpec{Kind: "bpred", Options: json.RawMessage(opts)}
	}
	units := mixed9Units()
	type unitObserver struct {
		name string
		spec sim.ObserverSpec
	}
	observers := []unitObserver{
		{"bpred.grouped9_ns_per_inst", bp(`{"grouped":true}`)},
		{"bpred.parallel9_ns_per_inst", bp(`{"parallel":true}`)},
		{"btb.observe_ns_per_inst", units[4]},    // 1024 x 8
		{"icache.observe_ns_per_inst", units[6]}, // 32K / 64 / 8
		{"analysis.mix_ns_per_inst", sim.ObserverSpec{Kind: "branch-mix"}},
		{"analysis.bias_ns_per_inst", sim.ObserverSpec{Kind: "bias"}},
		{"analysis.footprint_ns_per_inst", sim.ObserverSpec{Kind: "footprint"}},
		{"analysis.bbl_ns_per_inst", sim.ObserverSpec{Kind: "bbl"}},
	}
	fig5 := fig5Units()
	for i, name := range bpred.ConfigNames() {
		observers = append(observers, unitObserver{"bpred.observe_ns_per_inst." + name, fig5[i]})
	}
	for _, o := range observers {
		cfg, err := unitConfig(o.spec)
		if err != nil {
			return fmt.Errorf("%s: %w", o.name, err)
		}
		if err := u.perWorkload(o.name, func(w string) (float64, error) {
			obs := cfg.NewObserver(u.progs[w])
			defer closeObserver(obs)
			tr := u.traces[w]
			return nsPerInst(func() (int64, error) {
				return int64(tr.Len()), replay.Deliver(u.ctx, tr, trace.BatchSize, obs)
			})
		}); err != nil {
			return err
		}
	}
	return nil
}

// minSweepWall runs n timed sweeps on sess (prepare, untimed, before each)
// and returns the fastest wall in ms with the last report.
func (u *unitCosts) minSweepWall(sess *sim.Session, spec *sim.Spec, n int, prepare func() error) (float64, *sim.Report, error) {
	var walls []float64
	var last *sim.Report
	for i := 0; i < n; i++ {
		if prepare != nil {
			if err := prepare(); err != nil {
				return 0, nil, err
			}
		}
		t0 := time.Now()
		rep, err := sess.Run(u.ctx, spec)
		if err == nil {
			_, err = json.Marshal(rep)
		}
		if err != nil {
			return 0, nil, err
		}
		walls = append(walls, msSince(t0))
		last = rep
	}
	return minOf(walls), last, nil
}

// replayRatios: the mixed9 grid generated per shard (the base), replayed
// cold (a fresh store per sweep) and replayed warm, fastest sweep of each.
func (u *unitCosts) replayRatios() error {
	spec := u.mixed.spec(u.cfg.seed, u.cfg.sz)
	n := u.cfg.sz.ratioSweeps
	gen, rep, err := u.minSweepWall(sim.NewSession(u.workers), spec, n, nil)
	if err != nil {
		return fmt.Errorf("mixed9 generate base: %w", err)
	}
	u.rep9 = rep
	if u.grid9, err = mixedShards(rep); err != nil {
		return err
	}
	sess := sim.NewSession(u.workers)
	cold, _, err := u.minSweepWall(sess, spec, n, func() error {
		st, err := replay.New(replay.Options{})
		sess.SetTraceStore(st)
		runtime.GC()
		return err
	})
	if err != nil {
		return fmt.Errorf("mixed9 cold replay: %w", err)
	}
	warm, _, err := u.minSweepWall(sess, spec, n, nil)
	if err != nil {
		return fmt.Errorf("mixed9 warm replay: %w", err)
	}
	u.t.set("replay.warm_speedup_vs_generate", gen/warm)
	u.t.set("replay.cold_speedup_vs_generate", gen/cold)
	return nil
}

// gridShards pairs every shard of a mixed9 report with the spec and
// configuration it was run for, in report order.
type gridShard struct {
	spec sim.ShardSpec
	cfg  sim.ObserverConfig
	sh   sim.Shard
	enc  []byte
	key  string
}

func mixedShards(rep *sim.Report) ([]gridShard, error) {
	units := mixed9Units()
	var out []gridShard
	i := 0
	for _, w := range rep.Spec.Workloads {
		for _, unit := range units {
			for _, seed := range rep.Spec.Seeds {
				g := gridShard{sh: rep.Shards[i], spec: sim.ShardSpec{
					Workload: w, Seed: seed, Insts: rep.Spec.Insts, Engine: rep.Spec.Engine, Observer: unit}}
				var err error
				if g.cfg, err = g.spec.Config(); err != nil {
					return nil, err
				}
				if g.cfg.Key() != g.sh.Observer {
					return nil, fmt.Errorf("report shard %d is %s, the grid says %s", i, g.sh.Observer, g.cfg.Key())
				}
				if g.enc, err = sim.EncodeShard(g.sh); err != nil {
					return nil, err
				}
				g.key = sim.ShardCacheKey(g.spec, g.cfg)
				out = append(out, g)
				i++
			}
		}
	}
	return out, nil
}

// perShard times fn over every shard of the grid and records µs per shard.
func (u *unitCosts) perShard(name string, grid []gridShard, fn func(g *gridShard) error) error {
	rs, err := u.reps(func() (float64, error) {
		t0 := time.Now()
		for i := range grid {
			if err := fn(&grid[i]); err != nil {
				return 0, err
			}
		}
		return usSince(t0) / float64(len(grid)), nil
	})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	u.t.setReps(name, rs)
	return nil
}

// simCosts: the session's per-shard and per-report fixed work, over the
// shards of a real mixed9 report.
func (u *unitCosts) simCosts() error {
	grid := u.grid9
	sess := sim.NewSession(u.workers)
	steps := []struct {
		name string
		fn   func(g *gridShard) error
	}{
		{"sim.shard_encode_us", func(g *gridShard) error { _, err := sim.EncodeShard(g.sh); return err }},
		{"sim.shard_decode_us", func(g *gridShard) error { _, err := sim.DecodeShard(g.enc, g.spec, g.cfg); return err }},
		{"sim.cache_key_us", func(g *gridShard) error { _, err := g.spec.CacheKey(); return err }},
		// Observer construction, executor set-up, one region, Finish.
		{"sim.shard_fixed_us", func(g *gridShard) error {
			one := g.spec
			one.Insts = 1
			_, err := sess.RunShard(u.ctx, one)
			return err
		}},
	}
	for _, s := range steps {
		if err := u.perShard(s.name, grid, s.fn); err != nil {
			return err
		}
	}
	// Merge in the session's order: one accumulator per {workload, config},
	// its seeds folded in. The grid is seed-minor, so accumulators change
	// every len(seeds) shards.
	seeds := len(u.rep9.Spec.Seeds)
	var acc sim.Result
	i := 0
	if err := u.perShard("sim.merge_us", grid, func(g *gridShard) error {
		if i%seeds == 0 {
			acc = g.cfg.NewResult()
		}
		i++
		return acc.Merge(g.sh.Result)
	}); err != nil {
		return err
	}
	var enc []byte
	rs, err := u.reps(func() (float64, error) {
		t0 := time.Now()
		var err error
		enc, err = json.Marshal(u.rep9)
		return msSince(t0), err
	})
	if err != nil {
		return err
	}
	u.t.setReps("sim.report_encode_ms", rs)
	rs, err = u.reps(func() (float64, error) {
		t0 := time.Now()
		_, err := sim.DecodeReport(enc)
		return msSince(t0), err
	})
	if err != nil {
		return err
	}
	u.t.setReps("sim.report_decode_ms", rs)
	return nil
}

// shardcacheCosts: both tiers of the result cache, with real mixed9 shard
// records as payloads under their real keys.
func (u *unitCosts) shardcacheCosts() error {
	grid := u.grid9
	// pass times op over every record against the cache open returns for
	// the repetition, and records µs per record.
	pass := func(name string, open func(rep int) (*shardcache.Cache, error), op func(c *shardcache.Cache, g *gridShard) error) error {
		rep := 0
		rs, err := u.reps(func() (float64, error) {
			rep++
			c, err := open(rep)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			for i := range grid {
				if err := op(c, &grid[i]); err != nil {
					return 0, err
				}
			}
			return usSince(t0) / float64(len(grid)), nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		u.t.setReps(name, rs)
		return nil
	}
	var mem *shardcache.Cache
	freshMem := func(int) (c *shardcache.Cache, err error) {
		mem, err = shardcache.New(shardcache.Options{})
		return mem, err
	}
	filledMem := func(int) (*shardcache.Cache, error) { return mem, nil }
	onDisk := func(rep int) (*shardcache.Cache, error) {
		return shardcache.New(shardcache.Options{Dir: filepath.Join(u.dir, fmt.Sprintf("shards-%d", rep))})
	}
	put := func(c *shardcache.Cache, g *gridShard) error { c.Put(g.key, g.enc); return nil }
	get := func(c *shardcache.Cache, g *gridShard) error {
		if _, ok := c.Get(g.key); !ok {
			return fmt.Errorf("missed a key that was put")
		}
		return nil
	}
	doHit := func(c *shardcache.Cache, g *gridShard) error {
		_, _, err := c.Do(u.ctx, g.key, func() ([]byte, error) {
			return nil, fmt.Errorf("the cache ran the compute on what should be a hit")
		})
		return err
	}
	steps := []struct {
		name string
		open func(int) (*shardcache.Cache, error)
		op   func(*shardcache.Cache, *gridShard) error
	}{
		{"shardcache.mem_put_us", freshMem, put},
		{"shardcache.mem_get_us", filledMem, get},
		{"shardcache.do_hit_us", filledMem, doHit},
		{"shardcache.disk_put_us", onDisk, put},
		// A fresh cache over the directory the puts populated: every get
		// reads, verifies and promotes a file.
		{"shardcache.disk_get_us", onDisk, get},
	}
	for _, s := range steps {
		if err := pass(s.name, s.open, s.op); err != nil {
			return err
		}
	}
	return nil
}

// dispatchCosts: the worker protocol and the coordinator, on the
// coord-dispatch-small grid against a worker whose result cache is warm,
// so what is timed is protocol and scheduling, not simulation.
func (u *unitCosts) dispatchCosts() error {
	small, err := findWorkload("coord-dispatch-small")
	if err != nil {
		return err
	}
	spec := small.spec(u.cfg.seed, u.cfg.sz)
	workerCache, err := shardcache.New(shardcache.Options{})
	if err != nil {
		return err
	}
	rig, err := newDispatchRig(u.workers, workerCache)
	if err != nil {
		return err
	}
	defer rig.close()
	rep, err := rig.front.Run(u.ctx, spec) // warms the worker's cache
	if err != nil {
		return fmt.Errorf("warming the loopback worker: %w", err)
	}
	grid, err := mixedShards(rep)
	if err != nil {
		return err
	}

	rtts := make([]float64, 0, u.cfg.sz.rttCalls)
	var wire []float64
	for i := 0; i < u.cfg.sz.rttCalls; i++ {
		g := &grid[i%len(grid)]
		t0 := time.Now()
		if _, err := rig.backend.RunShard(u.ctx, g.spec); err != nil {
			return fmt.Errorf("loopback round trip: %w", err)
		}
		rtts = append(rtts, usSince(t0))
	}
	for i := range grid {
		req, err := json.Marshal(grid[i].spec)
		if err != nil {
			return err
		}
		wire = append(wire, float64(len(req)+len(grid[i].enc)))
	}
	u.t.set("dispatch.shard_rtt_us_p50", median(rtts))
	u.t.set("dispatch.shard_rtt_us_p99", percentile(rtts, 99))
	u.t.set("dispatch.wire_bytes_per_shard", mean(wire))

	// Dispatcher scheduling alone: the same cache-warm session behind a
	// LocalBackend with one slot, against a plain loop over RunShard.
	local := sim.NewSession(u.workers)
	local.SetCache(workerCache)
	disp, err := dispatch.New([]dispatch.Backend{&dispatch.LocalBackend{Sess: local}}, dispatch.Options{MaxInFlight: 1})
	if err != nil {
		return err
	}
	specs := make([]sim.ShardSpec, len(grid))
	for i := range grid {
		specs[i] = grid[i].spec
	}
	loop, err := u.reps(func() (float64, error) {
		t0 := time.Now()
		for _, ss := range specs {
			if _, err := local.RunShard(u.ctx, ss); err != nil {
				return 0, err
			}
		}
		return usSince(t0), nil
	})
	if err != nil {
		return err
	}
	through, err := u.reps(func() (float64, error) {
		t0 := time.Now()
		_, err := disp.RunShards(u.ctx, specs)
		return usSince(t0), err
	})
	if err != nil {
		return err
	}
	u.t.setMinMedian("dispatch.runshards_overhead_us_per_shard",
		(minOf(through)-minOf(loop))/float64(len(specs)), (median(through)-median(loop))/float64(len(specs)))

	// Coordinator: submit -> terminal as its client sees it, against the
	// same spec through Session.Run with the same dispatcher.
	var submits, waits, via, direct []float64
	for i := 0; i < u.cfg.sz.smallOps/10+1; i++ {
		t0 := time.Now()
		cs, err := rig.sweepVia(u.ctx, spec)
		if err != nil {
			return fmt.Errorf("coordinator sweep: %w", err)
		}
		via = append(via, msSince(t0))
		submits = append(submits, float64(cs.submit.Nanoseconds())/1e3)
		if cs.status.StartedAt != nil {
			waits = append(waits, float64(cs.status.StartedAt.Sub(cs.status.SubmittedAt).Nanoseconds())/1e3)
		}
		t0 = time.Now()
		if _, err := rig.front.Run(u.ctx, spec); err != nil {
			return err
		}
		direct = append(direct, msSince(t0))
	}
	u.t.set("sweep.submit_us", median(submits))
	u.t.set("sweep.queue_wait_us_p50", median(waits))
	u.t.set("sweep.coord_overhead_ms", median(via)-median(direct))
	u.t.setDispatchStats(rig.disp.Stats())
	return nil
}

// scaling: fig5 throughput at GOMAXPROCS workers over GOMAXPROCS times the
// throughput at one worker; the fastest of two sweeps each.
func (u *unitCosts) scaling() error {
	fig5, err := findWorkload("fig5-generate")
	if err != nil {
		return err
	}
	spec := fig5.spec(u.cfg.seed, u.cfg.sz)
	many, _, err := u.minSweepWall(sim.NewSession(u.workers), spec, 2, nil)
	if err != nil {
		return err
	}
	one, _, err := u.minSweepWall(sim.NewSession(1), spec, 2, nil)
	if err != nil {
		return err
	}
	u.t.set("sim.scaling_efficiency", one/(float64(u.workers)*many))
	return nil
}

// newUnitCosts prepares the scratch directory under the output directory.
func newUnitCosts(ctx context.Context, cfg *runConfig, workers int, t *layerTable) (*unitCosts, func(), error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return nil, nil, err
	}
	mixed, err := findWorkload("mixed9-cached-rerun")
	if err != nil {
		return nil, nil, err
	}
	u := &unitCosts{ctx: ctx, cfg: cfg, workers: workers, t: t, dir: dir, mixed: mixed}
	return u, func() { _ = os.RemoveAll(dir) }, nil
}
