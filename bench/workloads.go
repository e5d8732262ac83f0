package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"rebalance/internal/bpred"
	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
	"rebalance/internal/sim/shardcache"
	"rebalance/internal/sim/sweep"
	"rebalance/internal/trace/replay"
)

// mode is how a workload's session is wired: which caches sit in front of
// the simulator and whether shards leave the process.
type mode int

const (
	modeGenerate    mode = iota // no cache, no trace store: generate per shard
	modeReplayWarm              // replay.Store pre-filled by one sweep
	modeReplayCold              // a fresh empty replay.Store per sweep
	modeCached                  // shardcache memory tier pre-filled by one sweep
	modeCoordinator             // coordinator -> dispatcher -> HTTP -> loopback worker
)

// workloadDef is one benchmark workload: a grid, a session wiring and the
// fixed number of sweeps timed at the nominal run length.
type workloadDef struct {
	name  string
	why   string
	mixed bool // mixed9 grid (nine configs of five kinds); otherwise fig5
	small bool // sizes.smallInsts per shard instead of sizes.insts
	mode  mode
	// sweeps is the timed sweep count at nominalSeconds. Counts are fixed,
	// never time-boxed, so the sample count behind the tail percentile is
	// the same on every commit. The two millisecond-scale workloads time
	// three and two times the sweeps the issue sized (2000, 300): their
	// timed region was a few seconds and held too few windows for one to
	// fall between this host's bursts of interference.
	sweeps int
	// window is how many consecutive sweeps make one window of calmest: long
	// enough to hold the program's own periodic costs (several collector
	// cycles), short enough that a run has many and some fall between the
	// host's bursts of interference. About a second on the 2M-inst grids,
	// a tenth of that on the millisecond-scale ones.
	window int
	// bounds are the regression bounds -compare applies on this workload, as
	// shares of the baseline median, keyed by end-to-end metric name.
	bounds map[string]float64
}

// nominalSeconds is the run length the sweep counts below are sized for
// (BENCHMARK.json's run_seconds). -seconds scales every count linearly.
const nominalSeconds = 20

// minSweeps is the floor a scaled sweep count never goes below: with fewer
// than 20 samples no percentile above the median has ten samples beyond it.
const minSweeps = 20

func bounds(p50, tail float64) map[string]float64 {
	return map[string]float64{
		"setup_s":                0.15,
		"sweep_wall_ms_p50":      p50,
		"sweep_wall_ms_tail":     tail,
		"throughput_minst_per_s": p50,
		"peak_rss_mb":            0.10,
	}
}

var workloads = []workloadDef{
	{
		name: "fig5-generate", mode: modeGenerate, sweeps: 30, window: 2, bounds: bounds(0.05, 0.15),
		why: "the paper's Figure-5 grid, generated per shard: predictor kernels and the executor dominate, caches are bypassed",
	},
	{
		name: "mixed9-replay-warm", mixed: true, mode: modeReplayWarm, sweeps: 30, window: 2, bounds: bounds(0.05, 0.15),
		why: "read side of trace replay: one Deliver pass per coordinate from a resident store; generation is bypassed",
	},
	{
		name: "mixed9-replay-cold", mixed: true, mode: modeReplayCold, sweeps: 30, window: 2, bounds: bounds(0.08, 0.25),
		why: "write side of trace replay: generate, record and insert into a fresh store every sweep, then replay",
	},
	{
		name: "mixed9-cached-rerun", mixed: true, mode: modeCached, sweeps: 6000, window: 20, bounds: bounds(0.08, 0.15),
		why: "every shard is a result-cache hit: key, lookup, decode, merge and report encode only; kernels do no work",
	},
	{
		name: "coord-dispatch-small", mixed: true, small: true, mode: modeCoordinator, sweeps: 600, window: 4, bounds: bounds(0.08, 0.15),
		why: "small shards through coordinator, dispatcher and a loopback HTTP worker, so per-shard overhead is visible",
	},
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v, or \"all\")", name, names)
}

// sizes are the knobs the default run fixes and the smoke test shrinks.
type sizes struct {
	insts      int64 // per-shard budget of the 2M-inst grids
	smallInsts int64 // per-shard budget of coord-dispatch-small
	sweeps     int   // timed sweeps; 0 selects the workload's scaled count
	setupReps  int   // fewest set-ups per run; setup_s is their median
	// The rest size the traced run.
	tracedSweeps int   // traced sweeps, and as many untraced ones beside them
	unitInsts    int64 // stream length of the per-inst unit costs
	unitReps     int   // repetitions per unit cost; the minimum is reported
	ratioSweeps  int   // sweeps per side of the replay speed-up ratios
	rttCalls     int   // HTTP round trips behind dispatch.shard_rtt_us_*
	smallOps     int   // iterations of each microsecond-scale operation
}

func defaultSizes() sizes {
	return sizes{
		insts: 2_000_000, smallInsts: 50_000, setupReps: 3,
		tracedSweeps: 5, unitInsts: 2_000_000, unitReps: 5, ratioSweeps: 3,
		rttCalls: 2000, smallOps: 200,
	}
}

// Cheap set-ups repeat beyond sizes.setupReps, up to setupMaxReps, while the
// run has spent less than setupBudget on them: a 40 ms set-up needs more
// than three samples for a steady median and can afford them.
const (
	setupMaxReps = 9
	setupBudget  = 2 * time.Second
)

// sweepCount returns the number of timed sweeps for d at the given run
// length: the scaled count, rounded up to whole windows.
func (sz sizes) sweepCount(d *workloadDef, seconds int) int {
	if sz.sweeps > 0 {
		return sz.sweeps
	}
	n := max(minSweeps, (d.sweeps*seconds+nominalSeconds/2)/nominalSeconds)
	return (n + d.window - 1) / d.window * d.window
}

var gridWorkloads = []string{"comd-lite", "xalan-lite"}

// gridSeeds are the four stream seeds of a workload seed S: S..S+3. The
// simulator sees only these, never the workload seed itself.
func gridSeeds(seed uint64) []uint64 {
	return []uint64{seed, seed + 1, seed + 2, seed + 3}
}

func rawOptions(v any) json.RawMessage {
	enc, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: marshalling observer options: %v", err))
	}
	return enc
}

// mixed9Units are the nine configurations of the mixed9 grid, one
// ObserverSpec each, in the order the compact form below expands to.
func mixed9Units() []sim.ObserverSpec {
	bp := func(name string) sim.ObserverSpec {
		return sim.ObserverSpec{Kind: "bpred", Options: rawOptions(map[string]any{"configs": []string{name}})}
	}
	btb := func(entries, ways int) sim.ObserverSpec {
		return sim.ObserverSpec{Kind: "btb", Options: rawOptions(map[string]any{
			"geometries": []map[string]int{{"entries": entries, "ways": ways}}})}
	}
	ic := func(kb, ways int) sim.ObserverSpec {
		return sim.ObserverSpec{Kind: "icache", Options: rawOptions(map[string]any{
			"geometries": []map[string]int{{"size_kb": kb, "line_bytes": 64, "ways": ways}}})}
	}
	return []sim.ObserverSpec{
		bp("gshare-big"), bp("tournament-big"), bp("tage-big"),
		btb(512, 4), btb(1024, 8),
		ic(16, 4), ic(32, 8),
		{Kind: "branch-mix"}, {Kind: "bbl"},
	}
}

// mixed9Observers is the mixed9 grid as a researcher writes it: five
// observer kinds expanding to the nine configurations of mixed9Units.
func mixed9Observers() []sim.ObserverSpec {
	return []sim.ObserverSpec{
		{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-big","tournament-big","tage-big"]}`)},
		{Kind: "btb", Options: json.RawMessage(`{"geometries":[{"entries":512,"ways":4},{"entries":1024,"ways":8}]}`)},
		{Kind: "icache", Options: json.RawMessage(`{"geometries":[{"size_kb":16,"line_bytes":64,"ways":4},{"size_kb":32,"line_bytes":64,"ways":8}]}`)},
		{Kind: "branch-mix"},
		{Kind: "bbl"},
	}
}

// fig5Units are the nine registered Figure-5 predictor configurations, the
// set {"kind":"bpred"} with no options expands to.
func fig5Units() []sim.ObserverSpec {
	var out []sim.ObserverSpec
	for _, name := range bpred.ConfigNames() {
		out = append(out, sim.ObserverSpec{Kind: "bpred", Options: rawOptions(map[string]any{"configs": []string{name}})})
	}
	return out
}

// spec returns the sweep a researcher would submit for d.
func (d *workloadDef) spec(seed uint64, sz sizes) *sim.Spec {
	s := &sim.Spec{
		Workloads: gridWorkloads,
		Seeds:     gridSeeds(seed),
		Insts:     sz.insts,
		Engine:    sim.EngineCompiled,
		Observers: []sim.ObserverSpec{{Kind: "bpred"}},
	}
	if d.mixed {
		s.Observers = mixed9Observers()
	}
	if d.small {
		s.Insts = sz.smallInsts
	}
	return s
}

// units returns d's grid as single-configuration observer specs, in report
// order.
func (d *workloadDef) units() []sim.ObserverSpec {
	if d.mixed {
		return mixed9Units()
	}
	return fig5Units()
}

// unitConfig expands a single-configuration observer spec.
func unitConfig(u sim.ObserverSpec) (sim.ObserverConfig, error) {
	ss := sim.ShardSpec{Workload: gridWorkloads[0], Insts: 1, Observer: u}
	return ss.Config()
}

// env is one set-up instance of a workload: the wired session and whatever
// caches, servers and coordinator stand around it.
type env struct {
	def  *workloadDef
	spec *sim.Spec
	sess *sim.Session // the session the sweep is submitted to

	store *replay.Store     // replay modes
	cache *shardcache.Cache // modeCached
	// storeTotal accumulates the stats of the per-sweep stores modeReplayCold
	// has discarded, so store counters survive the store they counted.
	storeTotal replay.Stats

	rig *dispatchRig // modeCoordinator
}

// dispatchRig is the in-process distributed deployment: a worker session
// behind a real HTTP server on loopback, a dispatcher over an HTTPBackend,
// a front session routed through the dispatcher, and a sweep coordinator
// submitting to the front session. Real TCP, HTTP and wire codec; no extra
// processes.
type dispatchRig struct {
	worker  *sim.Session
	srv     *http.Server
	served  chan struct{} // closed when Serve has returned
	client  *http.Client
	backend *dispatch.HTTPBackend
	disp    *dispatch.Dispatcher
	front   *sim.Session
	coord   *sweep.Coordinator
	// onShard, when non-nil, additionally receives every shard completion
	// of a coordinator-run sweep (the traced run's span source). The
	// coordinator's own progress hook keeps receiving them too.
	onShard sim.ShardDoneFunc
}

func newDispatchRig(workers int, workerCache *shardcache.Cache) (*dispatchRig, error) {
	r := &dispatchRig{worker: sim.NewSession(workers), served: make(chan struct{})}
	r.worker.SetCache(workerCache)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening for the loopback worker: %w", err)
	}
	r.srv = &http.Server{Handler: dispatch.WorkerHandler(r.worker, 0)}
	go func() {
		defer close(r.served)
		_ = r.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	r.client = &http.Client{Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
	}}
	r.backend = dispatch.NewHTTPBackend("http://"+ln.Addr().String(), r.client)
	r.disp, err = dispatch.New([]dispatch.Backend{r.backend}, dispatch.Options{MaxInFlight: workers})
	if err != nil {
		r.close()
		return nil, err
	}
	r.front = sim.NewSession(workers)
	r.front.SetRunner(r.disp)
	r.coord, err = sweep.New(sweep.Options{Run: r.run})
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// run is the coordinator's RunFunc: the front session's Run, with shard
// completions teed to onShard when the traced run set one.
func (r *dispatchRig) run(ctx context.Context, spec *sim.Spec) (*sim.Report, error) {
	if hook := r.onShard; hook != nil {
		outer := ctx
		ctx = sim.WithShardDone(ctx, func(sh sim.Shard, err error) {
			sim.ShardDone(outer, sh, err)
			hook(sh, err)
		})
	}
	return r.front.Run(ctx, spec)
}

// close stops the coordinator and the worker server and waits for both.
func (r *dispatchRig) close() {
	if r.coord != nil {
		r.coord.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.srv.Shutdown(ctx); err != nil {
		_ = r.srv.Close()
	}
	<-r.served
	r.client.CloseIdleConnections()
}

// coordPoll is how often a waiting client polls the coordinator.
const coordPoll = 500 * time.Microsecond

// coordSweep is one sweep as the coordinator's client saw it.
type coordSweep struct {
	rep    *sim.Report
	status sweep.Status  // the terminal status
	submit time.Duration // the Submit call alone
}

// sweepVia submits spec to the coordinator as its one client and polls
// until the sweep is terminal.
func (r *dispatchRig) sweepVia(ctx context.Context, spec *sim.Spec) (coordSweep, error) {
	t0 := time.Now()
	st, err := r.coord.Submit("bench", spec)
	out := coordSweep{status: st, submit: time.Since(t0)}
	if err != nil {
		return out, err
	}
	tick := time.NewTicker(coordPoll)
	defer tick.Stop()
	for {
		cur, ok := r.coord.Get(st.ID)
		if !ok {
			return out, fmt.Errorf("sweep %s vanished from the coordinator", st.ID)
		}
		out.status = cur
		if cur.State.Terminal() {
			if cur.State != sweep.StateDone {
				return out, fmt.Errorf("sweep %s ended %s: %s", cur.ID, cur.State, cur.Error)
			}
			out.rep, err = r.coord.Report(st.ID)
			return out, err
		}
		select {
		case <-ctx.Done():
			_, _ = r.coord.Cancel(st.ID)
			return out, ctx.Err()
		case <-tick.C:
		}
	}
}

// setup builds a fresh env for d and brings it to the state the timed
// sweeps start from: programs built and compiled, worker and coordinator
// running, cache or store pre-filled, one warm-up sweep done.
func setup(ctx context.Context, d *workloadDef, seed uint64, workers int, sz sizes) (*env, error) {
	e := &env{def: d, spec: d.spec(seed, sz), sess: sim.NewSession(workers)}
	var err error
	switch d.mode {
	case modeReplayWarm:
		if e.store, err = replay.New(replay.Options{}); err != nil {
			return nil, err
		}
		e.sess.SetTraceStore(e.store)
	case modeCached:
		if e.cache, err = shardcache.New(shardcache.Options{MaxEntries: 4096, MaxBytes: 256 << 20}); err != nil {
			return nil, err
		}
		e.sess.SetCache(e.cache)
	case modeCoordinator:
		if e.rig, err = newDispatchRig(workers, nil); err != nil {
			return nil, err
		}
		e.sess = e.rig.front
	}
	// Pre-fill: the sweep that leaves the store or cache holding the whole
	// grid. For the warm store this is a fresh-process cold replay sweep.
	if d.mode == modeReplayWarm || d.mode == modeCached {
		if _, err := e.sweep(ctx); err != nil {
			e.close()
			return nil, fmt.Errorf("pre-fill sweep: %w", err)
		}
	}
	if err := e.prepare(); err != nil {
		e.close()
		return nil, err
	}
	if _, err := e.sweep(ctx); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	return e, nil
}

// prepare is the untimed work before each sweep: the cold-replay workload
// swaps in a fresh empty store and collects the previous one, so every
// sweep records into new memory in a long-lived process.
func (e *env) prepare() error {
	if e.def.mode != modeReplayCold {
		return nil
	}
	if e.store != nil {
		st := e.store.Stats()
		e.storeTotal.Hits += st.Hits
		e.storeTotal.Misses += st.Misses
		e.storeTotal.Evictions += st.Evictions
	}
	st, err := replay.New(replay.Options{})
	if err != nil {
		return err
	}
	e.store = st
	e.sess.SetTraceStore(st)
	runtime.GC()
	return nil
}

// storeStats returns the trace-store counters accumulated over every store
// the env has used.
func (e *env) storeStats() replay.Stats {
	total := e.storeTotal
	if e.store != nil {
		st := e.store.Stats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Evictions += st.Evictions
	}
	return total
}

// sweep runs the workload's spec once, the way its researcher would: a
// Session.Run call, or a coordinator submit polled to a terminal state.
func (e *env) sweep(ctx context.Context) (*sim.Report, error) {
	if e.rig != nil {
		cs, err := e.rig.sweepVia(ctx, e.spec)
		return cs.rep, err
	}
	return e.sess.Run(ctx, e.spec)
}

// close releases the env's servers and drops its memory, returning freed
// pages to the OS so the next set-up faults its memory in afresh, as a new
// process would.
func (e *env) close() {
	if e.rig != nil {
		e.rig.close()
	}
	*e = env{}
	debug.FreeOSMemory()
}

// localReference runs d's spec on a plain local session: the reference the
// dispatched workload's reports must equal.
func localReference(ctx context.Context, d *workloadDef, seed uint64, workers int, sz sizes) (*sim.Report, error) {
	rep, err := sim.NewSession(workers).Run(ctx, d.spec(seed, sz))
	if err != nil {
		return nil, fmt.Errorf("local reference run: %w", err)
	}
	return rep, nil
}
