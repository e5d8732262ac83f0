// Command rebalance-bench is the parallel sweep client, built as a thin
// client of the declarative run layer (internal/sim): it submits a Spec
// for the {workload x seed x predictor-config} grid to a sim.Session and
// reshapes the sim/v1 report into the rebalance-bench/v1 record the CI
// smokes compare. Performance measurement lives in the bench/ harness
// (`go run ./bench`), not here.
//
// With -backends the sweep's shard grid is dispatched to remote simd
// worker processes (started with `simd -worker`) instead of the local
// pool: shards fan out with bounded in-flight, retry with backoff, and
// failover, and the merged report is bit-identical (up to timing fields)
// to the same sweep run locally.
//
// With -synth the sweep additionally (or, when -workloads is omitted,
// exclusively) covers a grid of synthetic scenarios: ';'-separated knob
// axes of ','-separated values expand by cross product into synth/v1
// parameter sets that travel inline in the spec — and, with -backends,
// over the worker protocol, so remote workers build the exact same
// programs. `-synth bias=0.6,0.8,0.95` sweeps the biased-branch fraction
// over three scenarios; see parseSynthGrid for the axis list.
//
// With -coordinator the sweep is submitted asynchronously to a simd
// coordinator's /v1/sweeps API instead of executing anywhere in this
// process: the client submits the spec (tagged with -tenant), polls the
// sweep's progress, fetches the final report when it lands, and reshapes
// it exactly as if it had run the sweep itself — the report is
// byte-identical up to timing fields, by the coordinator's contract.
//
// With -trace-entries or -trace-dir the local pool materializes each
// (workload, seed) coordinate's instruction stream once and replays it
// through every other observer configuration of that coordinate (see
// internal/trace/replay); -trace-dir persists the traces across runs.
//
// Usage:
//
//	rebalance-bench [-workloads comd-lite,xalan-lite] [-seeds 4]
//	                [-synth "bias=0.6,0.8,0.95;hot=0.25,0.75"]
//	                [-insts 2000000] [-workers N]
//	                [-backends http://host1:8080,http://host2:8080]
//	                [-coordinator http://front:8080] [-tenant bench]
//	                [-trace-entries 64] [-trace-dir DIR]
//	                [-out report.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"rebalance/internal/bpred"
	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
	"rebalance/internal/stats"
	"rebalance/internal/trace/replay"
	"rebalance/internal/workload"
	"rebalance/internal/workload/synth"
)

// benchShard is the JSON record for one completed shard.
type benchShard struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Predictor string `json:"predictor"`
	CostBits  int    `json:"cost_bits"`
	Insts     int64  `json:"insts"`
	// ElapsedNS and MInstsPerSec describe the pass the shard rode, not a
	// private run: the predictors of a (workload, seed) coordinate share one
	// walk of its stream, so they all report that walk's time and rate. The
	// sweep-level rates below are the ones that add up.
	ElapsedNS    int64   `json:"elapsed_ns"`
	MInstsPerSec float64 `json:"minsts_per_sec"`
	MPKI         float64 `json:"mpki"`
	MPKISerial   float64 `json:"mpki_serial"`
	MPKIParallel float64 `json:"mpki_parallel"`
	MissRate     float64 `json:"miss_rate"`
}

// benchAggregate folds one predictor's shards (all seeds) on one workload:
// the mean-of-MPKIs (matching how multi-run figures are averaged) and the
// count-merged MPKI (exact pooled counters via the sim result merge).
type benchAggregate struct {
	Workload   string  `json:"workload"`
	Predictor  string  `json:"predictor"`
	Seeds      int     `json:"seeds"`
	MeanMPKI   float64 `json:"mean_mpki"`
	MergedMPKI float64 `json:"merged_mpki"`
	// MeanMInstsPS averages the shards' pass rates (see benchShard): how
	// fast the passes this predictor rode went, not its own cost.
	MeanMInstsPS float64 `json:"mean_minsts_per_sec"`
}

type report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	// GOMAXPROCS and Workers describe this process's local pool. A
	// dispatched run's concurrency lives on the workers, so Workers is 0
	// there and Dispatched labels the run explicitly — per-worker rates
	// must never be derived from a zero worker count.
	GOMAXPROCS    int          `json:"gomaxprocs"`
	Workers       int          `json:"workers"`
	Dispatched    bool         `json:"dispatched,omitempty"`
	InstsPerShard int64        `json:"insts_per_shard"`
	Workloads     []string     `json:"workloads"`
	Seeds         int          `json:"seeds"`
	Shards        []benchShard `json:"shards"`
	// FailedShards lists grid cells abandoned after exhausting retries —
	// only ever non-empty under -allow-partial, and absent from clean
	// runs.
	FailedShards  []sim.FailedShard `json:"failed_shards,omitempty"`
	Aggregates    []benchAggregate  `json:"aggregates"`
	TotalInsts    int64             `json:"total_insts"`
	WallNS        int64             `json:"wall_ns"`
	SweepMInstsPS float64           `json:"sweep_minsts_per_sec"`
	// PerWorkerMInstsPS is the sweep rate divided by the local pool as the
	// plan sized it (Workers: at most one worker per scheduling unit, which
	// can be fewer than -workers asked for); 0 (omitted) for dispatched
	// runs, where the divisor is meaningless.
	PerWorkerMInstsPS float64 `json:"per_worker_minsts_per_sec,omitempty"`
}

func main() {
	var (
		workloadsFlag = flag.String("workloads", "", "comma-separated workload names (default: every registered workload, or none when -synth is given)")
		synthFlag     = flag.String("synth", "", "synthetic-scenario grid: ';'-separated axes of ','-separated values, e.g. \"bias=0.6,0.8,0.95;hot=0.25,0.75\"")
		seedsFlag     = flag.Int("seeds", 4, "seeds per {workload, predictor} pair")
		instsFlag     = flag.Int64("insts", 2_000_000, "dynamic instructions per shard")
		workersFlag   = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines")
		backendsFlag  = flag.String("backends", "", "comma-separated simd worker URLs; dispatch shards remotely instead of running locally")
		coordFlag     = flag.String("coordinator", "", "simd coordinator URL; submit the sweep asynchronously to its /v1/sweeps API and poll for the result")
		tenantFlag    = flag.String("tenant", "bench", "tenant name submitted with -coordinator sweeps")
		partialFlag   = flag.Bool("allow-partial", false, "degrade instead of failing when shards exhaust their retries: completed shards are reported, abandoned ones become failed_shards entries")
		hedgeFlag     = flag.Bool("hedge", false, "with -backends, duplicate straggling shards onto a second healthy worker after a latency-derived delay; first result wins")
		traceEntsFlag = flag.Int("trace-entries", 0, "materialized trace store for the local pool: max in-memory traces (0 disables replay; -trace-dir alone enables it with the default bound)")
		traceDirFlag  = flag.String("trace-dir", "", "persist materialized traces under this directory (implies replay; survives restarts)")
		outFlag       = flag.String("out", "", "write the JSON report to this file (default stdout)")
	)
	flag.Parse()
	err := run(*workloadsFlag, *synthFlag, *seedsFlag, *instsFlag, *workersFlag, *backendsFlag, *coordFlag, *tenantFlag, *partialFlag, *hedgeFlag, *traceEntsFlag, *traceDirFlag, *outFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rebalance-bench:", err)
		os.Exit(1)
	}
}

// parseWorkloads splits and trims the -workloads CSV, rejecting empty and
// duplicate names so a typo cannot silently run duplicate shard grids.
func parseWorkloads(csv string) ([]string, error) {
	parts := strings.Split(csv, ",")
	names := make([]string, 0, len(parts))
	seen := map[string]bool{}
	for _, p := range parts {
		name := strings.TrimSpace(p)
		if name == "" {
			return nil, fmt.Errorf("empty workload name in -workloads %q", csv)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate workload %q in -workloads %q", name, csv)
		}
		seen[name] = true
		names = append(names, name)
	}
	return names, nil
}

func run(workloadsCSV, synthCSV string, seeds int, insts int64, workers int, backendsCSV, coordinator, tenant string, allowPartial, hedge bool, traceEntries int, traceDir, out string) error {
	if seeds < 1 || insts < 1 || workers < 1 {
		return fmt.Errorf("seeds, insts, and workers must be positive")
	}
	if hedge && backendsCSV == "" {
		return fmt.Errorf("-hedge needs -backends: a local pool has no second worker to duplicate stragglers onto")
	}
	if (traceEntries > 0 || traceDir != "") && (backendsCSV != "" || coordinator != "") {
		return fmt.Errorf("-trace-entries/-trace-dir apply to the local pool: a dispatched sweep's traces live on its workers")
	}
	if coordinator != "" && backendsCSV != "" {
		return fmt.Errorf("-coordinator and -backends are mutually exclusive: the coordinator owns its own worker fleet")
	}
	if coordinator != "" && tenant == "" {
		return fmt.Errorf("-coordinator needs a non-empty -tenant")
	}
	var names []string
	var err error
	if workloadsCSV != "" {
		names, err = parseWorkloads(workloadsCSV)
		if err != nil {
			return err
		}
	}
	var synthSets []synth.Params
	if synthCSV != "" {
		synthSets, err = parseSynthGrid(synthCSV)
		if err != nil {
			return err
		}
	}
	// No explicit selection: sweep every registered workload. An
	// explicit -synth without -workloads sweeps only the synth grid.
	if len(names) == 0 && len(synthSets) == 0 {
		names = workload.Names()
	}
	specWorkloads := append([]string(nil), names...)
	for i := range synthSets {
		specWorkloads = append(specWorkloads, synthSets[i].Name)
	}

	// The whole sweep is one declarative Spec: the grid of every
	// registered predictor configuration over every workload (registered
	// and synthetic) and seed.
	sess := sim.NewSession(workers)
	if traceEntries > 0 || traceDir != "" {
		traces, err := replay.New(replay.Options{MaxEntries: traceEntries, Dir: traceDir})
		if err != nil {
			return err
		}
		sess.SetTraceStore(traces)
	}
	if backendsCSV != "" {
		backends, err := dispatch.ParseBackends(backendsCSV, dispatch.DefaultClient())
		if err != nil {
			return err
		}
		d, err := dispatch.New(backends, dispatch.Options{MaxInFlight: workers, Hedge: hedge})
		if err != nil {
			return err
		}
		sess.SetRunner(d)
	}
	spec := &sim.Spec{
		Workloads:    specWorkloads,
		Synth:        synthSets,
		SeedCount:    seeds,
		Insts:        insts,
		Observers:    []sim.ObserverSpec{{Kind: "bpred"}},
		AllowPartial: allowPartial,
	}
	var simRep *sim.Report
	if coordinator != "" {
		simRep, err = runCoordinatorSweep(context.Background(), coordinator, tenant, spec, 200*time.Millisecond)
	} else {
		simRep, err = sess.Run(context.Background(), spec)
	}
	if err != nil {
		return err
	}
	if n := len(simRep.FailedShards); n > 0 {
		fmt.Fprintf(os.Stderr, "rebalance-bench: warning: degraded sweep: %d of %d shards abandoned after retries; aggregates cover survivors only\n",
			n, n+len(simRep.Shards))
	}

	rep, err := buildReport(simRep, backendsCSV != "" || coordinator != "")
	if err != nil {
		return err
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

// buildReport reshapes a sim/v1 report of bpred shards into the
// rebalance-bench/v1 record. dispatched marks a sweep that ran on remote
// backends (-backends), where simRep.Workers is 0 by contract.
func buildReport(simRep *sim.Report, dispatched bool) (*report, error) {
	shards := make([]benchShard, 0, len(simRep.Shards))
	for i := range simRep.Shards {
		sh := &simRep.Shards[i]
		r, ok := sh.Result.(*bpred.Result)
		if !ok {
			return nil, fmt.Errorf("shard %s/%s: unexpected result type %T", sh.Workload, sh.Observer, sh.Result)
		}
		b := benchShard{
			Workload:     sh.Workload,
			Seed:         sh.Seed,
			Predictor:    r.Name,
			CostBits:     r.CostBits,
			Insts:        sh.Insts,
			ElapsedNS:    sh.ElapsedNS,
			MPKI:         r.MPKI(),
			MPKISerial:   r.MPKISerial(),
			MPKIParallel: r.MPKIParallel(),
			MissRate:     r.MissRate(),
		}
		if sh.ElapsedNS > 0 {
			b.MInstsPerSec = float64(b.Insts) / (float64(sh.ElapsedNS) / 1e9) / 1e6
		}
		shards = append(shards, b)
	}
	sort.Slice(shards, func(i, j int) bool {
		a, b := &shards[i], &shards[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Predictor != b.Predictor {
			return a.Predictor < b.Predictor
		}
		return a.Seed < b.Seed
	})

	// Exact pooled counters come from the sim layer's merge.
	mergedMPKI := map[[2]string]float64{}
	for i := range simRep.Merged {
		m := &simRep.Merged[i]
		if r, ok := m.Result.(*bpred.Result); ok {
			mergedMPKI[[2]string{m.Workload, r.Name}] = r.MPKI()
		}
	}

	type accum struct {
		mpkis []float64
		rates []float64
	}
	order := [][2]string{}
	acc := map[[2]string]*accum{}
	for i := range shards {
		s := &shards[i]
		k := [2]string{s.Workload, s.Predictor}
		a := acc[k]
		if a == nil {
			a = &accum{}
			acc[k] = a
			order = append(order, k)
		}
		a.mpkis = append(a.mpkis, s.MPKI)
		a.rates = append(a.rates, s.MInstsPerSec)
	}
	aggs := make([]benchAggregate, 0, len(order))
	for _, k := range order {
		a := acc[k]
		aggs = append(aggs, benchAggregate{
			Workload:     k[0],
			Predictor:    k[1],
			Seeds:        len(a.mpkis),
			MeanMPKI:     stats.Average(a.mpkis),
			MergedMPKI:   mergedMPKI[k],
			MeanMInstsPS: stats.Average(a.rates),
		})
	}

	// Workers describes this process's pool. A dispatched sweep ran
	// elsewhere — on remote workers, or (through a coordinator) on another
	// process entirely, whose report may carry its own pool size — so the
	// field is 0 by the documented contract, never a borrowed figure.
	workers := simRep.Workers
	if dispatched {
		workers = 0
	}
	rep := &report{
		Schema:        "rebalance-bench/v1",
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Workers:       workers,
		Dispatched:    dispatched,
		InstsPerShard: simRep.Spec.Insts,
		Workloads:     simRep.Spec.Workloads,
		Seeds:         len(simRep.Spec.Seeds),
		Shards:        shards,
		FailedShards:  simRep.FailedShards,
		Aggregates:    aggs,
		TotalInsts:    simRep.TotalInsts,
		WallNS:        simRep.WallNS,
	}
	if simRep.WallNS > 0 {
		rep.SweepMInstsPS = float64(rep.TotalInsts) / (float64(simRep.WallNS) / 1e9) / 1e6
	}
	// Per-worker throughput only exists for a local pool: a dispatched
	// run reports Workers == 0, and dividing by it would be a zero
	// divisor (or, with a stale fallback, nonsense attributed to this
	// process).
	if !dispatched && rep.Workers > 0 {
		rep.PerWorkerMInstsPS = rep.SweepMInstsPS / float64(rep.Workers)
	}
	return rep, nil
}
