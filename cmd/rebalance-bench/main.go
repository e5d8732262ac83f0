// Command rebalance-bench is the command-line sweep client, a thin client
// of the declarative run layer (internal/sim): its flags build one sim.Spec
// for the {workload x seed x predictor-config} grid, one of three executors
// answers it with a *sim.Report, and that report is written out as the
// sim/v1 document — the same document simd's POST /v1/runs and
// GET /v1/sweeps/{id}/result serve, which sim.DecodeReport reads back and
// re-marshals byte for byte. Performance measurement lives in the bench/
// harness (`go run ./bench`), not here.
//
// By default the grid runs on this process's local pool (`workers` in the
// report is the pool the plan sized).
//
// With -backends the sweep's shard grid is dispatched to remote simd
// worker processes (started with `simd -worker`) instead of the local
// pool: the grid is planned into units (a coordinate's shards, one worker
// call each), at most -workers units are in flight, a unit's failed
// members retry with backoff and failover, and the report is bit-identical (up to the fields
// (*sim.Report).Stripped clears) to the same sweep run locally. A
// dispatched report carries `workers: 0`: the concurrency belongs to the
// backends.
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
// sweep's progress, fetches the final report when it lands and writes it
// out unchanged. SIGINT/SIGTERM cancels a local or dispatched sweep, and
// asks the coordinator to cancel a submitted one.
//
// Usage:
//
//	rebalance-bench [-workloads comd-lite,xalan-lite] [-seeds 4]
//	                [-synth "bias=0.6,0.8,0.95;hot=0.25,0.75"]
//	                [-insts 2000000] [-workers N]
//	                [-backends http://host1:8080,http://host2:8080]
//	                [-coordinator http://front:8080] [-tenant bench]
//	                [-allow-partial] [-hedge] [-out report.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
	"rebalance/internal/workload"
	"rebalance/internal/workload/synth"
)

func main() {
	var (
		workloadsFlag = flag.String("workloads", "", "comma-separated workload names (default: every registered workload, or none when -synth is given)")
		synthFlag     = flag.String("synth", "", "synthetic-scenario grid: ';'-separated axes of ','-separated values, e.g. \"bias=0.6,0.8,0.95;hot=0.25,0.75\"")
		seedsFlag     = flag.Int("seeds", 4, "seeds per {workload, predictor} pair")
		instsFlag     = flag.Int64("insts", 2_000_000, "dynamic instructions per shard")
		workersFlag   = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines: local pool size, units in flight with -backends")
		backendsFlag  = flag.String("backends", "", "comma-separated simd worker URLs; dispatch shards remotely instead of running locally")
		coordFlag     = flag.String("coordinator", "", "simd coordinator URL; submit the sweep asynchronously to its /v1/sweeps API and poll for the result")
		tenantFlag    = flag.String("tenant", "bench", "tenant name submitted with -coordinator sweeps")
		partialFlag   = flag.Bool("allow-partial", false, "degrade instead of failing when shards exhaust their retries: completed shards are reported, abandoned ones become failed_shards entries")
		hedgeFlag     = flag.Bool("hedge", false, "with -backends, duplicate straggling units onto a second healthy worker after a latency-derived delay; first result wins")
		outFlag       = flag.String("out", "", "write the JSON report to this file (default stdout)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, *workloadsFlag, *synthFlag, *seedsFlag, *instsFlag, *workersFlag, *backendsFlag, *coordFlag, *tenantFlag, *partialFlag, *hedgeFlag, *outFlag)
	stop()
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

// run builds the sweep's Spec from the flag values, executes it on the
// selected executor, and writes the resulting report as indented sim/v1
// JSON to out (stdout when empty).
func run(ctx context.Context, workloadsCSV, synthCSV string, seeds int, insts int64, workers int, backendsCSV, coordinator, tenant string, allowPartial, hedge bool, out string) error {
	if seeds < 1 || insts < 1 || workers < 1 {
		return fmt.Errorf("seeds, insts, and workers must be positive")
	}
	if hedge && backendsCSV == "" {
		return fmt.Errorf("-hedge needs -backends: a local pool has no second worker to duplicate stragglers onto")
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
	spec := &sim.Spec{
		Workloads:    specWorkloads,
		Synth:        synthSets,
		SeedCount:    seeds,
		Insts:        insts,
		Observers:    []sim.ObserverSpec{{Kind: "bpred"}},
		AllowPartial: allowPartial,
	}
	var rep *sim.Report
	if coordinator != "" {
		rep, err = runCoordinatorSweep(ctx, coordinator, tenant, spec, 200*time.Millisecond)
	} else {
		sess := sim.NewSession(workers)
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
		rep, err = sess.Run(ctx, spec)
	}
	if err != nil {
		return err
	}
	if n := len(rep.FailedShards); n > 0 {
		fmt.Fprintf(os.Stderr, "rebalance-bench: warning: degraded sweep: %d of %d shards abandoned after retries; merged results cover survivors only\n",
			n, n+len(rep.Shards))
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
