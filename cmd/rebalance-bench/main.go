// Command rebalance-bench is the command-line sweep client, a thin client
// of the declarative run layer (internal/sim): its flags build one sim.Spec
// for the {workload x seed x predictor-config} grid, and the sweep runs in
// one of two places — this process's local pool, or a simd front door —
// whose *sim.Report is written out as the sim/v1 document: the same
// document simd's POST /v1/runs serves, which sim.DecodeReport reads back
// and re-marshals byte for byte.
// Performance measurement lives in the bench/ harness (`go run ./bench`),
// not here.
//
// By default the grid runs on this process's local pool of -workers
// goroutines (`workers` in the report is the pool the plan sized).
//
// With -coordinator the sweep runs on a simd front door instead, with one
// POST /v1/runs tagged with -tenant: the front door runs the spec as a
// sweep, waits on it and answers with its report, which the client writes
// out unchanged; on the interim 103 naming the sweep, the client logs one
// line naming where its progress can be read (GET /v1/sweeps/{id}). A
// worker fleet is the front door's: `simd -backends w1,w2` dispatches the
// grid to `simd -worker` processes (with -hedge, if asked), resolves it
// against its shared result cache first, and answers with a report
// bit-identical, up to the fields (*sim.Report).Stripped clears, to the
// same sweep run locally — with `workers: 0`, the concurrency being the
// backends'.
// SIGINT/SIGTERM cancels a local sweep; on a front door it hangs up, and
// the front door cancels the sweep.
//
// With -synth the sweep additionally (or, when -workloads is omitted,
// exclusively) covers a grid of synthetic scenarios: ';'-separated knob
// axes of ','-separated values expand by cross product into synth/v1
// parameter sets that travel inline in the spec — to a front door and on
// to its workers, which build the exact same programs.
// `-synth bias=0.6,0.8,0.95` sweeps the biased-branch fraction over three
// scenarios; see parseSynthGrid for the axis list.
//
// Usage:
//
//	rebalance-bench [-workloads comd-lite,xalan-lite] [-seeds 4]
//	                [-synth "bias=0.6,0.8,0.95;hot=0.25,0.75"]
//	                [-insts 2000000] [-workers N]
//	                [-coordinator http://front:8080] [-tenant bench]
//	                [-allow-partial] [-out report.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"net/textproto"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"rebalance/internal/sim"
	"rebalance/internal/wire"
	"rebalance/internal/workload"
	"rebalance/internal/workload/synth"
)

// options are one invocation's flag values.
type options struct {
	workloads, synth    string
	seeds               int
	insts               int64
	workers             int
	coordinator, tenant string
	allowPartial        bool
	out                 string
}

func main() {
	var o options
	flag.StringVar(&o.workloads, "workloads", "", "comma-separated workload names (default: every built-in workload, or none when -synth is given)")
	flag.StringVar(&o.synth, "synth", "", "synthetic-scenario grid: ';'-separated axes of ','-separated values, e.g. \"bias=0.6,0.8,0.95;hot=0.25,0.75\"")
	flag.IntVar(&o.seeds, "seeds", 4, "seeds per {workload, predictor} pair")
	flag.Int64Var(&o.insts, "insts", 2_000_000, "dynamic instructions per shard")
	flag.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "local pool size")
	flag.StringVar(&o.coordinator, "coordinator", "", "simd front door URL; run the sweep there with one POST /v1/runs and write the report it answers")
	flag.StringVar(&o.tenant, "tenant", "bench", "tenant name submitted with -coordinator sweeps")
	flag.BoolVar(&o.allowPartial, "allow-partial", false, "degrade instead of failing when shards exhaust their retries: completed shards are reported, abandoned ones become failed_shards entries")
	flag.StringVar(&o.out, "out", "", "write the JSON report to this file (default stdout)")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, o, os.Stderr)
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

// run builds the sweep's Spec from the flag values, runs it on the local
// pool or through the -coordinator front door, and writes the resulting
// report as indented sim/v1 JSON to o.out (stdout when empty). Progress and
// warnings go to log.
func run(ctx context.Context, o options, log io.Writer) error {
	if o.seeds < 1 || o.insts < 1 || o.workers < 1 {
		return fmt.Errorf("seeds, insts, and workers must be positive")
	}
	if o.coordinator != "" && o.tenant == "" {
		return fmt.Errorf("-coordinator needs a non-empty -tenant")
	}
	var names []string
	var err error
	if o.workloads != "" {
		names, err = parseWorkloads(o.workloads)
		if err != nil {
			return err
		}
	}
	var synthSets []synth.Params
	if o.synth != "" {
		synthSets, err = parseSynthGrid(o.synth)
		if err != nil {
			return err
		}
	}
	// No explicit selection: sweep every built-in workload. An
	// explicit -synth without -workloads sweeps only the synth grid.
	if len(names) == 0 && len(synthSets) == 0 {
		names = workload.Names()
	}
	specWorkloads := append([]string(nil), names...)
	for i := range synthSets {
		specWorkloads = append(specWorkloads, synthSets[i].Name)
	}

	// The whole sweep is one declarative Spec: the grid of every
	// predictor configuration over every workload (built-in and
	// synthetic) and seed.
	spec := &sim.Spec{
		Workloads:    specWorkloads,
		Synth:        synthSets,
		SeedCount:    o.seeds,
		Insts:        o.insts,
		Observers:    []sim.ObserverSpec{{Kind: "bpred"}},
		AllowPartial: o.allowPartial,
	}
	var rep *sim.Report
	if o.coordinator != "" {
		rep, err = runCoordinatorSweep(ctx, o.coordinator, o.tenant, spec, log)
	} else {
		rep, err = sim.NewSession(o.workers).Run(ctx, spec)
	}
	if err != nil {
		return err
	}
	if n := len(rep.FailedShards); n > 0 {
		fmt.Fprintf(log, "rebalance-bench: warning: degraded sweep: %d of %d shards abandoned after retries; merged results cover survivors only\n",
			n, n+len(rep.Shards))
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if o.out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(o.out, enc, 0o644)
}

// maxCoordRespBytes bounds the front door's answer. A report scales with
// the grid, so the bound matches the dispatch layer's shard ceiling rather
// than a spec's.
const maxCoordRespBytes = 64 << 20

// runCoordinatorSweep runs spec on a simd front door as tenant with one
// POST /v1/runs: the front door runs it as a sweep, waits on it and answers
// with its report, which decodes here to a report that re-marshals to the
// bytes served. On the interim 103, whose Location is the sweep, it logs
// one line naming where its progress can be read. Cancelling ctx hangs up,
// and the front door cancels the sweep.
func runCoordinatorSweep(ctx context.Context, base, tenant string, spec *sim.Spec, log io.Writer) (*sim.Report, error) {
	shards, err := spec.GridSize()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("marshalling spec: %w", err)
	}
	base = strings.TrimRight(base, "/")
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{Got1xxResponse: func(code int, h textproto.MIMEHeader) error {
		if loc := h.Get("Location"); code == http.StatusEarlyHints && loc != "" {
			fmt.Fprintf(log, "rebalance-bench: running %d shards on %s as tenant %q; progress: GET %s%s\n",
				shards, base, tenant, base, loc)
		}
		return nil
	}})
	data, status, err := wire.Do(ctx, http.DefaultClient, http.MethodPost, base+"/v1/runs?tenant="+url.QueryEscape(tenant), body, maxCoordRespBytes)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("front door status %d: %s", status, wire.ErrorMessage(data))
	}
	return sim.DecodeReport(data)
}
