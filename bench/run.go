package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"rebalance/internal/sim"
)

// errIncorrect marks a run whose outputs failed a correctness check; the
// result line is still printed, and the process exits non-zero.
var errIncorrect = errors.New("bench: correctness check failed")

// runConfig is one single-workload invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	outDir   string // where trace files and temporary disk tiers go
	sz       sizes
	// start is when the process started, so the first set-up of a run
	// includes everything between process start and the first timed sweep.
	start time.Time
	log   io.Writer // human-readable progress and tables
}

// setProcs applies the fixed load shape: GOMAXPROCS = min(nproc, 4), and
// as many session workers, dispatcher slots and HTTP connections.
func setProcs() int {
	n := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(n)
	return n
}

// checker verifies every sweep of a run: the report's normalised digest
// must equal the reference (the run's first sweep, or for the dispatched
// workload a local run of the same spec) and, at the default seed and
// sizes, the digest committed in golden.json. Failures count in shards.
type checker struct {
	shardsPerSweep int
	reference      string // digest every sweep must equal; set by the first
	golden         string // committed digest, or "" when not applicable
	attempted      int
	failed         int
	firstErr       error
}

func newChecker(d *workloadDef, cfg *runConfig) (*checker, error) {
	spec := d.spec(cfg.seed, cfg.sz)
	shards, err := spec.GridSize()
	if err != nil {
		return nil, err
	}
	c := &checker{shardsPerSweep: shards}
	def := defaultSizes()
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	if cfg.seed == g.Seed && cfg.sz.insts == def.insts && cfg.sz.smallInsts == def.smallInsts {
		c.golden = g.Digests[d.name]
		if c.golden == "" {
			return nil, fmt.Errorf("golden.json has no digest for %s", d.name)
		}
	}
	return c, nil
}

func (c *checker) fail(n int, err error) {
	c.failed += n
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// expect pins the reference digest before any sweep is checked.
func (c *checker) expect(rep *sim.Report) error {
	dg, err := reportDigest(rep)
	if err != nil {
		return err
	}
	if c.reference != "" && c.reference != dg {
		return fmt.Errorf("reference digests differ: %s vs %s", c.reference, dg)
	}
	c.reference = dg
	return nil
}

// sweep accounts one sweep's outcome.
func (c *checker) sweep(rep *sim.Report, err error) {
	c.attempted += c.shardsPerSweep
	if err != nil {
		c.fail(c.shardsPerSweep, fmt.Errorf("sweep failed: %w", err))
		return
	}
	if n := len(rep.FailedShards); n > 0 {
		c.fail(n, fmt.Errorf("%d failed shards (first: %s)", n, rep.FailedShards[0].Error))
	}
	dg, err := reportDigest(rep)
	if err != nil {
		c.fail(c.shardsPerSweep, err)
		return
	}
	if c.reference == "" {
		c.reference = dg
	}
	switch {
	case dg != c.reference:
		c.fail(c.shardsPerSweep, fmt.Errorf("report digest %s differs from the reference %s", dg, c.reference))
	case c.golden != "" && dg != c.golden:
		c.fail(c.shardsPerSweep, fmt.Errorf("report digest %s differs from golden.json's %s", dg, c.golden))
	}
}

func (c *checker) failedRatio() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// timedSweep is the unit every end-to-end wall measures: spec in, report
// bytes out.
func timedSweep(ctx context.Context, e *env) (*sim.Report, time.Duration, error) {
	t0 := time.Now()
	rep, err := e.sweep(ctx)
	if err == nil {
		_, err = json.Marshal(rep)
	}
	return rep, time.Since(t0), err
}

// newWorkloadDoc is the result record of one run, metrics still to add.
func newWorkloadDoc(d *workloadDef, sweeps int, chk *checker) workloadDoc {
	return workloadDoc{
		Name: d.name, Why: d.why, Sweeps: sweeps, ShardsPerSweep: chk.shardsPerSweep, Window: d.window,
		TailPercentile: tailPercentile(sweeps), Digests: []string{chk.reference},
		Attempted: chk.attempted, Failed: chk.failed, Correct: chk.failed == 0 && chk.attempted > 0,
	}
}

// runTimed is the untraced run: set up (several times, for a steady
// setup_s), then a fixed number of timed sweeps, each verified. The time
// metrics are read off the calmest window of the run (see calmest); the
// whole-run figures, the host's interference included, go beside them.
func runTimed(ctx context.Context, cfg *runConfig) (*workloadDoc, error) {
	d, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	workers := setProcs()
	chk, err := newChecker(d, cfg)
	if err != nil {
		return nil, err
	}

	var e *env
	var setups []float64
	var spent time.Duration
	for i := 0; i < cfg.sz.setupReps || (i < setupMaxReps && spent < setupBudget); i++ {
		t0 := cfg.start
		if e != nil {
			e.close()
			t0 = time.Now()
		}
		if e, err = setup(ctx, d, cfg.seed, workers, cfg.sz); err != nil {
			return nil, fmt.Errorf("setting up %s: %w", d.name, err)
		}
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
	}
	defer e.close()

	if d.mode == modeCoordinator {
		ref, err := localReference(ctx, d, cfg.seed, workers, cfg.sz)
		if err != nil {
			return nil, err
		}
		if err := chk.expect(ref); err != nil {
			return nil, err
		}
	}

	n := cfg.sz.sweepCount(d, cfg.seconds)
	walls := make([]float64, 0, n) // ms, in the order the sweeps ran
	insts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if err := e.prepare(); err != nil {
			return nil, err
		}
		rep, wall, err := timedSweep(ctx, e)
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%s: sweep %d of %d: %w", d.name, i+1, n, ctx.Err())
		}
		chk.sweep(rep, err)
		if err != nil {
			continue
		}
		walls = append(walls, float64(wall.Nanoseconds())/1e6)
		insts = append(insts, float64(rep.TotalInsts))
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("%s: every sweep failed: %w", d.name, chk.firstErr)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	doc := newWorkloadDoc(d, n, chk)
	best := calmest(walls, insts, d.window)
	values := map[string]float64{
		"setup_s":                median(setups),
		"sweep_wall_ms_p50":      best.p50,
		"sweep_wall_ms_tail":     best.tail,
		"throughput_minst_per_s": best.throughput,
		"peak_rss_mb":            rss,
	}
	for _, m := range endToEndDefs {
		row := metricRow{Name: m.name, Unit: m.unit, Better: m.better, Bound: d.bounds[m.name], Values: []float64{values[m.name]}}
		row.summarize()
		doc.EndToEnd = append(doc.EndToEnd, row)
	}
	var wallSum, instSum float64
	for i := range walls {
		wallSum += walls[i]
		instSum += insts[i]
	}
	for _, r := range []metricRow{
		{Name: "whole.sweep_wall_ms_p50", Unit: "ms", Values: []float64{median(walls)}},
		{Name: "whole.sweep_wall_ms_tail", Unit: "ms", Values: []float64{percentile(walls, doc.TailPercentile)}},
		{Name: "whole.throughput_minst_per_s", Unit: "Minst/s", Values: []float64{instSum / 1e3 / wallSum}},
	} {
		r.summarize()
		doc.WholeRun = append(doc.WholeRun, r)
	}
	q1, q2, q3 := quartiles(walls)
	fmt.Fprintf(cfg.log, "%s: %d sweeps, wall ms min %.3f q1 %.3f median %.3f q3 %.3f max %.3f; set-ups %.3v s\n",
		d.name, n, minOf(walls), q1, q2, q3, percentile(walls, 100), setups)
	if chk.firstErr != nil {
		return &doc, fmt.Errorf("%w: %s: %v", errIncorrect, d.name, chk.firstErr)
	}
	return &doc, nil
}
