// Command bench is this repository's benchmark: five sweep workloads, five
// end-to-end metrics with regression bounds, a correctness check on every
// sweep, and a separate traced run that fills a per-layer table. It measures
// every layer from outside, by timing calls into exported functions; see
// README.md in this directory.
//
//	go run ./bench -workload fig5-generate            one timed run
//	go run ./bench -workload fig5-generate -trace 1   one traced run (layer table)
//	go run ./bench -workload all -runs 10 > A.json    every workload, ten runs each
//	go run ./bench -compare A.json B.json             verdict per workload x metric
//
// A single-workload run prints two lines on stdout: its bench/v2 document,
// then the driver's summary object {correct, attempted, failed, metrics}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// runDeadline bounds one single-workload run, so a wedged sweep fails the
// run instead of hanging it.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(realMain(time.Now(), os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(start time.Time, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or \"all\" to run each in its own process")
	seed := fs.Uint64("seed", 1, "workload seed S; stream seeds are S..S+3")
	seconds := fs.Int("seconds", nominalSeconds, "nominal run length; sweep counts scale with it and are never time-boxed")
	trace := fs.Int("trace", 0, "1 runs the traced run (per-layer metrics) instead of the timed run (end-to-end metrics)")
	runs := fs.Int("runs", 1, "with -workload all: runs per workload, run i at seed S+i")
	compare := fs.Bool("compare", false, "compare two bench/v2 documents: -compare A.json B.json")
	outDir := fs.String("out", "bench/out", "directory for trace files and temporary disk tiers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two documents: -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: unexpected arguments, non-positive -seconds or -runs, or -trace not 0 or 1")
		return 2
	}
	if *workload == "all" {
		return runAll(*seed, *seconds, *trace, *runs, *outDir, stdout, stderr)
	}

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	cfg := &runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		outDir: *outDir, sz: defaultSizes(), start: start, log: stderr,
	}
	run := runTimed
	if cfg.traced {
		run = runTraced
	}
	w, err := run(ctx, cfg)
	if w == nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	doc := &document{
		Schema: schemaV2, Host: hostFingerprint(), Seed: cfg.seed, Seconds: cfg.seconds,
		Runs: 1, Traced: cfg.traced, Workloads: []workloadDoc{*w},
	}
	if werr := writeResult(stdout, doc); werr != nil {
		fmt.Fprintf(stderr, "bench: %v\n", werr)
		return 1
	}
	printTable(stderr, doc)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// summary is the last line of a single-workload run: what the driver reads.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult prints the run's document on one line and the summary on the
// next. The summary carries the end-to-end metrics of a timed run or the
// per-layer metrics of a traced one.
func writeResult(w io.Writer, doc *document) error {
	enc, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	wl := &doc.Workloads[0]
	rows := wl.EndToEnd
	if doc.Traced {
		rows = wl.PerLayer
	}
	s := summary{Correct: wl.Correct, Attempted: wl.Attempted, Failed: wl.Failed, Metrics: map[string]summaryValue{}}
	for _, r := range rows {
		s.Metrics[r.Name] = summaryValue{Value: r.Median, Unit: r.Unit}
	}
	last, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", enc, last)
	return err
}

// runAll runs every workload in a process of its own, so peak RSS and GC
// state are per workload, and merges the children's documents into one.
// Run i of a workload uses seed S+i.
func runAll(seed uint64, seconds, trace, runs int, outDir string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: locating the bench binary: %v\n", err)
		return 1
	}
	setProcs() // so the fingerprint records the GOMAXPROCS the children run at
	all := &document{Schema: schemaV2, Host: hostFingerprint(), Seed: seed, Seconds: seconds, Runs: runs, Traced: trace == 1}
	code := 0
	for i := 0; i < runs; i++ {
		for _, d := range workloads {
			cmd := exec.Command(exe, "-workload", d.name, "-seed", strconv.FormatUint(seed+uint64(i), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", outDir)
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = stderr
			runErr := cmd.Run()
			line, _, _ := bytes.Cut(out.Bytes(), []byte("\n"))
			child, err := decodeDocument(line)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s run %d: %v (%v)\n", d.name, i, err, runErr)
				return 1
			}
			if runErr != nil {
				code = 1
			}
			if err := all.merge(child); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
	}
	if err := checkMixed9Digests(all); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		code = 1
	}
	enc, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", enc)
	printTable(stderr, all)
	return code
}

// checkMixed9Digests is the cross-mode identity check: generate-then-cache,
// warm replay and cold replay of the mixed9 grid at one seed must produce
// the same normalised report.
func checkMixed9Digests(doc *document) error {
	var first *workloadDoc
	for i := range doc.Workloads {
		w := &doc.Workloads[i]
		d, err := findWorkload(w.Name)
		if err != nil {
			return err
		}
		if !d.mixed || d.small {
			continue
		}
		if first == nil {
			first = w
			continue
		}
		for run := range w.Digests {
			if run < len(first.Digests) && w.Digests[run] != first.Digests[run] {
				return fmt.Errorf("%w: run %d: %s digest %s differs from %s digest %s",
					errIncorrect, run, w.Name, w.Digests[run], first.Name, first.Digests[run])
			}
		}
	}
	if first == nil {
		return errors.New("no mixed9 workload in the document")
	}
	return nil
}

// printTable renders a document for people: one block per workload.
func printTable(w io.Writer, doc *document) {
	fmt.Fprintf(w, "%s  %s  GOMAXPROCS=%d nproc=%d  %s  git %s\n", doc.Schema, doc.Host.GoVersion,
		doc.Host.GOMAXPROCS, doc.Host.NumCPU, doc.Host.CPUModel, doc.Host.GitHead)
	for _, wl := range doc.Workloads {
		fmt.Fprintf(w, "\n%s  (%d sweeps x %d shards in windows of %d, whole-run tail = p%d, failed %d of %d shards, digest %.12s)\n",
			wl.Name, wl.Sweeps, wl.ShardsPerSweep, wl.Window, wl.TailPercentile, wl.Failed, wl.Attempted, wl.Digests[0])
		for _, rows := range [][]metricRow{wl.EndToEnd, wl.WholeRun, wl.PerLayer} {
			for _, r := range rows {
				fmt.Fprintf(w, "  %-42s %14.4f %-8s", r.Name, r.Median, r.Unit)
				if r.Samples > 1 {
					fmt.Fprintf(w, " n=%d q1=%.4f q3=%.4f", r.Samples, r.Q1, r.Q3)
				}
				if r.Bound > 0 {
					fmt.Fprintf(w, " bound %.0f%%", 100*r.Bound)
				}
				fmt.Fprintln(w)
			}
		}
	}
}
