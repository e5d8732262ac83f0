package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"rebalance/internal/wire"
)

// schemaV2 identifies the one document every mode of this command emits
// and -compare reads.
const schemaV2 = "bench/v2"

// document is a bench/v2 result: the host it was measured on and, per
// workload, every metric with the values of each run behind it. A single
// run is a document with one workload and one value per metric; -workload
// all merges its children's documents into one.
type document struct {
	Schema    string        `json:"schema"`
	Host      host          `json:"host"`
	Seed      uint64        `json:"seed"`
	Seconds   int           `json:"seconds"`
	Runs      int           `json:"runs"`
	Traced    bool          `json:"traced"`
	Workloads []workloadDoc `json:"workloads"`
}

// host is the fingerprint numbers are only comparable within.
type host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GitHead    string `json:"git_head"`
}

type workloadDoc struct {
	Name           string `json:"name"`
	Why            string `json:"why"`
	Sweeps         int    `json:"sweeps"`
	ShardsPerSweep int    `json:"shards_per_sweep"`
	// Window is how many consecutive sweeps make one of the windows the
	// end-to-end time metrics are read off (see calmest).
	Window int `json:"window"`
	// TailPercentile is the percentile whole.sweep_wall_ms_tail reports at
	// this sweep count: the highest with at least ten samples beyond it.
	TailPercentile int `json:"tail_percentile"`
	// Digests holds the normalised-report digest of each run, in run order
	// (run i used workload seed Seed+i).
	Digests   []string `json:"digests"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	// EndToEnd is filled by untraced runs, PerLayer by traced ones. WholeRun,
	// beside EndToEnd, is the same sweeps summarised over the whole run as
	// measured, the host's interference included: reported, never gated.
	EndToEnd []metricRow `json:"end_to_end,omitempty"`
	WholeRun []metricRow `json:"whole_run,omitempty"`
	PerLayer []metricRow `json:"per_layer,omitempty"`
}

// metricRow is one named metric: the value of each run, and their
// quartiles (Python's statistics.quantiles(values, n=4)). Better and Bound
// are set on end-to-end rows; Moves on per-layer rows names the end-to-end
// metric and workload the number is expected to move. RepMedian, on a unit
// cost reported as the minimum of several repetitions, is the median of
// those repetitions in the first run.
type metricRow struct {
	Name      string    `json:"name"`
	Unit      string    `json:"unit"`
	Better    string    `json:"better,omitempty"`
	Bound     float64   `json:"bound,omitempty"`
	Moves     string    `json:"moves,omitempty"`
	Samples   int       `json:"samples"`
	Values    []float64 `json:"values"`
	Q1        float64   `json:"q1"`
	Median    float64   `json:"median"`
	Q3        float64   `json:"q3"`
	RepMedian float64   `json:"rep_median,omitempty"`
}

// summarize recomputes a row's sample count and quartiles from its values.
func (r *metricRow) summarize() {
	r.Samples = len(r.Values)
	r.Q1, r.Median, r.Q3 = quartiles(r.Values)
}

func decodeDocument(data []byte) (*document, error) {
	var d document
	if err := wire.StrictUnmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("decoding %s document: %w", schemaV2, err)
	}
	if d.Schema != schemaV2 {
		return nil, fmt.Errorf("document schema %q, want %q", d.Schema, schemaV2)
	}
	return &d, nil
}

// merge appends other's runs to d: workloads d lacks are added, and a
// workload both hold gets other's values appended metric by metric.
func (d *document) merge(other *document) error {
	for _, ow := range other.Workloads {
		var w *workloadDoc
		for i := range d.Workloads {
			if d.Workloads[i].Name == ow.Name {
				w = &d.Workloads[i]
			}
		}
		if w == nil {
			d.Workloads = append(d.Workloads, ow)
			continue
		}
		if w.Sweeps != ow.Sweeps {
			return fmt.Errorf("merging %s: %d sweeps vs %d", w.Name, w.Sweeps, ow.Sweeps)
		}
		w.Digests = append(w.Digests, ow.Digests...)
		w.Attempted += ow.Attempted
		w.Failed += ow.Failed
		w.Correct = w.Correct && ow.Correct
		if err := mergeRows(w.Name, w.EndToEnd, ow.EndToEnd); err != nil {
			return err
		}
		if err := mergeRows(w.Name, w.WholeRun, ow.WholeRun); err != nil {
			return err
		}
		if err := mergeRows(w.Name, w.PerLayer, ow.PerLayer); err != nil {
			return err
		}
	}
	return nil
}

func mergeRows(workload string, into, from []metricRow) error {
	if len(into) != len(from) {
		return fmt.Errorf("merging %s: %d metrics vs %d", workload, len(into), len(from))
	}
	for i := range into {
		if into[i].Name != from[i].Name {
			return fmt.Errorf("merging %s: metric %q vs %q", workload, into[i].Name, from[i].Name)
		}
		into[i].Values = append(into[i].Values, from[i].Values...)
		into[i].summarize()
	}
	return nil
}

// hostFingerprint reads what identifies the measuring host. The git commit
// is "unknown" outside a git checkout.
func hostFingerprint() host {
	h := host{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		GitHead:    "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitHead = strings.TrimSpace(string(out))
	}
	return h
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
