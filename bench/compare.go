package main

import (
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload x end-to-end metric row.
const (
	verdictOK         = "ok"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
)

// compareRow is one line of the comparison: baseline A against candidate B.
type compareRow struct {
	workload string
	a, b     metricRow
	// worse is how much B's median is worse than A's, as a share of A's
	// median (negative when B is better).
	worse   float64
	spreadA float64 // A's inter-quartile distance as a share of its median
	verdict string
}

// judge decides one row. B regresses when its median is worse than A's by
// more than the bound. When A's own run-to-run spread is wider than the
// bound the runs cannot resolve a move that small: the row is unresolved,
// unless every run of B reads better than every run of A.
func judge(a, b metricRow) compareRow {
	r := compareRow{a: a, b: b}
	sign := 1.0
	if a.Better == "higher" {
		sign = -1
	}
	if a.Median != 0 {
		r.worse = sign * (b.Median - a.Median) / a.Median
		r.spreadA = (a.Q3 - a.Q1) / a.Median
	}
	switch {
	case r.spreadA > a.Bound && !allBetter(a, b, sign):
		r.verdict = verdictUnresolved
	case r.worse > a.Bound:
		r.verdict = verdictRegression
	default:
		r.verdict = verdictOK
	}
	return r
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(a, b metricRow, sign float64) bool {
	if len(a.Values) == 0 || len(b.Values) == 0 {
		return false
	}
	for _, bv := range b.Values {
		for _, av := range a.Values {
			if sign*(bv-av) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareDocs pairs the end-to-end rows of every workload both documents
// hold, using A's bounds. failures lists the workloads on which more shards
// failed in B than in A: any increase is a failure, whatever the timings.
func compareDocs(a, b *document) (rows []compareRow, failures []string, err error) {
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name {
				continue
			}
			if len(wa.EndToEnd) != len(wb.EndToEnd) {
				return nil, nil, fmt.Errorf("%s: %d end-to-end metrics vs %d", wa.Name, len(wa.EndToEnd), len(wb.EndToEnd))
			}
			for i := range wa.EndToEnd {
				if wa.EndToEnd[i].Name != wb.EndToEnd[i].Name {
					return nil, nil, fmt.Errorf("%s: metric %q vs %q", wa.Name, wa.EndToEnd[i].Name, wb.EndToEnd[i].Name)
				}
				row := judge(wa.EndToEnd[i], wb.EndToEnd[i])
				row.workload = wa.Name
				rows = append(rows, row)
			}
			if wb.Failed > wa.Failed {
				failures = append(failures, fmt.Sprintf("%s: failed shards rose from %d of %d to %d of %d",
					wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted))
			}
		}
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("the documents share no workload with end-to-end metrics")
	}
	return rows, failures, nil
}

// compareFiles prints one row per workload x end-to-end metric and exits
// non-zero on any regression.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var docs [2]*document
	for i, path := range []string{pathA, pathB} {
		data, err := os.ReadFile(path)
		if err == nil {
			docs[i], err = decodeDocument(data)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", path, err)
			return 2
		}
	}
	rows, failures, err := compareDocs(docs[0], docs[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	fmt.Fprintf(stdout, "%-22s %-24s %34s %34s %8s %6s  %s\n", "workload", "metric",
		"A median [q1, q3] (n)", "B median [q1, q3] (n)", "B worse", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-22s %-24s %34s %34s %+7.1f%% %5.0f%%  %s\n", r.workload, r.a.Name,
			cell(r.a), cell(r.b), 100*r.worse, 100*r.a.Bound, r.verdict)
		if r.verdict == verdictRegression {
			code = 1
		}
	}
	for _, f := range failures {
		fmt.Fprintf(stdout, "%s: %s\n", verdictRegression, f)
		code = 1
	}
	return code
}

func cell(r metricRow) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", r.Median, r.Q1, r.Q3, r.Samples)
}
