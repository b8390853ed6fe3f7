package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is one row of -compare.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge applies one metric's bound to two runs' summaries (a = parent,
// b = change). A difference inside the bound is unchanged. Outside it, the
// runs are unresolved when either run's own spread (q3-q1 over its median)
// is wider than the bound and their interquartile ranges overlap;
// otherwise the direction decides.
func judge(m metricDef, a, b summary) (verdict, float64) {
	if a.Value == 0 {
		return unresolved, 0
	}
	delta := (b.Value - a.Value) / a.Value
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	if worse <= m.Bound && worse >= -m.Bound {
		return unchanged, delta
	}
	spread := func(s summary) float64 {
		if s.Median == 0 {
			return 0
		}
		return (s.Q3 - s.Q1) / s.Median
	}
	overlap := a.Q1 <= b.Q3 && b.Q1 <= a.Q3
	if (spread(a) > m.Bound || spread(b) > m.Bound) && overlap {
		return unresolved, delta
	}
	if worse > 0 {
		return regressed, delta
	}
	return improved, delta
}

func readRecord(path string) (runRecord, error) {
	var r runRecord
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareRecords prints one row per (workload, end-to-end metric) and
// returns the process exit code: 1 when anything regressed, a run was
// incorrect or a workload is missing from one side.
func compareRecords(w io.Writer, pathA, pathB string) int {
	a, err := readRecord(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	b, err := readRecord(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if a.Env != b.Env {
		fmt.Fprintf(w, "note: environments differ\n  A: %+v\n  B: %+v\n", a.Env, b.Env)
	}
	untraced := func(r runRecord) map[string]*runResult {
		m := map[string]*runResult{}
		for _, run := range r.Runs {
			if !run.Trace {
				m[run.Workload] = run
			}
		}
		return m
	}
	ra, rb := untraced(a), untraced(b)
	code := 0
	fmt.Fprintf(w, "%-12s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "delta", "bound", "verdict")
	for _, wl := range workloads {
		x, y := ra[wl.name], rb[wl.name]
		if x == nil && y == nil {
			continue
		}
		if x == nil || y == nil {
			fmt.Fprintf(w, "%-12s missing from one record\n", wl.name)
			code = 1
			continue
		}
		if !x.Correct || !y.Correct || x.Failed != y.Failed {
			fmt.Fprintf(w, "%-12s failed operations A %d/%d B %d/%d, correct A %v B %v\n",
				wl.name, x.Failed, x.Attempted, y.Failed, y.Attempted, x.Correct, y.Correct)
			code = 1
		}
		for _, m := range endToEnd {
			v, delta := judge(m, x.E2E[m.Name], y.E2E[m.Name])
			if v == regressed {
				code = 1
			}
			fmt.Fprintf(w, "%-12s %-18s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n",
				wl.name, m.Name, x.E2E[m.Name].Value, y.E2E[m.Name].Value, 100*delta, 100*m.Bound, v)
		}
	}
	return code
}
