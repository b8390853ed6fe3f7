package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_best_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(m float64) summary { return summary{Value: m, Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 20} }
	wide := func(m float64) summary { return summary{Value: m, Median: m, Q1: m * 0.8, Q3: m * 1.2, N: 20} }
	for _, tc := range []struct {
		name string
		m    metricDef
		a, b summary
		want verdict
	}{
		{"inside the bound", lower, tight(100), tight(108), unchanged},
		{"exactly equal", lower, tight(100), tight(100), unchanged},
		{"slower, tight runs", lower, tight(100), tight(125), regressed},
		{"faster, tight runs", lower, tight(100), tight(80), improved},
		{"slower but the runs overlap and are wide", lower, wide(100), wide(125), unresolved},
		{"wide but clear of each other", lower, wide(100), wide(200), regressed},
		{"higher is better: a drop regresses", higher, tight(100), tight(80), regressed},
		{"higher is better: a rise improves", higher, tight(100), tight(130), improved},
		{"no parent value", lower, summary{}, tight(5), unresolved},
	} {
		if got, _ := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRecords(t *testing.T) {
	dir := t.TempDir()
	record := func(file string, wall float64, failed int) string {
		res := newRunResult("gp-small", runConfig{seed: 1})
		for _, m := range endToEnd {
			res.E2E[m.Name] = summary{Value: 10, Median: 10, Q1: 9.9, Q3: 10.1, N: 12}
		}
		res.E2E["op_best_ms"] = summary{Value: wall, Median: wall, Q1: wall * 0.99, Q3: wall * 1.01, N: 12}
		res.Attempted, res.Failed, res.Correct = 12, failed, failed == 0
		path := filepath.Join(dir, file)
		if err := (runRecord{Runs: []*runResult{res}}).write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := record("a.json", 300, 0)

	var out bytes.Buffer
	if code := compareRecords(&out, base, record("same.json", 303, 0)); code != 0 {
		t.Errorf("equal records: exit code %d\n%s", code, out.String())
	}
	if strings.Contains(out.String(), string(regressed)) || strings.Contains(out.String(), string(improved)) {
		t.Errorf("equal records reported a change:\n%s", out.String())
	}
	if rows := strings.Count(out.String(), "gp-small"); rows != len(endToEnd) {
		t.Errorf("%d rows for one workload, want one per end-to-end metric (%d)", rows, len(endToEnd))
	}

	out.Reset()
	if code := compareRecords(&out, base, record("slow.json", 400, 0)); code != 1 {
		t.Errorf("regressed record: exit code %d, want 1", code)
	}
	if !regexp.MustCompile(`op_best_ms .* regressed`).MatchString(out.String()) {
		t.Errorf("regression not reported:\n%s", out.String())
	}

	out.Reset()
	if code := compareRecords(&out, base, record("failed.json", 300, 2)); code != 1 {
		t.Errorf("record with failed operations: exit code %d, want 1", code)
	}
}

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json at the repository
// root identical to what the harness's tables generate, and the tables
// inside the limits of the benchmark contract.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifest()) {
		t.Error("BENCHMARK.json differs from the harness's tables; regenerate with: go run ./benchmark -manifest > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range perLayer {
		check(m.Name)
	}
}
