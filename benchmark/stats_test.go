package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"
)

func TestQuantilesAndSummary(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if v[0] != 5 {
		t.Errorf("median sorted its argument in place")
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
	s := summarize(v)
	want := summary{Value: 3, Median: 3, Q1: 2, Q3: 4, Min: 1, Max: 5, N: 5}
	if s != want {
		t.Errorf("summarize = %+v, want %+v", s, want)
	}
	if got := percentile([]float64{0, 10}, 25); got != 2.5 {
		t.Errorf("p25 of {0,10} = %v, want 2.5 (linear interpolation)", got)
	}
	if (summarize(nil) != summary{}) {
		t.Errorf("summarize(nil) is not the zero summary")
	}
}

func TestSummarizeFastestReportsTheMinimum(t *testing.T) {
	s := summarizeFastest([]float64{5, 1, 4, 2, 3})
	if s.Value != 1 || s.Median != 3 || s.N != 5 {
		t.Errorf("summarizeFastest = %+v, want value 1 beside median 3 of 5 samples", s)
	}
}

func TestRoundsHonourMinimumAndBudget(t *testing.T) {
	n := 0
	if err := rounds(0, 3, func(int) error { n++; return nil }); err != nil || n != 3 {
		t.Errorf("zero budget: %d rounds, err %v, want the minimum of 3", n, err)
	}
	n = 0
	start := time.Now()
	// Margins wide enough for a loaded machine: three rounds fit unless a
	// 2 ms sleep takes over 60 ms.
	_ = rounds(200*time.Millisecond, 1, func(int) error { n++; time.Sleep(2 * time.Millisecond); return nil })
	if el := time.Since(start); n < 3 || el > 2*time.Second {
		t.Errorf("200 ms budget of 2 ms rounds: %d rounds in %v", n, el)
	}
	n = 0
	err := rounds(time.Hour, 2, func(int) error { n++; return errors.New("set-up failed") })
	if err == nil || n != 1 {
		t.Errorf("failing round: %d rounds, err %v, want the first error to stop the run", n, err)
	}
}

func TestFastestPerDesignSkipsUnrepeatedDesigns(t *testing.T) {
	wall := func(r opResult) float64 { return ms(r.wall) }
	log := &opLog{ops: []opResult{
		{design: 0, wall: 30 * time.Millisecond}, {design: 1, wall: 50 * time.Millisecond}, {design: 2, wall: 10 * time.Millisecond},
		{design: 0, wall: 20 * time.Millisecond}, {design: 1, wall: 70 * time.Millisecond},
	}}
	got := log.fastestPerDesign(wall)
	if len(got) != 2 || got[0] != 20 || got[1] != 50 {
		t.Errorf("fastestPerDesign = %v, want [20 50]: design 2 ran once and has no repetition to choose from", got)
	}
	if first := log.perDesign(wall); len(first) != 3 || first[0] != 30 || first[2] != 10 {
		t.Errorf("perDesign = %v, want each design's first operation [30 50 10]", first)
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n, beyond, wantPct int
	}{
		{96, 10, 89},   // 86 of 96 at or below: floor(100*86/96)
		{100, 10, 90},  // exactly ten beyond p90
		{1000, 10, 99}, // capped at p99
		{12, 10, 50},   // too few samples for any tail: the median
		{0, 10, 50},
	} {
		pct, val := tailPercentile(seq(tc.n), tc.beyond)
		if pct != tc.wantPct {
			t.Errorf("n=%d: percentile %d, want %d", tc.n, pct, tc.wantPct)
		}
		if tc.n > 0 {
			above := 0
			for _, x := range seq(tc.n) {
				if x > val {
					above++
				}
			}
			if pct > 50 && above < tc.beyond {
				t.Errorf("n=%d: only %d samples beyond p%d, want at least %d", tc.n, above, pct, tc.beyond)
			}
		}
	}
}

func TestTimeCallsHonoursMinimumAndCap(t *testing.T) {
	calls := 0
	ds := timeCalls(5, 30, 0, func() { calls++ })
	if len(ds) != 5 || calls != 6 {
		t.Errorf("zero budget: %d samples from %d calls, want 5 from 6 (one untimed)", len(ds), calls)
	}
	ds = timeCalls(5, 30, time.Hour, func() {})
	if len(ds) != 30 {
		t.Errorf("large budget: %d samples, want the cap of 30", len(ds))
	}
}

func TestRecorderSelfTimeAndChromeTrace(t *testing.T) {
	var nilRec *recorder
	if id := nilRec.begin("x", "op", -1); id != -1 {
		t.Errorf("nil recorder begin = %d, want -1", id)
	}
	nilRec.end(-1) // must not panic

	r := newRecorder()
	root := r.begin("op", "w#0", -1)
	child := r.begin("placer.iter", "w#0", root)
	time.Sleep(2 * time.Millisecond)
	r.end(child)
	time.Sleep(time.Millisecond)
	r.end(root)
	open := r.begin("never.closed", "w#0", root)
	_ = open

	self := r.selfTimes()
	if self["placer.iter"] < 2*time.Millisecond {
		t.Errorf("child self time %v, want at least its sleep", self["placer.iter"])
	}
	whole := r.durations("op")[0]
	if got := self["op"] + self["placer.iter"]; got != whole {
		t.Errorf("self times sum to %v, want the root's duration %v", got, whole)
	}
	if _, ok := self["never.closed"]; ok {
		t.Errorf("an unclosed span contributed self time")
	}

	var buf bytes.Buffer
	if err := r.writeChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d trace events, want the 2 closed spans", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur <= 0 || math.IsNaN(e.Dur) {
			t.Errorf("event %+v is not a complete span", e)
		}
	}
}
