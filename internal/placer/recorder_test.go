package placer

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestRecorderBasics(t *testing.T) {
	var r Recorder
	if _, ok := r.Last(); ok {
		t.Error("empty recorder should report no last record")
	}
	if len(r.History()) != 0 {
		t.Error("empty recorder has history")
	}
	r.Add(Record{Iter: 0, HPWL: 100})
	r.Add(Record{Iter: 1, HPWL: 90})
	r.Add(Record{Iter: 2, HPWL: 95})
	last, ok := r.Last()
	if !ok || last.Iter != 2 {
		t.Errorf("Last = %+v", last)
	}
	hist := r.History()
	if len(hist) != 3 || hist[1].HPWL != 90 {
		t.Errorf("History = %+v", hist)
	}
}

func TestWriteCSV(t *testing.T) {
	var r Recorder
	r.Add(Record{Iter: 0, HPWL: 123.5, Overflow: 0.8, Gamma: 2, Lambda: 1e-3,
		Omega: 0.1, R: 0.005, SimTime: 1500 * time.Microsecond, WallTime: time.Millisecond})
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "iter,hpwl") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "123.5") || !strings.Contains(lines[1], "1500") {
		t.Errorf("row = %q", lines[1])
	}
}
