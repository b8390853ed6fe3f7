package jobapi

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"xplace/internal/placer"
	"xplace/internal/serve"
)

// wireFixtures are fixed statuses whose JSON is checked in as
// testdata/status_<name>.json: a worker status with every field a worker
// sets, a gateway status with the gateway-only fields, and a queued status
// with no times and no progress.
func wireFixtures() map[string]Status {
	sub := time.Date(2026, 3, 14, 15, 9, 26, 535897932, time.UTC)
	start := sub.Add(1500 * time.Millisecond)
	fin := start.Add(2*time.Second + 718281828)
	prog := placer.Snapshot{Iter: 42, HPWL: 123456.75, WA: 120000.5, Overflow: 0.0875, Gamma: 3.25,
		Lambda: 1.5e-4, Omega: 0.5, Stage: "final", WallTime: 812 * time.Millisecond, SimTime: 97 * time.Millisecond}
	return map[string]Status{
		"worker": {ID: 7, Label: "fft_1", State: serve.Failed, Err: "serve: job panicked: boom",
			Submitted: sub, Started: &start, Finished: &fin, Progress: &prog,
			Iterations: 42, HPWL: 123456.75, Overflow: 0.0875, Cached: true, Recovered: true, Resumed: true, Fallback: "lbub"},
		"gateway": {ID: 12, Label: "adaptec1", State: serve.Succeeded, Node: "http://127.0.0.1:18081", RemoteID: 3,
			Draft: true, Failovers: 2, Submitted: sub, Started: &start, Finished: &fin, Progress: &prog,
			Iterations: 42, HPWL: 123456.75, Overflow: 0.0875},
		"queued": {ID: 1, Label: "fft_1", State: serve.Queued, Submitted: sub},
	}
}

func readFixture(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "status_"+name+".json"))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestStatusWireBytes pins the wire form byte for byte: each fixture
// marshals to its checked-in JSON and decodes back to an equal value, and
// a status naming an unknown state does not decode.
func TestStatusWireBytes(t *testing.T) {
	for name, st := range wireFixtures() {
		want := readFixture(t, name)
		got, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: marshal =\n%s\nwant\n%s", name, got, want)
		}
		var back Status
		if err := json.Unmarshal(want, &back); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(back, st) {
			t.Errorf("%s: decoded %+v, want %+v", name, back, st)
		}
	}
	for _, body := range []string{`{"id":1,"state":"done"}`, `{"id":1,"state":""}`, `{"id":1,"state":"State(9)"}`, `{"id":1,"state":2}`} {
		var st Status
		if err := json.Unmarshal([]byte(body), &st); err == nil {
			t.Errorf("%s decoded to state %v, want an error", body, st.State)
		}
	}
}
