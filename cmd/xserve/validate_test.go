package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"testing"
	"time"

	"xplace/internal/jobapi"
	"xplace/internal/jobstore"
	"xplace/internal/serve"
)

func jsonDecode(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

// TestSubmitValidation: malformed placement parameters are rejected with
// 400 instead of being run (or coerced surprisingly). The pre-fix
// handler accepted all of these.
func TestSubmitValidation(t *testing.T) {
	srv, _ := newTestServer(t, serve.Options{Engines: 1, QueueCap: 4, EngineWorkers: 1})
	cases := []struct {
		name, body string
	}{
		{"missing bench", `{}`},
		{"negative scale", `{"bench":"fft_1","scale":-0.5}`},
		{"negative grid", `{"bench":"fft_1","grid":-4}`},
		{"negative max_iter", `{"bench":"fft_1","max_iter":-1}`},
		{"negative timeout", `{"bench":"fft_1","timeout":"-5s"}`},
		{"unparseable timeout", `{"bench":"fft_1","timeout":"potato"}`},
		{"non-numeric body", `{"bench":"fft_1","scale":"big"}`},
		{"unknown strategy", `{"bench":"fft_1","strategy":"annealing"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, m := postJSON(t, srv.URL+"/jobs", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d (%v), want 400", resp.StatusCode, m)
			}
			if m["error"] == "" {
				t.Fatal("400 without an error message")
			}
		})
	}
	// Nothing was enqueued.
	resp, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []any
	if err := jsonDecode(resp.Body, &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("invalid submissions created %d jobs", len(jobs))
	}
}

// TestScaleMustBeFinite: non-finite scales cannot arrive via JSON, but
// validate guards the invariant for any future transport.
func TestScaleMustBeFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		r := jobapi.Request{Bench: "fft_1", Scale: bad}
		if err := r.Validate(); err == nil {
			t.Errorf("scale %v accepted", bad)
		}
	}
	if err := (&jobapi.Request{Bench: "fft_1"}).Validate(); err != nil {
		t.Errorf("zero scale rejected: %v", err)
	}
}

// TestSeedZeroCoercionIsCanonical: "seed": 0 and "seed": 1 are the same
// design by the documented coercion, so they must share one cache key —
// a resubmission with the other spelling is a cache hit, not a rerun.
func TestSeedZeroCoercionIsCanonical(t *testing.T) {
	a := jobapi.Request{Bench: "fft_1"}
	b := jobapi.Request{Bench: "fft_1", Scale: 0.02, Seed: 1, Mode: "xplace"}
	a.Normalize()
	b.Normalize()
	if a.CacheKey() != b.CacheKey() {
		t.Fatalf("coerced request key %q != explicit default key %q", a.CacheKey(), b.CacheKey())
	}
	c := jobapi.Request{Bench: "fft_1", Seed: 2}
	c.Normalize()
	if c.CacheKey() == a.CacheKey() {
		t.Fatal("distinct seeds share a cache key")
	}
}

// TestStrategyInCacheKey: the strategy is part of the result-cache
// identity — an lbub run of the same request must never be served a
// cached nesterov result (or vice versa), while the explicit default
// spelling stays canonical with the omitted one.
func TestStrategyInCacheKey(t *testing.T) {
	def := jobapi.Request{Bench: "fft_1"}
	def.Normalize()
	explicit := jobapi.Request{Bench: "fft_1", Strategy: "nesterov"}
	explicit.Normalize()
	if def.CacheKey() != explicit.CacheKey() {
		t.Fatalf("explicit default strategy key %q != omitted key %q", explicit.CacheKey(), def.CacheKey())
	}
	lbub := jobapi.Request{Bench: "fft_1", Strategy: "lbub"}
	lbub.Normalize()
	if lbub.CacheKey() == def.CacheKey() {
		t.Fatal("lbub and nesterov share a cache key")
	}
}

// TestCachedSubmissionOverHTTP: the durable result cache is visible at
// the HTTP surface — an identical second submission reports
// "cached": true with the same numbers and no new kernel launches.
func TestCachedSubmissionOverHTTP(t *testing.T) {
	st, err := jobstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, _ := newTestServer(t, serve.Options{
		Engines: 1, QueueCap: 4, EngineWorkers: 1,
		Store: st, Rehydrate: jobapi.Rehydrate,
	})

	const body = `{"bench":"fft_1","scale":0.002,"seed":4,"max_iter":25}`
	if resp, m := postJSON(t, srv.URL+"/jobs", body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", resp.StatusCode, m)
	}
	first := waitSucceeded(t, srv.URL, 1, time.Minute)
	if first["cached"] == true {
		t.Fatal("first submission reported cached")
	}
	launches := scrapeMetric(t, srv.URL, "xserve_kernel_launches_total")

	if resp, m := postJSON(t, srv.URL+"/jobs", body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d (%v)", resp.StatusCode, m)
	}
	second := waitSucceeded(t, srv.URL, 2, 30*time.Second)
	if second["cached"] != true {
		t.Fatalf("identical resubmission not cached: %v", second)
	}
	if second["hpwl"] != first["hpwl"] || second["iterations"] != first["iterations"] {
		t.Fatalf("cached result differs: %v vs %v", second, first)
	}
	if after := scrapeMetric(t, srv.URL, "xserve_kernel_launches_total"); after != launches {
		t.Errorf("cache hit launched kernels: %v -> %v", launches, after)
	}
	if hits := scrapeMetric(t, srv.URL, "xserve_cache_hits_total"); hits != 1 {
		t.Errorf("cache hits = %v, want 1", hits)
	}
}
