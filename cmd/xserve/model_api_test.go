package main

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xplace/internal/nn"
	"xplace/internal/serve"
)

// modelRegistry builds a registry holding one tiny trained model under
// each of the given names.
func modelRegistry(t *testing.T, names ...string) *serve.ModelRegistry {
	t.Helper()
	m := nn.NewModel(nn.Config{Width: 4, Modes: 3, Layers: 1, Seed: 1})
	m.Train(nn.GenerateSamples(4, 16, 16, 1), nn.TrainOptions{Epochs: 2, LR: 1e-3, Seed: 1})
	reg := serve.NewModelRegistry()
	for _, name := range names {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if err := reg.Load(name, &buf); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// TestSubmitModelValidation: the model field of the redesigned job API is
// checked at the HTTP boundary. Malformed names fail jobapi validation;
// well-formed names a node does not hold fail with the scheduler's typed
// UnknownModelError — both are definitive 400s (non-retryable for the
// gateway), never enqueued jobs.
func TestSubmitModelValidation(t *testing.T) {
	srv, _ := newTestServer(t, serve.Options{
		Engines: 1, QueueCap: 4, EngineWorkers: 1,
		Models: modelRegistry(t, "fno32"),
	})
	cases := []struct {
		name, body, wantErr string
	}{
		{"unknown model", `{"bench":"fft_1","model":"ghost"}`, `unknown model "ghost"`},
		{"model name with cache-key separator", `{"bench":"fft_1","model":"a|b"}`, "must not contain"},
		{"model name with equals", `{"bench":"fft_1","model":"a=b"}`, "must not contain"},
		{"model name with newline", `{"bench":"fft_1","model":"a\nb"}`, "must not contain"},
		{"oversized model name", `{"bench":"fft_1","model":"` + strings.Repeat("x", 129) + `"}`, "longer than 128"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, m := postJSON(t, srv.URL+"/jobs", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d (%v), want 400", resp.StatusCode, m)
			}
			msg, _ := m["error"].(string)
			if !strings.Contains(msg, tc.wantErr) {
				t.Fatalf("error %q does not mention %q", msg, tc.wantErr)
			}
		})
	}
	// The unknown-model message names what IS loaded, so the caller can
	// correct the request without a second round trip.
	_, m := postJSON(t, srv.URL+"/jobs", `{"bench":"fft_1","model":"ghost"}`)
	if msg, _ := m["error"].(string); !strings.Contains(msg, "fno32") {
		t.Errorf("unknown-model error %q does not list the loaded models", msg)
	}
	// Nothing was enqueued by any of the rejects.
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
		t.Fatalf("rejected submissions created %d jobs", len(jobs))
	}
}

// TestModelJobOverHTTP: a job naming a loaded model runs the NN-blended
// flow end to end — the nn metrics appear on /metrics, and the model is
// part of the result-cache identity (same request without the model is a
// different placement, not a cache hit).
func TestModelJobOverHTTP(t *testing.T) {
	dir := t.TempDir()
	m := nn.NewModel(nn.Config{Width: 4, Modes: 3, Layers: 1, Seed: 1})
	m.Train(nn.GenerateSamples(4, 16, 16, 1), nn.TrainOptions{Epochs: 2, LR: 1e-3, Seed: 1})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fno32.xfnm"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := serve.NewModelRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	srv, _ := newTestServer(t, serve.Options{
		Engines: 1, QueueCap: 4, EngineWorkers: 1, Models: reg,
	})

	const body = `{"bench":"fft_1","scale":0.002,"seed":4,"max_iter":60,"model":"fno32"}`
	if resp, m := postJSON(t, srv.URL+"/jobs", body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", resp.StatusCode, m)
	}
	blended := waitSucceeded(t, srv.URL, 1, time.Minute)
	if scrapeMetric(t, srv.URL, "xserve_nn_jobs_total") != 1 {
		t.Error("xserve_nn_jobs_total != 1 after a model job")
	}
	if scrapeMetric(t, srv.URL, "xserve_nn_inference_total") <= 0 {
		t.Error("model job made no PredictField calls")
	}

	// The same placement without the model must MISS the cache (the model
	// is in the cache key) and may converge differently.
	const pure = `{"bench":"fft_1","scale":0.002,"seed":4,"max_iter":60}`
	if resp, m := postJSON(t, srv.URL+"/jobs", pure); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pure submit: %d (%v)", resp.StatusCode, m)
	}
	if numerical := waitSucceeded(t, srv.URL, 2, time.Minute); numerical["cached"] == true {
		t.Fatalf("model-less rerun hit the model job's cache entry: %v vs %v", numerical, blended)
	}
}
