package serve

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xplace/internal/nn"
)

// quickModel trains a deliberately tiny (and weak) model — these tests
// exercise the registry and the shared inference plumbing, not
// placement quality.
func quickModel(tb testing.TB, seed int64) *nn.Model {
	tb.Helper()
	m := nn.NewModel(nn.Config{Width: 4, Modes: 3, Layers: 1, Seed: seed})
	m.Train(nn.GenerateSamples(4, 16, 16, seed), nn.TrainOptions{Epochs: 2, LR: 1e-3, Seed: seed})
	return m
}

func writeModelFile(tb testing.TB, dir, name string, m *nn.Model) string {
	tb.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

func TestModelRegistryLoadDir(t *testing.T) {
	dir := t.TempDir()
	writeModelFile(t, dir, "fno-a.xfnm", quickModel(t, 1))
	writeModelFile(t, dir, "fno-b.xfnm", quickModel(t, 2))
	if err := os.WriteFile(filepath.Join(dir, ".hidden"), []byte("skip me"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := NewModelRegistry()
	n, err := reg.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || reg.Len() != 2 {
		t.Fatalf("loaded %d models (registry %d), want 2", n, reg.Len())
	}
	names := reg.Names()
	if len(names) != 2 || names[0] != "fno-a" || names[1] != "fno-b" {
		t.Fatalf("names = %v, want [fno-a fno-b] (extension stripped)", names)
	}

	// A corrupt artifact fails the whole directory load, typed.
	bad := t.TempDir()
	writeModelFile(t, bad, "ok.xfnm", quickModel(t, 3))
	if err := os.WriteFile(filepath.Join(bad, "broken.xfnm"), []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewModelRegistry().LoadDir(bad); !errors.Is(err, nn.ErrNotModel) {
		t.Fatalf("corrupt dir load: got %v, want ErrNotModel", err)
	}
}

func TestModelRegistryAcquireRefcounts(t *testing.T) {
	reg := NewModelRegistry()
	var buf bytes.Buffer
	if err := quickModel(t, 1).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("m", &buf); err != nil {
		t.Fatal(err)
	}

	m1, rel1, err := reg.acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	m2, rel2, err := reg.acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("two acquires returned different model entries; must share one")
	}
	if got := reg.Refs("m"); got != 2 {
		t.Errorf("refs = %d, want 2", got)
	}
	rel1()
	rel1() // double release must not double-decrement
	if got := reg.Refs("m"); got != 1 {
		t.Errorf("refs after release = %d, want 1", got)
	}
	rel2()
	if got := reg.Refs("m"); got != 0 {
		t.Errorf("refs after all releases = %d, want 0", got)
	}

	var unk *UnknownModelError
	if _, _, err := reg.acquire("ghost"); !errors.As(err, &unk) {
		t.Fatalf("acquire unknown: got %v, want UnknownModelError", err)
	} else if unk.Name != "ghost" || len(unk.Known) != 1 || unk.Known[0] != "m" {
		t.Errorf("error detail %+v, want name ghost and known [m]", unk)
	}
}

func TestSubmitRejectsUnknownModel(t *testing.T) {
	reg := NewModelRegistry()
	var buf bytes.Buffer
	if err := quickModel(t, 1).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("good", &buf); err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Options{Engines: 1, Models: reg})
	defer s.Shutdown(context.Background())

	d := testDesign(t, 60, 3)
	var unk *UnknownModelError
	if _, err := s.Submit(Spec{Design: d, Options: testOpts(50), Model: "nope"}); !errors.As(err, &unk) {
		t.Fatalf("submit unknown model: got %v, want UnknownModelError", err)
	}

	// No registry at all: every model request is unknown.
	s2 := mustNew(t, Options{Engines: 1})
	defer s2.Shutdown(context.Background())
	if _, err := s2.Submit(Spec{Design: d, Options: testOpts(50), Model: "good"}); !errors.As(err, &unk) {
		t.Fatalf("submit without registry: got %v, want UnknownModelError", err)
	}
}

// TestSharedModelAcrossJobs is the serving acceptance gate: four
// concurrent jobs on four engines name the same model and share one
// registry entry and its predictor with no lock between them (run under
// -race in the CI nn lane: a forward pass that wrote anything but its own
// checked-out workspace would race across the four goroutines).
func TestSharedModelAcrossJobs(t *testing.T) {
	dir := t.TempDir()
	writeModelFile(t, dir, "shared.xfnm", quickModel(t, 1))
	reg := NewModelRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Options{Engines: 4, EngineWorkers: 1, Models: reg})

	d := testDesign(t, 300, 7)
	jobs := make([]*Job, 4)
	for i := range jobs {
		j, err := s.Submit(Spec{Design: d, Options: testOpts(400), Model: "shared", Label: "nn"})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatalf("job %d: %v", j.ID(), err)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	calls := s.nnCalls.Value()
	if calls <= 0 {
		t.Error("xserve_nn_inference_total = 0, want > 0")
	}
	if got := s.nnJobs.Value(); got != 4 {
		t.Errorf("xserve_nn_jobs_total = %d, want 4", got)
	}
	if got := reg.Refs("shared"); got != 0 {
		t.Errorf("model refs after drain = %d, want 0", got)
	}
	// All four jobs converged identically: same design, same model, same
	// seed — a forward pass that saw another job's activations would have
	// moved one of them.
	ref, _ := jobs[0].Result()
	for _, j := range jobs[1:] {
		res, _ := j.Result()
		if res.HPWL != ref.HPWL || res.Iterations != ref.Iterations {
			t.Errorf("job %d diverged: %d iters HPWL %v vs %d iters HPWL %v",
				j.ID(), res.Iterations, res.HPWL, ref.Iterations, ref.HPWL)
		}
	}
	t.Logf("shared model: %d PredictField calls across 4 jobs", calls)
}

// TestModelGridTooSmallFailsJob: a request whose grid is too small for the
// model's modes used to panic inside the placer and take the daemon down.
// The job must end failed with an error naming grid and modes, and the
// scheduler must go on to run the next job.
func TestModelGridTooSmallFailsJob(t *testing.T) {
	reg := NewModelRegistry()
	var buf bytes.Buffer
	if err := quickModel(t, 1).Save(&buf); err != nil { // modes 3: needs 6x6
		t.Fatal(err)
	}
	if err := reg.Load("m", &buf); err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Options{Engines: 1, Models: reg})
	defer s.Shutdown(context.Background())

	d := testDesign(t, 60, 3)
	small := testOpts(30)
	small.GridSize = 4
	bad, err := s.Submit(Spec{Design: d, Options: small, Model: "m"})
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.Submit(Spec{Design: d, Options: testOpts(30), Model: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Wait(context.Background()); err == nil {
		t.Error("4x4 grid with a 3-mode model: job succeeded, want failed")
	} else if !strings.Contains(err.Error(), "4x4") || !strings.Contains(err.Error(), "3 modes") {
		t.Errorf("error %q does not name the grid and the modes", err)
	}
	if st := bad.Status().State; st != Failed {
		t.Errorf("undersized job state = %v, want failed", st)
	}
	if _, err := good.Wait(context.Background()); err != nil {
		t.Errorf("the job after the failed one: %v", err)
	}
	if got := reg.Refs("m"); got != 0 {
		t.Errorf("model refs after both jobs = %d, want 0", got)
	}
}
