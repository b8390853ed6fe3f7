package placer

import (
	"encoding/json"
	"testing"

	"xplace/internal/backend"
)

// runRef runs a full placement and returns the result.
func runRef(t *testing.T, opts Options) *Result {
	t.Helper()
	d := clusteredDesign(t, 400, 11)
	e := eng()
	defer e.Close()
	p, err := New(d, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkpointAt runs a placement until a checkpoint at iteration k is
// emitted, abandoning the run there (the crash), and returns the
// checkpoint after a JSON round trip — the durable-store wire form.
func checkpointAt(t *testing.T, opts Options, k int) *Checkpoint {
	t.Helper()
	d := clusteredDesign(t, 400, 11)
	e := eng()
	defer e.Close()
	var cp *Checkpoint
	opts.CheckpointEvery = k
	opts.Checkpoint = func(c *Checkpoint) {
		if cp == nil {
			cp = c
		}
	}
	p, err := New(d, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Run a few iterations past the checkpoint: the state after the
	// checkpoint must not leak into it.
	if _, err := p.RunIterations(k + 3); err != nil {
		t.Fatal(err)
	}
	if cp == nil || cp.Iter != k {
		t.Fatalf("checkpoint hook: got %+v, want one at iter %d", cp, k)
	}
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var rt Checkpoint
	if err := json.Unmarshal(b, &rt); err != nil {
		t.Fatal(err)
	}
	return &rt
}

// resumeFrom builds a fresh placer that restores cp and runs to the end.
func resumeFrom(t *testing.T, opts Options, cp *Checkpoint) *Result {
	t.Helper()
	d := clusteredDesign(t, 400, 11)
	e := eng()
	defer e.Close()
	opts.Resume = cp
	p, err := New(d, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCheckpointResumeBitIdentical is the durable-jobs acceptance gate at
// the placer level: a run resumed from a JSON-round-tripped mid-trajectory
// checkpoint finishes with final positions, HPWL, overflow and iteration
// count bit-identical to a run that was never interrupted. Covered
// configurations: the full Xplace defaults (operator skipping active in
// the checkpointed window), the float32 backend, the LSE wirelength model,
// Adam and the autograd baseline.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	base := func() Options {
		o := Defaults()
		o.Backend = backend.Float64() // pin exact float64 math under backend env overrides
		o.GridSize = 32
		o.TargetDensity = 0.9
		o.Sched.MaxIter = 600
		return o
	}
	cases := []struct {
		name string
		mod  func(*Options)
		at   int
	}{
		{"defaults_early", func(o *Options) {}, 10},
		{"defaults_late", func(o *Options) {}, 80},
		{"float32", func(o *Options) { o.Backend = backend.Float32() }, 35},
		{"lse", func(o *Options) { o.Wirelength = WLLogSumExp }, 35},
		{"adam", func(o *Options) { o.Optimizer = OptAdam }, 25},
		{"baseline_mode", func(o *Options) {
			*o = BaselineDefaults()
			o.GridSize = 32
			o.TargetDensity = 0.9
			o.Sched.MaxIter = 200
		}, 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := base()
			tc.mod(&opts)
			if tc.name == "baseline_mode" {
				opts.Backend = backend.Float64()
			}
			ref := runRef(t, opts)
			if tc.at >= ref.Iterations {
				t.Fatalf("checkpoint iter %d not mid-trajectory (run ends at %d)", tc.at, ref.Iterations)
			}
			cp := checkpointAt(t, opts, tc.at)
			res := resumeFrom(t, opts, cp)
			if res.Iterations != ref.Iterations {
				t.Fatalf("resumed run: %d iterations, uninterrupted: %d", res.Iterations, ref.Iterations)
			}
			if res.HPWL != ref.HPWL || res.Overflow != ref.Overflow {
				t.Fatalf("resumed HPWL/overflow %v/%v != uninterrupted %v/%v",
					res.HPWL, res.Overflow, ref.HPWL, ref.Overflow)
			}
			for c := range ref.X {
				if res.X[c] != ref.X[c] || res.Y[c] != ref.Y[c] {
					t.Fatalf("cell %d: resumed (%v,%v) != uninterrupted (%v,%v)",
						c, res.X[c], res.Y[c], ref.X[c], ref.Y[c])
				}
			}
		})
	}
}

// TestResumeAtFinalIterationRunsNothing: a checkpoint taken exactly at the
// run's natural end resumes into an immediate finish — the stop test leads
// the loop, so no extra iteration corrupts the result.
func TestResumeAtFinalIterationRunsNothing(t *testing.T) {
	opts := Defaults()
	opts.Backend = backend.Float64()
	opts.GridSize = 32
	opts.TargetDensity = 0.9
	opts.Sched.MaxIter = 60 // force the MaxIter stop
	ref := runRef(t, opts)
	if ref.Iterations != 60 {
		t.Fatalf("reference ran %d iterations, want the MaxIter stop at 60", ref.Iterations)
	}
	cp := checkpointAt(t, opts, 60)
	res := resumeFrom(t, opts, cp)
	if res.Iterations != 60 || res.HPWL != ref.HPWL {
		t.Fatalf("resume at final iteration: %d iters HPWL %v, want 60 iters HPWL %v",
			res.Iterations, res.HPWL, ref.HPWL)
	}
}

// TestRestoreValidation: mismatched checkpoints are rejected, not
// silently loaded.
func TestRestoreValidation(t *testing.T) {
	opts := Defaults()
	opts.GridSize = 32
	opts.TargetDensity = 0.9
	cp := checkpointAt(t, opts, 5)

	d := clusteredDesign(t, 400, 11)
	e := eng()
	defer e.Close()

	bad := *cp
	bad.Cells = cp.Cells + 1
	o := opts
	o.Resume = &bad
	if _, err := New(d, e, o); err == nil {
		t.Error("cell-count mismatch not rejected")
	}

	badOpt := *cp
	badOpt.Opt.Kind = "adam"
	o = opts
	o.Resume = &badOpt
	if _, err := New(d, e, o); err == nil {
		t.Error("optimizer-kind mismatch not rejected")
	}
	if es := e.Stats(); es.Arena.InUse != 0 {
		t.Errorf("rejected resumes leaked %d arena bytes", es.Arena.InUse)
	}
}
