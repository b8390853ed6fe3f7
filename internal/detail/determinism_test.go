package detail

import (
	"testing"

	"xplace/internal/backend"
	"xplace/internal/benchgen"
	"xplace/internal/kernel"
	"xplace/internal/legal"
	"xplace/internal/placer"
)

// TestRunDeterministic: identical calls return bit-identical placements.
// The case is the one the repo benchmark counts detail.hpwl_distinct on — a
// converged, Tetris-legalized adaptec1 x 0.02 — because its footprint
// groups share nets, so the order ISM visits them in changes the outcome.
func TestRunDeterministic(t *testing.T) {
	spec, ok := benchgen.FindSpec("adaptec1")
	if !ok {
		t.Fatal("adaptec1 spec missing")
	}
	d := benchgen.Generate(spec, 0.02, 1)
	e := kernel.New(kernel.Options{})
	defer e.Close()
	opts := placer.Defaults()
	opts.Seed = 1
	opts.Backend = backend.Float64()
	p, err := placer.New(d, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	gp, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	lx, ly, err := legal.Tetris(d, gp.X, gp.Y)
	if err != nil {
		t.Fatal(err)
	}
	x0, y0 := Run(d, lx, ly, Options{})
	for k := 1; k < 3; k++ {
		x, y := Run(d, lx, ly, Options{})
		for c := range x {
			if x[c] != x0[c] || y[c] != y0[c] {
				t.Fatalf("call %d moved cell %d to (%v, %v), call 0 to (%v, %v)", k, c, x[c], y[c], x0[c], y0[c])
			}
		}
	}
}
