package detail

import (
	"fmt"
	"testing"

	"xplace/internal/backend"
	"xplace/internal/benchgen"
	"xplace/internal/kernel"
	"xplace/internal/legal"
	"xplace/internal/netlist"
	"xplace/internal/placer"
)

// placed is a GP-converged, Tetris-legalized design.
type placed struct {
	d      *netlist.Design
	lx, ly []float64
}

var placedCache = map[string]placed{}

// gpTetris places bench × scale (seed 1) to convergence and legalizes it
// with Tetris. Each case is built once per test binary: the tests only
// read it.
func gpTetris(t *testing.T, bench string, scale float64) (*netlist.Design, []float64, []float64) {
	t.Helper()
	key := fmt.Sprint(bench, scale)
	if p, ok := placedCache[key]; ok {
		return p.d, p.lx, p.ly
	}
	spec, ok := benchgen.FindSpec(bench)
	if !ok {
		t.Fatalf("%s spec missing", bench)
	}
	d := benchgen.Generate(spec, scale, 1)
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
	placedCache[key] = placed{d, lx, ly}
	return d, lx, ly
}

// TestRunDeterministic: identical calls return bit-identical placements.
// The case is the one the repo benchmark counts detail.hpwl_distinct on — a
// converged, Tetris-legalized adaptec1 x 0.02 — because its footprint
// groups share nets, so the order ISM visits them in changes the outcome.
func TestRunDeterministic(t *testing.T) {
	d, lx, ly := gpTetris(t, "adaptec1", 0.02)
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
