package optim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"xplace/internal/geom"
	"xplace/internal/kernel"
	"xplace/internal/netlist"
)

func eng() *kernel.Engine { return kernel.New(kernel.Options{Workers: 2}) }

// quadratic is a toy separable objective sum_i (x_i - tx_i)^2 + (y_i - ty_i)^2.
type quadratic struct {
	tx, ty []float64
}

func (q quadratic) grad(x, y []float64) (gx, gy []float64) {
	gx = make([]float64, len(x))
	gy = make([]float64, len(y))
	for i := range x {
		gx[i] = 2 * (x[i] - q.tx[i])
		gy[i] = 2 * (y[i] - q.ty[i])
	}
	return
}

func (q quadratic) value(x, y []float64) float64 {
	var v float64
	for i := range x {
		v += (x[i]-q.tx[i])*(x[i]-q.tx[i]) + (y[i]-q.ty[i])*(y[i]-q.ty[i])
	}
	return v
}

func openBounds(n int) Bounds {
	b := Bounds{
		LoX: make([]float64, n), HiX: make([]float64, n),
		LoY: make([]float64, n), HiY: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		b.LoX[i], b.HiX[i] = -1e9, 1e9
		b.LoY[i], b.HiY[i] = -1e9, 1e9
	}
	return b
}

func TestNesterovConvergesOnQuadratic(t *testing.T) {
	e := eng()
	n := 50
	q := quadratic{tx: make([]float64, n), ty: make([]float64, n)}
	x0 := make([]float64, n)
	y0 := make([]float64, n)
	for i := 0; i < n; i++ {
		q.tx[i] = float64(i)
		q.ty[i] = -float64(i) / 2
		x0[i] = 100
		y0[i] = -100
	}
	o := NewNesterov(x0, y0, openBounds(n), 1.0)
	for it := 0; it < 300; it++ {
		vx, vy := o.Positions()
		gx, gy := q.grad(vx, vy)
		o.Step(e, gx, gy)
	}
	ux, uy := o.Current()
	if v := q.value(ux, uy); v > 1e-3 {
		t.Errorf("Nesterov did not converge: f = %v", v)
	}
}

func TestNesterovBeatsPlainGradientDescent(t *testing.T) {
	// On an ill-conditioned quadratic, Nesterov with BB steps should reach
	// a much lower objective than fixed-step GD in the same iterations.
	e := eng()
	n := 2
	// f = 100*(x0)^2 + (x1)^2 via scaling trick: fold into targets/grads.
	scale := []float64{100, 1}
	grad := func(x []float64) []float64 {
		g := make([]float64, n)
		for i := range x {
			g[i] = 2 * scale[i] * x[i]
		}
		return g
	}
	val := func(x []float64) float64 {
		var v float64
		for i := range x {
			v += scale[i] * x[i] * x[i]
		}
		return v
	}
	x0 := []float64{10, 10}
	zero := make([]float64, n)

	o := NewNesterov(x0, zero, openBounds(n), 0.5)
	for it := 0; it < 100; it++ {
		vx, _ := o.Positions()
		o.Step(e, grad(vx), make([]float64, n))
	}
	ux, _ := o.Current()
	nesterovVal := val(ux)

	// Plain GD with the largest stable fixed step (1/L, L=200).
	x := append([]float64(nil), x0...)
	for it := 0; it < 100; it++ {
		g := grad(x)
		for i := range x {
			x[i] -= g[i] / 200
		}
	}
	gdVal := val(x)
	if nesterovVal > gdVal {
		t.Errorf("Nesterov %v worse than GD %v", nesterovVal, gdVal)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	e := eng()
	n := 20
	q := quadratic{tx: make([]float64, n), ty: make([]float64, n)}
	x0 := make([]float64, n)
	y0 := make([]float64, n)
	for i := 0; i < n; i++ {
		q.tx[i] = 3
		q.ty[i] = -2
	}
	o := NewAdam(x0, y0, openBounds(n), 0.1)
	for it := 0; it < 2000; it++ {
		x, y := o.Positions()
		gx, gy := q.grad(x, y)
		o.Step(e, gx, gy)
	}
	x, y := o.Current()
	if v := q.value(x, y); v > 1e-4 {
		t.Errorf("Adam did not converge: f = %v", v)
	}
}

func TestBoundsClampAndFreeze(t *testing.T) {
	e := eng()
	n := 2
	b := openBounds(n)
	b.LoX[0], b.HiX[0] = 0, 5  // clamped cell
	b.LoX[1], b.HiX[1] = 1, -1 // frozen cell
	b.LoY[1], b.HiY[1] = 1, -1
	x0 := []float64{4, 7}
	y0 := []float64{0, 7}
	o := NewNesterov(x0, y0, b, 10)
	// Strong gradient pushing +x: positions must not exceed HiX / move frozen.
	for it := 0; it < 5; it++ {
		gx := []float64{-100, -100}
		gy := []float64{0, -100}
		o.Step(e, gx, gy)
	}
	ux, uy := o.Current()
	if ux[0] > 5+1e-12 {
		t.Errorf("cell 0 exceeded bound: %v", ux[0])
	}
	if ux[1] != 7 || uy[1] != 7 {
		t.Errorf("frozen cell moved to %v,%v", ux[1], uy[1])
	}
}

func TestNewBoundsFromDesign(t *testing.T) {
	d := netlist.NewDesign("b", geom.Rect{Hx: 100, Hy: 50})
	m := d.AddCell("m", 10, 4, 50, 25, netlist.Movable)
	f := d.AddCell("f", 10, 10, 20, 20, netlist.Fixed)
	wide := d.AddCell("w", 300, 4, 50, 25, netlist.Movable) // wider than region
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	b := NewBounds(d)
	if b.LoX[m] != 5 || b.HiX[m] != 95 || b.LoY[m] != 2 || b.HiY[m] != 48 {
		t.Errorf("movable bounds = %v %v %v %v", b.LoX[m], b.HiX[m], b.LoY[m], b.HiY[m])
	}
	if !b.frozen(f) {
		t.Error("fixed cell should be frozen")
	}
	if b.LoX[wide] != 50 || b.HiX[wide] != 50 {
		t.Errorf("over-wide cell should pin to center, got %v..%v", b.LoX[wide], b.HiX[wide])
	}
}

func TestPreconditioner(t *testing.T) {
	d := netlist.NewDesign("p", geom.Rect{Hx: 100, Hy: 100})
	a := d.AddCell("a", 2, 2, 10, 10, netlist.Movable) // area 4
	b := d.AddCell("b", 4, 4, 20, 20, netlist.Movable) // area 16
	d.AddNet("n1")
	d.AddPin(a, 0, 0)
	d.AddPin(b, 0, 0)
	d.AddNet("n2")
	d.AddPin(a, 0, 0)
	d.AddPin(b, 0, 0)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	p := NewPreconditioner(d)
	// avg movable area = 10; normalized areas 0.4 and 1.6; degrees 2, 2.
	if math.Abs(p.Area[a]-0.4) > 1e-12 || math.Abs(p.Area[b]-1.6) > 1e-12 {
		t.Errorf("areas = %v %v", p.Area[a], p.Area[b])
	}
	if p.Deg[a] != 2 || p.Deg[b] != 2 {
		t.Errorf("degrees = %v %v", p.Deg[a], p.Deg[b])
	}

	e := eng()
	gx := []float64{8, 8}
	gy := []float64{8, 8}
	lambda := 10.0
	p.Apply(e, lambda, gx, gy)
	// h_a = 2 + 10*0.4 = 6; h_b = 2 + 10*1.6 = 18.
	if math.Abs(gx[a]-8.0/6) > 1e-12 || math.Abs(gx[b]-8.0/18) > 1e-12 {
		t.Errorf("preconditioned = %v", gx)
	}
	_ = gy
}

func TestPreconditionerFloorAtOne(t *testing.T) {
	d := netlist.NewDesign("f", geom.Rect{Hx: 10, Hy: 10})
	a := d.AddCell("a", 0.1, 0.1, 5, 5, netlist.Movable) // tiny area, no nets
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	p := NewPreconditioner(d)
	e := eng()
	gx := []float64{4}
	gy := []float64{4}
	p.Apply(e, 0.0001, gx, gy)
	if gx[a] != 4 {
		t.Errorf("floor should keep gradient unchanged, got %v", gx[a])
	}
}

func TestOmegaMonotoneInLambda(t *testing.T) {
	d := netlist.NewDesign("o", geom.Rect{Hx: 10, Hy: 10})
	a := d.AddCell("a", 1, 1, 5, 5, netlist.Movable)
	b := d.AddCell("b", 1, 1, 6, 6, netlist.Movable)
	d.AddNet("n")
	d.AddPin(a, 0, 0)
	d.AddPin(b, 0, 0)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	p := NewPreconditioner(d)
	prev := -1.0
	for _, l := range []float64{0, 0.001, 0.1, 1, 10, 1e4} {
		w := p.Omega(l)
		if w < prev {
			t.Errorf("omega not monotone at lambda=%v: %v < %v", l, w, prev)
		}
		if w < 0 || w > 1 {
			t.Errorf("omega out of range: %v", w)
		}
		prev = w
	}
	if p.Omega(0) != 0 {
		t.Error("omega(0) should be 0")
	}
	if p.Omega(1e12) < 0.999 {
		t.Error("omega should approach 1 for huge lambda")
	}
}

func TestOptimizerInterfaces(t *testing.T) {
	var _ Optimizer = (*Nesterov)(nil)
	var _ Optimizer = (*Adam)(nil)
}

// TestNesterovStepFusedMatchesStep drives two Nesterov optimizers over a
// design with fixed (frozen) cells at one and three chunks: one takes Step,
// which launches optim.dist itself; the other is fed steplength partials
// from a caller's own launch (FuseDists, DistRange, StepFused), as the
// placer's fused gradient assembly feeds them. After every step both keep
// the pre-step lookahead and gradient as pv and pg for every cell, frozen
// ones included; their steplength is the one the distances give, summed
// per chunk in index order and folded in chunk order; and their states
// agree bit for bit.
func TestNesterovStepFusedMatchesStep(t *testing.T) {
	const n, steps = 3000, 8
	d := netlist.NewDesign("frozen", geom.Rect{Hx: 1000, Hy: 1000})
	rng := rand.New(rand.NewSource(7))
	frozen := 0
	for i := 0; i < n; i++ {
		kind := netlist.Movable
		if i%7 == 3 {
			kind = netlist.Fixed
			frozen++
		}
		d.AddCell("c", 2, 2, 1+998*rng.Float64(), 1+998*rng.Float64(), kind)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	b := NewBounds(d)
	// A gradient that depends on the point and the step, so successive
	// steps have distinct, non-trivial distances.
	grad := func(it int, x, y, gx, gy []float64) {
		for c := range x {
			gx[c] = 2*(x[c]-500) + 40*math.Sin(float64(c*(it+1))+y[c]/50)
			gy[c] = 2*(y[c]-500) + 40*math.Cos(float64(c+it)+x[c]/70)
		}
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("chunks=%d", workers), func(t *testing.T) {
			eRef := kernel.New(kernel.Options{Workers: workers})
			defer eRef.Close()
			eFused := kernel.New(kernel.Options{Workers: workers})
			defer eFused.Close()
			if c := eRef.Chunks(n); c != workers {
				t.Fatalf("Chunks(%d) = %d, want %d", n, c, workers)
			}
			bounds := make([][2]int, eRef.Chunks(n))
			eRef.LaunchChunks("test.bounds", n, func(w, lo, hi int) { bounds[w] = [2]int{lo, hi} })

			ref := NewNesterov(d.CellX, d.CellY, b, 5)
			fused := NewNesterov(d.CellX, d.CellY, b, 5)
			gx, gy := make([]float64, n), make([]float64, n)
			fgx, fgy := make([]float64, n), make([]float64, n)
			for it := 0; it < steps; it++ {
				pre := ref.State()
				x, y := ref.Positions()
				grad(it, x, y, gx, gy)
				fx, fy := fused.Positions()
				grad(it, fx, fy, fgx, fgy)

				// The steplength oracle: the two distances as the
				// standalone launch sums them.
				var want float64
				if it > 0 {
					var dv, dg float64
					for _, r := range bounds {
						var v, g float64
						for c := r[0]; c < r[1]; c++ {
							dx, dy := x[c]-pre.Vectors["pvx"][c], y[c]-pre.Vectors["pvy"][c]
							v += dx*dx + dy*dy
						}
						for c := r[0]; c < r[1]; c++ {
							dx, dy := gx[c]-pre.Vectors["pgx"][c], gy[c]-pre.Vectors["pgy"][c]
							g += dx*dx + dy*dy
						}
						dv += v
						dg += g
					}
					want = math.Sqrt(dv) / math.Sqrt(dg)
				}

				ref.Step(eRef, gx, gy)
				used := 0
				fuse := fused.FuseDists(eFused)
				if fuse != (it > 0) {
					t.Fatalf("step %d: FuseDists = %v", it, fuse)
				}
				if fuse {
					used = eFused.LaunchChunks("test.fused_grad", n, func(w, lo, hi int) {
						fused.DistRange(w, fgx, fgy, lo, hi)
					})
				}
				fused.StepFused(eFused, fgx, fgy, used)

				if it > 0 && (!same(ref.alpha, want) || !same(fused.alpha, want)) {
					t.Fatalf("step %d: alpha %v (Step), %v (StepFused), want %v", it, ref.alpha, fused.alpha, want)
				}
				if !same(ref.alpha, fused.alpha) {
					t.Fatalf("step %d: alpha %v (Step), %v (StepFused)", it, ref.alpha, fused.alpha)
				}
				got := ref.State()
				for c := 0; c < n; c++ {
					if !same(got.Vectors["pvx"][c], pre.Vectors["vx"][c]) || !same(got.Vectors["pvy"][c], pre.Vectors["vy"][c]) ||
						!same(got.Vectors["pgx"][c], gx[c]) || !same(got.Vectors["pgy"][c], gy[c]) {
						t.Fatalf("step %d, cell %d (frozen %v): pv (%v, %v) pg (%v, %v), want v (%v, %v) g (%v, %v)",
							it, c, b.frozen(c), got.Vectors["pvx"][c], got.Vectors["pvy"][c], got.Vectors["pgx"][c], got.Vectors["pgy"][c],
							pre.Vectors["vx"][c], pre.Vectors["vy"][c], gx[c], gy[c])
					}
				}
				other := fused.State()
				if !same(got.A, other.A) || got.Iter != other.Iter {
					t.Fatalf("step %d: a %v iter %d (Step), a %v iter %d (StepFused)", it, got.A, got.Iter, other.A, other.Iter)
				}
				for name, v := range got.Vectors {
					for c := range v {
						if !same(v[c], other.Vectors[name][c]) {
							t.Fatalf("step %d: %s[%d] = %v (Step), %v (StepFused)", it, name, c, v[c], other.Vectors[name][c])
						}
					}
				}
			}
			if got := eRef.Stats().PerOp["optim.dist"].Launches; got != steps-1 {
				t.Errorf("Step: %d optim.dist launches, want %d", got, steps-1)
			}
			if got := eFused.Stats().PerOp["optim.dist"].Launches; got != 0 {
				t.Errorf("StepFused: %d optim.dist launches, want 0", got)
			}
			if frozen == 0 {
				t.Fatal("no frozen cells: the case tests little")
			}
		})
	}
}
