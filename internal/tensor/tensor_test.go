package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"xplace/internal/kernel"
)

func ctx() *Context { return NewContext(kernel.New(kernel.Options{Workers: 2})) }

// fromSlice wraps data (not copied) in a 1-D tensor.
func fromSlice(data []float64) *Tensor { return &Tensor{Data: data, Shape: []int{len(data)}} }

// The operators below are the tests' own, built through Apply the way the
// baseline placer builds its wirelength and density operators, so the
// graphs Backward walks here are the graphs a user-defined loss makes.

// mul returns a * b (elementwise).
func mul(c *Context, a, b *Tensor) *Tensor {
	sameSize(a, b)
	return Apply(c, Op{
		Name: "mul",
		Forward: func(c *Context, in []*Tensor) *Tensor {
			out := New(a.Shape...)
			c.E.Launch("mul.fwd", a.Len(), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					out.Data[i] = in[0].Data[i] * in[1].Data[i]
				}
			})
			return out
		},
		Backward: func(c *Context, in []*Tensor, _ *Tensor, g []float64) {
			for k, other := range []*Tensor{in[1], in[0]} {
				if !in[k].NeedsGrad() {
					continue
				}
				gk := make([]float64, len(g))
				c.E.Launch("mul.bwd", len(g), func(lo, hi int) {
					for i := lo; i < hi; i++ {
						gk[i] = g[i] * other.Data[i]
					}
				})
				in[k].AccumulateGrad(gk)
			}
		},
	}, a, b)
}

// dot returns the scalar inner product <a, b>; sum(a) is dot(a, ones).
func dot(c *Context, a, b *Tensor) *Tensor {
	sameSize(a, b)
	return Apply(c, Op{
		Name: "dot",
		Forward: func(c *Context, in []*Tensor) *Tensor {
			out := New(1)
			out.Data[0] = c.E.ParallelReduce("dot.fwd", a.Len(), 0, func(lo, hi int) float64 {
				var s float64
				for i := lo; i < hi; i++ {
					s += in[0].Data[i] * in[1].Data[i]
				}
				return s
			}, func(x, y float64) float64 { return x + y })
			return out
		},
		Backward: func(c *Context, in []*Tensor, _ *Tensor, g []float64) {
			for k, other := range []*Tensor{in[1], in[0]} {
				if !in[k].NeedsGrad() {
					continue
				}
				gk := make([]float64, other.Len())
				c.E.Launch("dot.bwd", len(gk), func(lo, hi int) {
					for i := lo; i < hi; i++ {
						gk[i] = g[0] * other.Data[i]
					}
				})
				in[k].AccumulateGrad(gk)
			}
		},
	}, a, b)
}

func sum(c *Context, a *Tensor) *Tensor {
	ones := New(a.Shape...)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	return dot(c, a, ones)
}

// exp returns elementwise e^a.
func exp(c *Context, a *Tensor) *Tensor {
	return Apply(c, Op{
		Name: "exp",
		Forward: func(c *Context, in []*Tensor) *Tensor {
			out := New(a.Shape...)
			c.E.Launch("exp.fwd", a.Len(), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					out.Data[i] = math.Exp(in[0].Data[i])
				}
			})
			return out
		},
		Backward: func(c *Context, in []*Tensor, out *Tensor, g []float64) {
			ga := make([]float64, len(g))
			c.E.Launch("exp.bwd", len(g), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					ga[i] = g[i] * out.Data[i]
				}
			})
			in[0].AccumulateGrad(ga)
		},
	}, a)
}

func TestNew(t *testing.T) {
	a := New(2, 3)
	if a.Len() != 6 || len(a.Shape) != 2 {
		t.Fatalf("bad tensor %v", a.Shape)
	}
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("New must be zero-filled")
		}
	}
}

func TestNewPanicsOnNegativeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	New(-1)
}

func TestElementwiseForward(t *testing.T) {
	c := ctx()
	a := fromSlice([]float64{1, 2, 3})
	b := fromSlice([]float64{10, 20, 30})
	if got := Add(c, a, b).Data; got[2] != 33 {
		t.Errorf("Add = %v", got)
	}
	if got := Scale(c, a, -2).Data; got[2] != -6 {
		t.Errorf("Scale = %v", got)
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	Add(ctx(), fromSlice([]float64{1}), fromSlice([]float64{1, 2}))
}

func TestBackwardSimpleChain(t *testing.T) {
	// loss = sum((a+b) * a) ; dloss/da = 2a + b, dloss/db = a
	c := ctx()
	a := fromSlice([]float64{1, 2, 3}).RequiresGrad()
	b := fromSlice([]float64{4, 5, 6}).RequiresGrad()
	loss := sum(c, mul(c, Add(c, a, b), a))
	Backward(c, loss)
	wantA := []float64{2*1 + 4, 2*2 + 5, 2*3 + 6}
	wantB := []float64{1, 2, 3}
	for i := range wantA {
		if math.Abs(a.Grad[i]-wantA[i]) > 1e-12 {
			t.Errorf("a.Grad[%d] = %v, want %v", i, a.Grad[i], wantA[i])
		}
		if math.Abs(b.Grad[i]-wantB[i]) > 1e-12 {
			t.Errorf("b.Grad[%d] = %v, want %v", i, b.Grad[i], wantB[i])
		}
	}
}

func TestBackwardSharedSubexpression(t *testing.T) {
	// y = a*a used twice: loss = sum(y) + sum(y) -> dloss/da = 4a.
	c := ctx()
	a := fromSlice([]float64{1, -2, 3}).RequiresGrad()
	y := mul(c, a, a)
	loss := Add(c, sum(c, y), sum(c, y))
	Backward(c, loss)
	for i, v := range a.Data {
		if math.Abs(a.Grad[i]-4*v) > 1e-12 {
			t.Errorf("grad[%d] = %v, want %v", i, a.Grad[i], 4*v)
		}
	}
}

func TestBackwardScaleExpDot(t *testing.T) {
	// loss = dot(exp(2a), b); dloss/da = 2*exp(2a)*b.
	c := ctx()
	a := fromSlice([]float64{0.1, 0.2}).RequiresGrad()
	b := fromSlice([]float64{3, -1})
	loss := dot(c, exp(c, Scale(c, a, 2)), b)
	Backward(c, loss)
	for i := range a.Data {
		want := 2 * math.Exp(2*a.Data[i]) * b.Data[i]
		if math.Abs(a.Grad[i]-want) > 1e-12 {
			t.Errorf("grad[%d] = %v, want %v", i, a.Grad[i], want)
		}
	}
	if b.Grad != nil {
		t.Error("b does not require grad; must stay nil")
	}
}

// Property: autograd gradient of sum(a*a*s) matches the analytic 2*s*a for
// random vectors.
func TestBackwardMatchesAnalytic(t *testing.T) {
	f := func(vals []float64, s float64) bool {
		if len(vals) == 0 || len(vals) > 64 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
		}
		if math.IsNaN(s) || math.Abs(s) > 1e3 {
			return true
		}
		c := ctx()
		a := fromSlice(append([]float64(nil), vals...)).RequiresGrad()
		loss := Scale(c, sum(c, mul(c, a, a)), s)
		Backward(c, loss)
		for i := range vals {
			want := 2 * s * vals[i]
			tol := 1e-9 * (1 + math.Abs(want))
			if math.Abs(a.Grad[i]-want) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	c := ctx()
	a := fromSlice([]float64{1, 2}).RequiresGrad()
	Backward(c, Add(c, a, a))
}

// An in-place operator is a custom op whose forward writes into its input
// and returns it: on inputs that need no gradient it builds no graph and
// copies nothing.
func TestInPlaceOps(t *testing.T) {
	c := ctx()
	addInPlace := Op{
		Name: "add_",
		Forward: func(c *Context, in []*Tensor) *Tensor {
			a, b := in[0], in[1]
			sameSize(a, b)
			c.E.Launch("add_", a.Len(), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					a.Data[i] += b.Data[i]
				}
			})
			return a
		},
	}
	a := fromSlice([]float64{1, 2, 3})
	data := a.Data
	if out := Apply(c, addInPlace, a, fromSlice([]float64{10, 10, 10})); out != a || out.node != nil {
		t.Errorf("in-place op returned a new or graphed tensor")
	}
	if &a.Data[0] != &data[0] || a.Data[0] != 11 || a.Data[2] != 13 {
		t.Errorf("add_ = %v, want in place [11 12 13]", a.Data)
	}
}

func TestCustomOpApply(t *testing.T) {
	// A custom "square" op with hand-written backward, per Figure 2(b).
	square := Op{
		Name: "square",
		Forward: func(ctx *Context, in []*Tensor) *Tensor {
			a := in[0]
			out := New(a.Shape...)
			ctx.E.Launch("square.fwd", a.Len(), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					out.Data[i] = a.Data[i] * a.Data[i]
				}
			})
			return out
		},
		Backward: func(ctx *Context, in []*Tensor, out *Tensor, g []float64) {
			a := in[0]
			if !a.NeedsGrad() {
				return
			}
			ga := make([]float64, a.Len())
			ctx.E.Launch("square.bwd", a.Len(), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					ga[i] = 2 * a.Data[i] * g[i]
				}
			})
			a.AccumulateGrad(ga)
		},
	}
	c := ctx()
	a := fromSlice([]float64{3, -4}).RequiresGrad()
	loss := sum(c, Apply(c, square, a))
	Backward(c, loss)
	if a.Grad[0] != 6 || a.Grad[1] != -8 {
		t.Errorf("custom op grads = %v", a.Grad)
	}
}

// The launch-count assertion behind operator reduction: computing the same
// gradient through autograd must launch strictly more kernels than a fused
// hand-written gradient pass.
func TestAutogradLaunchesExceedHandWritten(t *testing.T) {
	n := 4096
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i%17) * 0.25
	}

	// Autograd route: loss = sum(a*a), Backward.
	eAuto := kernel.New(kernel.Options{Workers: 2})
	cAuto := NewContext(eAuto)
	a := fromSlice(append([]float64(nil), data...)).RequiresGrad()
	Backward(cAuto, sum(cAuto, mul(cAuto, a, a)))

	// Hand route: single fused kernel writes the gradient directly.
	eHand := kernel.New(kernel.Options{Workers: 2})
	grad := make([]float64, n)
	eHand.Launch("fused.grad", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			grad[i] = 2 * data[i]
		}
	})

	la, lh := eAuto.Stats().Launches, eHand.Stats().Launches
	if la <= lh {
		t.Errorf("autograd launches %d should exceed hand-written %d", la, lh)
	}
	for i := range grad {
		if math.Abs(grad[i]-a.Grad[i]) > 1e-12 {
			t.Fatalf("gradients disagree at %d: %v vs %v", i, grad[i], a.Grad[i])
		}
	}
}

func TestDoubleBackwardOverSharedGraph(t *testing.T) {
	// Running Backward twice over (parts of) the same graph must not let
	// stale interior gradients accumulate: grads after the second pass
	// must equal leaf-accumulated 2x the analytic value, not more.
	c := ctx()
	a := fromSlice([]float64{1, 2}).RequiresGrad()
	y := mul(c, a, a) // interior
	loss1 := sum(c, y)
	Backward(c, loss1)
	loss2 := sum(c, y) // shares the interior node y
	Backward(c, loss2)
	for i, v := range a.Data {
		want := 2 * (2 * v) // two accumulated passes of d(sum a^2)/da
		if math.Abs(a.Grad[i]-want) > 1e-12 {
			t.Errorf("grad[%d] = %v, want %v", i, a.Grad[i], want)
		}
	}
}

func TestZeroGrad(t *testing.T) {
	a := fromSlice([]float64{1, 2})
	a.AccumulateGrad([]float64{5, 5})
	a.ZeroGrad()
	if a.Grad[0] != 0 || a.Grad[1] != 0 {
		t.Error("ZeroGrad failed")
	}
}

func TestAccumulateGradMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	fromSlice([]float64{1, 2}).AccumulateGrad([]float64{1})
}
