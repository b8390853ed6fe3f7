// Package tensor is a miniature differentiable tensor library — the
// reproduction's stand-in for PyTorch. Tensors are flat float64 buffers
// with a shape; operators execute through a kernel.Engine so that every
// forward *and backward* operator costs one kernel launch, exactly the
// accounting the paper's operator-reduction (OR) analysis depends on:
// building a loss from small autograd ops roughly doubles the launch count
// relative to hand-derived gradients.
//
// The library supports reverse-mode automatic differentiation (Backward)
// over the two built-in operators the DREAMPlace-style baseline assembles
// its loss from (Add, Scale) and user-defined operators with custom
// forward/backward kernels (the Figure 2(b) extension path: a user loss is
// differentiated by autograd and its gradient accumulated onto numerically
// computed gradients).
package tensor

import (
	"fmt"

	"xplace/internal/kernel"
)

// Context carries the execution engine. A nil Context is invalid; use
// NewContext.
type Context struct {
	E *kernel.Engine
}

// NewContext returns a Context executing on e.
func NewContext(e *kernel.Engine) *Context { return &Context{E: e} }

// Tensor is an n-dimensional array of float64. Data is row-major.
type Tensor struct {
	Data  []float64
	Shape []int

	requiresGrad bool
	// Grad is allocated lazily by Backward (or AccumulateGrad).
	Grad []float64
	node *node
}

// node records how a tensor was produced for reverse-mode autodiff.
type node struct {
	name     string
	parents  []*Tensor
	backward func(ctx *Context, gradOut []float64)
}

// New returns a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dim in shape %v", shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Data: make([]float64, n), Shape: s}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// RequiresGrad marks t as a leaf variable whose gradient should be
// accumulated by Backward. Returns t for chaining.
func (t *Tensor) RequiresGrad() *Tensor {
	t.requiresGrad = true
	return t
}

// NeedsGrad reports whether t participates in autograd (leaf or interior).
func (t *Tensor) NeedsGrad() bool { return t.requiresGrad || t.node != nil }

// ZeroGrad clears t's gradient buffer.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// AccumulateGrad adds g into t's gradient, allocating it if needed.
func (t *Tensor) AccumulateGrad(g []float64) {
	if t.Grad == nil {
		t.Grad = make([]float64, len(t.Data))
	}
	if len(g) != len(t.Grad) {
		panic(fmt.Sprintf("tensor: grad size %d != %d", len(g), len(t.Grad)))
	}
	for i, v := range g {
		t.Grad[i] += v
	}
}

func sameSize(a, b *Tensor) {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: size mismatch %d vs %d", len(a.Data), len(b.Data)))
	}
}

// attach wires an output tensor into the autograd graph unless no parent
// needs gradients.
func attach(ctx *Context, out *Tensor, name string, backward func(ctx *Context, gradOut []float64), parents ...*Tensor) {
	need := false
	for _, p := range parents {
		if p.NeedsGrad() {
			need = true
			break
		}
	}
	if !need {
		return
	}
	out.node = &node{name: name, parents: parents, backward: backward}
}

// Add returns a + b (elementwise), one kernel forward and — if gradients
// flow — one kernel per input backward.
func Add(ctx *Context, a, b *Tensor) *Tensor {
	sameSize(a, b)
	out := New(a.Shape...)
	ctx.E.Launch("add.fwd", a.Len(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = a.Data[i] + b.Data[i]
		}
	})
	attach(ctx, out, "add", func(ctx *Context, g []float64) {
		if a.NeedsGrad() {
			ga := ctx.E.Alloc(len(g))
			ctx.E.Launch("add.bwd", len(g), func(lo, hi int) {
				copy(ga[lo:hi], g[lo:hi])
			})
			a.AccumulateGrad(ga)
			ctx.E.Free(ga)
		}
		if b.NeedsGrad() {
			gb := ctx.E.Alloc(len(g))
			ctx.E.Launch("add.bwd", len(g), func(lo, hi int) {
				copy(gb[lo:hi], g[lo:hi])
			})
			b.AccumulateGrad(gb)
			ctx.E.Free(gb)
		}
	}, a, b)
	return out
}

// Scale returns s * a.
func Scale(ctx *Context, a *Tensor, s float64) *Tensor {
	out := New(a.Shape...)
	ctx.E.Launch("scale.fwd", a.Len(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = a.Data[i] * s
		}
	})
	attach(ctx, out, "scale", func(ctx *Context, g []float64) {
		ga := ctx.E.Alloc(len(g))
		ctx.E.Launch("scale.bwd", len(g), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ga[i] = g[i] * s
			}
		})
		a.AccumulateGrad(ga)
		ctx.E.Free(ga)
	}, a)
	return out
}

// Op is a user-defined differentiable operator: Forward fills out given the
// inputs, Backward accumulates input gradients given the output gradient.
// Both run as kernels named after the op (this is how the wirelength and
// density operators of the baseline placer plug into autograd).
type Op struct {
	Name string
	// Forward computes the op's output tensor from the inputs.
	Forward func(ctx *Context, inputs []*Tensor) *Tensor
	// Backward receives the upstream gradient and must call
	// AccumulateGrad on any input that NeedsGrad.
	Backward func(ctx *Context, inputs []*Tensor, out *Tensor, gradOut []float64)
}

// Apply runs op and wires it into the graph.
func Apply(ctx *Context, op Op, inputs ...*Tensor) *Tensor {
	out := op.Forward(ctx, inputs)
	attach(ctx, out, op.Name, func(ctx *Context, g []float64) {
		op.Backward(ctx, inputs, out, g)
	}, inputs...)
	return out
}

// Backward runs reverse-mode autodiff from t (which must be scalar, shape
// [1]) and accumulates gradients into every reachable tensor that
// NeedsGrad. This is the "heavy autograd engine" of §3.1.3: every op's
// backward launches its own kernels.
func Backward(ctx *Context, t *Tensor) {
	if t.Len() != 1 {
		panic("tensor: Backward requires a scalar loss")
	}
	// Topological order via DFS.
	var order []*Tensor
	visited := map[*Tensor]bool{}
	var visit func(x *Tensor)
	visit = func(x *Tensor) {
		if visited[x] || x.node == nil {
			return
		}
		visited[x] = true
		for _, p := range x.node.parents {
			visit(p)
		}
		order = append(order, x)
	}
	visit(t)

	// Interior (non-leaf) gradients are per-backward state: clear them so
	// a second Backward over a shared graph does not accumulate stale
	// upstream gradients. Leaf tensors keep PyTorch's accumulate-across-
	// calls semantics.
	for _, x := range order {
		x.Grad = nil
	}

	grads := map[*Tensor][]float64{t: {1}}
	for i := len(order) - 1; i >= 0; i-- {
		x := order[i]
		g := grads[x]
		if g == nil {
			continue
		}
		// Leaf accumulation happens inside each op's backward via
		// AccumulateGrad; interior gradients flow through the map. To keep
		// both uniform, ops call AccumulateGrad, and we lift interior
		// tensors' Grad into the map for their own backward pass.
		x.node.backward(ctx, g)
		for _, p := range x.node.parents {
			if p.node != nil && p.Grad != nil {
				grads[p] = p.Grad
			}
		}
	}
}
