package backend

import (
	"fmt"
	"sort"
)

// VecBody is one staged-parameter elementwise kernel body. Bind stages the
// destination, operands and scalar in the body's private parameter block;
// Run executes the half-open range [lo, hi) and has the exact signature
// kernel.Engine.Launch expects. A body is built once per consumer (each
// Make call returns fresh staged state) so steady-state Bind+Launch cycles
// are allocation-free — the same discipline as the hand-staged bodies in
// field and wirelength.
type VecBody struct {
	// Bind stages dst/a/b/s for the next Run. Operands a and b may be
	// unused by a given op (pass Buf{}).
	Bind func(dst, a, b Buf, s float64)
	// Run executes the op over [lo, hi).
	Run func(lo, hi int)
}

// BodyMaker constructs a fresh VecBody with its own staged parameters.
type BodyMaker func() VecBody

// Kernels is a backend's staged-parameter kernel-body registry. Every
// backend registers the boundary conversions under stable names:
//
//	cvt.load   dst[i] = elem(a.Float64()[i])   (into the backend's type)
//	cvt.store  dst.Float64()[i] = float64(a[i]) (out of the backend's type)
//
// plus any backend-specific bodies. Make panics on unknown names — a
// missing standard op is a programming error, not a runtime condition.
type Kernels struct {
	makers map[string]BodyMaker
}

// NewKernels returns an empty registry.
func NewKernels() *Kernels { return &Kernels{makers: map[string]BodyMaker{}} }

// Register adds a body maker under name, panicking on duplicates.
// Registration happens at backend construction (single-goroutine), so the
// map needs no lock; Make-side reads are concurrent-safe because the map
// is never mutated afterwards.
func (k *Kernels) Register(name string, mk BodyMaker) {
	if _, dup := k.makers[name]; dup {
		panic(fmt.Sprintf("backend: duplicate kernel body %q", name))
	}
	k.makers[name] = mk
}

// Make builds a fresh staged body for name.
func (k *Kernels) Make(name string) VecBody {
	mk := k.makers[name]
	if mk == nil {
		panic(fmt.Sprintf("backend: unknown kernel body %q (have %v)", name, k.Names()))
	}
	return mk()
}

// Has reports whether name is registered.
func (k *Kernels) Has(name string) bool { return k.makers[name] != nil }

// Names lists the registered body names, sorted.
func (k *Kernels) Names() []string {
	out := make([]string, 0, len(k.makers))
	for n := range k.makers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
