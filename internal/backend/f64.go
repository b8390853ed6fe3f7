package backend

import "xplace/internal/kernel"

// f64Backend is the reference backend: the float64 pool implementation the
// stack was built on, now behind the Backend interface. Every body keeps
// the exact arithmetic of the pre-refactor inline loops, so paths running
// on it remain bit-identical to the hard-wired float64 code they replaced.
type f64Backend struct {
	kernels *Kernels
}

var ref = newF64()

func init() {
	Register(ref)
	Register(fast)
}

func newF64() *f64Backend {
	b := &f64Backend{kernels: NewKernels()}
	k := b.kernels
	// On the reference backend both conversions are plain copies: the
	// element type IS the facade type.
	k.Register("cvt.load", func() VecBody {
		var p f64Params
		return VecBody{Bind: p.bind, Run: func(lo, hi int) {
			copy(p.dst[lo:hi], p.a[lo:hi])
		}}
	})
	k.Register("cvt.store", func() VecBody {
		var p f64Params
		return VecBody{Bind: p.bind, Run: func(lo, hi int) {
			copy(p.dst[lo:hi], p.a[lo:hi])
		}}
	})
	return b
}

// f64Params is the staged parameter block shared by the reference bodies.
type f64Params struct {
	dst, a []float64
}

func (p *f64Params) bind(dst, a, _ Buf, _ float64) {
	p.dst, p.a = dst.f64, a.f64
}

func (b *f64Backend) Name() string      { return "float64" }
func (b *f64Backend) Kernels() *Kernels { return b.kernels }

func (b *f64Backend) Alloc(e *kernel.Engine, n int) Buf {
	return Buf{f64: e.Alloc(n)}
}

func (b *f64Backend) Free(e *kernel.Engine, buf Buf) {
	if buf.f64 != nil {
		e.Free(buf.f64)
	}
}
