package backend

import "xplace/internal/kernel"

// f32Backend is the reduced-precision fast path: buffers are float32 (half
// the memory traffic of the reference backend through cache-bound kernels)
// and the cvt.* bodies round across the float64 boundary. The
// density-equalization field tolerates the precision loss (FFTPL's
// observation); exactness-sensitive results are gated by the
// tolerance-banded goldens instead of the bit-identical determinism tests.
type f32Backend struct {
	kernels *Kernels
}

var fast = newF32()

func newF32() *f32Backend {
	b := &f32Backend{kernels: NewKernels()}
	k := b.kernels
	k.Register("cvt.load", func() VecBody {
		var p f32Params
		return VecBody{Bind: p.bind, Run: func(lo, hi int) {
			dst, src := p.dst, p.a64
			for i := lo; i < hi; i++ {
				dst[i] = float32(src[i])
			}
		}}
	})
	k.Register("cvt.store", func() VecBody {
		var p f32Params
		return VecBody{Bind: p.bind, Run: func(lo, hi int) {
			dst, src := p.dst64, p.a
			for i := lo; i < hi; i++ {
				dst[i] = float64(src[i])
			}
		}}
	})
	return b
}

// f32Params is the staged parameter block shared by the fast-path bodies.
// The float64 views are populated alongside the float32 ones so the cvt.*
// bodies can cross the boundary without a separate bind shape.
type f32Params struct {
	dst, a     []float32
	dst64, a64 []float64
}

func (p *f32Params) bind(dst, a, _ Buf, _ float64) {
	p.dst, p.a = dst.f32, a.f32
	p.dst64, p.a64 = dst.f64, a.f64
}

func (b *f32Backend) Name() string      { return "float32" }
func (b *f32Backend) Kernels() *Kernels { return b.kernels }

func (b *f32Backend) Alloc(e *kernel.Engine, n int) Buf {
	return Buf{f32: e.Alloc32(n)}
}

func (b *f32Backend) Free(e *kernel.Engine, buf Buf) {
	if buf.f32 != nil {
		e.Free32(buf.f32)
	}
}
