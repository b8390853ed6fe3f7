package dct

import (
	"fmt"
	"sync"

	"xplace/internal/kernel"
)

// This file is the float32 spectral engine behind the reduced-precision
// compute backend: Plan32, the per-backend Makhoul plan whose grid-sized
// matrices (input, coefficients, intermediates, outputs) are float32.
//
// The design is mixed-precision: STORAGE is float32, COMPUTE is float64.
// The 2-D transform cost on large grids splits into (a) streaming the
// N x N matrices through the rows/columns passes — memory-bound, and
// exactly halved by float32 storage — and (b) the 1-D FFT kernels on
// cache-resident rows, which are ALU-bound: scalar float32 butterflies
// are no faster than float64 on amd64 (no auto-vectorization, and
// complex64 multiplies even promote through float64), so the row kernels
// run in float64 registers on small staging buffers. Conversions ride on
// passes that already exist — the column kernels convert each value as
// they read it into their complex block and as they store a result, and
// rows stage through a per-chunk float64 buffer — so the only extra work
// is two cache-hot linear passes per row against a halved DRAM bill.
// Accuracy-wise the result carries float32 storage rounding per pass
// (~1e-7 relative), well inside the tolerance-banded goldens.

// Plan32 is the float32-backend analogue of Plan: 2-D DCT-II and the
// batched potential/field evaluation over float32 grid buffers, with
// per-chunk scratch and staged per-call parameters so steady-state
// transforms are allocation-free. Its matrices come from the engine
// arena's float32 pools and its staging scratch from the float64/complex128
// pools. Results match the float64 plan to
// float32 rounding (pinned by the goldens in spectral32_test.go).
type Plan32 struct {
	Nx, Ny int

	// Line-kernel tables along x (rows, length Nx) and y (columns, Ny).
	ax, ay axis

	mu sync.Mutex
	// Guarded by mu: the float32 intermediates, and per chunk the complex
	// row FFT buffer, the float64 staging rows of the mixed-precision row
	// kernels (rowIn, rowOut, and rowReal for the scaled-coefficient row)
	// and the complex column block.
	planScratch[float32]

	// Staged per-call parameters.
	src, dst             []float32
	forward              bool
	coefIn               []float32
	sx, sy               []float64
	dstPsi, dstEx, dstEy []float32

	rowsBody, colsBody           func(chunk, start, end int)
	fieldRowsBody, fieldColsBody func(chunk, start, end int)
}

// NewPlan32 creates a float32-backend transform plan for an Nx x Ny
// grid (both powers of two).
func NewPlan32(nx, ny int) *Plan32 {
	if nx <= 0 || ny <= 0 || nx&(nx-1) != 0 || ny&(ny-1) != 0 {
		panic(fmt.Sprintf("dct: grid %dx%d must be powers of two", nx, ny))
	}
	p := &Plan32{Nx: nx, Ny: ny, ax: newAxis(nx), ay: newAxis(ny)}
	p.buildBodies()
	return p
}

// load32 converts a float32 row into the float64 staging buffer.
func load32(dst []float64, src []float32) {
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// store32 rounds a float64 staging buffer into a float32 row.
func store32(dst []float32, src []float64) {
	for i, v := range src {
		dst[i] = float32(v)
	}
}

func (p *Plan32) buildBodies() {
	nx := p.Nx
	p.rowsBody = func(chunk, lo, hi int) {
		ls := &p.lines[chunk]
		scratch, rin, rout := ls.fft, ls.rowIn[:nx], ls.rowOut[:nx]
		for y := lo; y < hi; y++ {
			load32(rin, p.src[y*nx:(y+1)*nx])
			if p.forward {
				dctIIMakhoul(rin, rout, &p.ax, scratch)
			} else {
				dctIIIMakhoul(rin, rout, false, &p.ax, scratch)
			}
			store32(p.tmp[y*nx:(y+1)*nx], rout)
		}
	}
	// The column kernels read the float32 intermediates as float64 and
	// round their results to float32 as they store them.
	p.colsBody = func(chunk, lo, hi int) {
		columns(p.tmp, p.dst, p.forward, nx, lo, hi, &p.ay, p.lines[chunk].block)
	}
	// Batched field evaluation, same two-pass structure as the float64 plan.
	p.fieldRowsBody = func(chunk, lo, hi int) {
		ls := &p.lines[chunk]
		scratch, rin, rout, srow := ls.fft, ls.rowIn[:nx], ls.rowOut[:nx], ls.rowReal[:nx]
		for v := lo; v < hi; v++ {
			load32(rin, p.coefIn[v*nx:(v+1)*nx])
			dctIIIMakhoul(rin, rout, false, &p.ax, scratch)
			store32(p.tmp[v*nx:(v+1)*nx], rout)
			for u := 0; u < nx; u++ {
				srow[u] = rin[u] * p.sx[u]
			}
			dctIIIMakhoul(srow, rout, true, &p.ax, scratch)
			store32(p.tmp2[v*nx:(v+1)*nx], rout)
		}
	}
	p.fieldColsBody = func(chunk, lo, hi int) {
		fieldColumns(p.tmp, p.tmp2, p.dstPsi, p.dstEx, p.dstEy, p.sy, nx, lo, hi, &p.ay, p.lines[chunk].block)
	}
}

func (p *Plan32) checkSize(buf []float32, what string) {
	if len(buf) != p.Nx*p.Ny {
		panic(fmt.Sprintf("dct: %s has %d elements, want %d", what, len(buf), p.Nx*p.Ny))
	}
}

// Release returns every scratch buffer to e's arena and drops the
// references. Idempotent; the plan stays usable (the next transform
// checks its scratch out again).
func (p *Plan32) Release(e *kernel.Engine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free(e)
}

// run executes the two-pass transform with staged parameters; p.mu held.
func (p *Plan32) run(e *kernel.Engine, rowsName, colsName string) {
	p.grow(e, p.Nx, p.Ny, false)
	e.LaunchLines(rowsName, p.Ny, p.Nx, p.rowsBody)
	e.LaunchLines(colsName, p.Nx, p.Ny, p.colsBody)
	p.src, p.dst = nil, nil
}

// DCT2 computes the unnormalized 2-D DCT-II of src into dst (which may
// alias), the float32-backend counterpart of Plan.DCT2.
func (p *Plan32) DCT2(src, dst []float32, e *kernel.Engine) {
	p.checkSize(src, "src")
	p.checkSize(dst, "dst")
	p.mu.Lock()
	defer p.mu.Unlock()
	p.src, p.dst, p.forward = src, dst, true
	p.run(e, "spectral32.fwd_rows", "spectral32.fwd_cols")
}

// EvalCosCos evaluates the cos-cos series (inverse DCT direction).
func (p *Plan32) EvalCosCos(coef, dst []float32, e *kernel.Engine) {
	p.checkSize(coef, "coef")
	p.checkSize(dst, "dst")
	p.mu.Lock()
	defer p.mu.Unlock()
	p.src, p.dst, p.forward = coef, dst, false
	p.run(e, "spectral32.coscos_rows", "spectral32.coscos_cols")
}

// EvalPotentialField evaluates ex/ey (and psi unless it is nil) in one
// batched two-pass sweep, the float32-backend counterpart of
// Plan.EvalPotentialField. The scale vectors sx (length Nx) and sy (length
// Ny) stay float64 — they are the solver's precomputed spatial frequencies,
// not grid-sized data.
func (p *Plan32) EvalPotentialField(coef []float32, sx, sy []float64, psi, ex, ey []float32, e *kernel.Engine) {
	p.checkSize(coef, "coef")
	if psi != nil {
		p.checkSize(psi, "psi")
	}
	p.checkSize(ex, "ex")
	p.checkSize(ey, "ey")
	if len(sx) != p.Nx || len(sy) != p.Ny {
		panic(fmt.Sprintf("dct: scale vectors %dx%d, want %dx%d", len(sx), len(sy), p.Nx, p.Ny))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.grow(e, p.Nx, p.Ny, true)
	p.coefIn, p.sx, p.sy = coef, sx, sy
	p.dstPsi, p.dstEx, p.dstEy = psi, ex, ey
	e.LaunchLines("spectral32.field_rows", p.Ny, p.Nx, p.fieldRowsBody)
	e.LaunchLines("spectral32.field_cols", p.Nx, p.Ny, p.fieldColsBody)
	p.dstPsi, p.dstEx, p.dstEy = nil, nil, nil
	p.coefIn, p.sx, p.sy = nil, nil, nil
}
