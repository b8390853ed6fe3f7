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
// passes that already exist — the tiled column gather/scatter converts in
// place, and rows stage through a per-chunk float64 buffer — so the only
// extra work is two cache-hot linear passes per row against a halved
// DRAM bill. Accuracy-wise the result carries float32 storage rounding
// per pass (~1e-7 relative), well inside the tolerance-banded goldens.

// Plan32 is the float32-backend analogue of Plan: 2-D DCT-II and the
// batched potential/field evaluation over float32 grid buffers, with
// per-chunk scratch and staged per-call parameters so steady-state
// transforms are allocation-free. Its matrices come from the engine
// arena's float32 pools and its staging scratch from the float64/complex128
// pools. Results match the float64 plan to
// float32 rounding (pinned by the goldens in spectral32_test.go).
type Plan32 struct {
	Nx, Ny int

	rowHalf *fftPlan // length Nx/2 (nil when Nx < 4)
	colHalf *fftPlan // length Ny/2 (nil when Ny < 4)

	cosHx, sinHx []float64
	cosHy, sinHy []float64
	unpX, unpY   []complex128

	mu   sync.Mutex
	tmp  []float32 // nx*ny intermediate (rows pass output)
	tmp2 []float32 // second intermediate for the batched field evaluation

	// Per-chunk scratch: the complex FFT buffer, float64 staging rows for
	// the mixed-precision row kernels, and the float64 column tiles.
	scratch  [][]complex128 // packed FFT buffer: max(nx,ny)/2
	rowIn    [][]float64    // converted input row: max(nx,ny)
	rowOut   [][]float64    // transformed row before store: max(nx,ny)
	rowReal  [][]float64    // scaled-coefficient row (field eval): max(nx,ny)
	tileIn   [][]float64    // gathered+converted columns: tileW*ny
	tileOut  [][]float64    // transformed columns: tileW*ny
	tileIn2  [][]float64    // gathered tmp2 columns (Ex input)
	tileOutB [][]float64    // Ex output columns
	tileOutC [][]float64    // Ey output columns

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
	p := &Plan32{Nx: nx, Ny: ny}
	p.cosHx, p.sinHx = halfTwiddles(nx)
	p.cosHy, p.sinHy = halfTwiddles(ny)
	if nx >= 4 {
		p.rowHalf = newFFTPlan(nx / 2)
	}
	if ny >= 4 {
		p.colHalf = newFFTPlan(ny / 2)
	}
	p.unpX = unpackTwiddles(nx)
	p.unpY = unpackTwiddles(ny)
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
		scratch := p.scratch[chunk]
		rin := p.rowIn[chunk][:nx]
		rout := p.rowOut[chunk][:nx]
		for y := lo; y < hi; y++ {
			load32(rin, p.src[y*nx:(y+1)*nx])
			if p.forward {
				dctIIMakhoul(rin, rout, p.rowHalf, scratch, p.unpX, p.cosHx, p.sinHx)
			} else {
				dctIIIMakhoul(rin, rout, false, p.rowHalf, scratch, p.unpX, p.cosHx, p.sinHx)
			}
			store32(p.tmp[y*nx:(y+1)*nx], rout)
		}
	}
	// Tiled column pass: the gather converts float32 intermediates into the
	// float64 column tiles (and the scatter converts back), so the
	// precision boundary costs no extra pass over the matrix.
	p.colsBody = func(chunk, lo, hi int) {
		ny := p.Ny
		scratch := p.scratch[chunk]
		tin := p.tileIn[chunk]
		tout := p.tileOut[chunk]
		for x0 := lo; x0 < hi; x0 += tileW {
			w := hi - x0
			if w > tileW {
				w = tileW
			}
			for y := 0; y < ny; y++ {
				base := y*nx + x0
				for b := 0; b < w; b++ {
					tin[b*ny+y] = float64(p.tmp[base+b])
				}
			}
			for b := 0; b < w; b++ {
				col := tin[b*ny : (b+1)*ny]
				out := tout[b*ny : (b+1)*ny]
				if p.forward {
					dctIIMakhoul(col, out, p.colHalf, scratch, p.unpY, p.cosHy, p.sinHy)
				} else {
					dctIIIMakhoul(col, out, false, p.colHalf, scratch, p.unpY, p.cosHy, p.sinHy)
				}
			}
			for y := 0; y < ny; y++ {
				base := y*nx + x0
				for b := 0; b < w; b++ {
					p.dst[base+b] = float32(tout[b*ny+y])
				}
			}
		}
	}
	// Batched field evaluation, same two-pass structure as the float64 plan.
	p.fieldRowsBody = func(chunk, lo, hi int) {
		scratch := p.scratch[chunk]
		rin := p.rowIn[chunk][:nx]
		rout := p.rowOut[chunk][:nx]
		srow := p.rowReal[chunk][:nx]
		for v := lo; v < hi; v++ {
			load32(rin, p.coefIn[v*nx:(v+1)*nx])
			dctIIIMakhoul(rin, rout, false, p.rowHalf, scratch, p.unpX, p.cosHx, p.sinHx)
			store32(p.tmp[v*nx:(v+1)*nx], rout)
			for u := 0; u < nx; u++ {
				srow[u] = rin[u] * p.sx[u]
			}
			dctIIIMakhoul(srow, rout, true, p.rowHalf, scratch, p.unpX, p.cosHx, p.sinHx)
			store32(p.tmp2[v*nx:(v+1)*nx], rout)
		}
	}
	p.fieldColsBody = func(chunk, lo, hi int) {
		ny := p.Ny
		scratch := p.scratch[chunk]
		tA := p.tileIn[chunk]
		tB := p.tileIn2[chunk]
		tPsi := p.tileOut[chunk]
		tEx := p.tileOutB[chunk]
		tEy := p.tileOutC[chunk]
		eyIn := p.rowReal[chunk][:ny]
		for x0 := lo; x0 < hi; x0 += tileW {
			w := hi - x0
			if w > tileW {
				w = tileW
			}
			for y := 0; y < ny; y++ {
				base := y*nx + x0
				for b := 0; b < w; b++ {
					tA[b*ny+y] = float64(p.tmp[base+b])
					tB[b*ny+y] = float64(p.tmp2[base+b])
				}
			}
			for b := 0; b < w; b++ {
				colA := tA[b*ny : (b+1)*ny]
				if p.dstPsi != nil {
					dctIIIMakhoul(colA, tPsi[b*ny:(b+1)*ny], false, p.colHalf, scratch, p.unpY, p.cosHy, p.sinHy)
				}
				for v := 0; v < ny; v++ {
					eyIn[v] = colA[v] * p.sy[v]
				}
				dctIIIMakhoul(eyIn, tEy[b*ny:(b+1)*ny], true, p.colHalf, scratch, p.unpY, p.cosHy, p.sinHy)
				dctIIIMakhoul(tB[b*ny:(b+1)*ny], tEx[b*ny:(b+1)*ny], false, p.colHalf, scratch, p.unpY, p.cosHy, p.sinHy)
			}
			for y := 0; y < ny; y++ {
				base := y*nx + x0
				for b := 0; b < w; b++ {
					p.dstEx[base+b] = float32(tEx[b*ny+y])
					p.dstEy[base+b] = float32(tEy[b*ny+y])
				}
			}
			if p.dstPsi != nil {
				for y := 0; y < ny; y++ {
					base := y*nx + x0
					for b := 0; b < w; b++ {
						p.dstPsi[base+b] = float32(tPsi[b*ny+y])
					}
				}
			}
		}
	}
}

func (p *Plan32) checkSize(buf []float32, what string) {
	if len(buf) != p.Nx*p.Ny {
		panic(fmt.Sprintf("dct: %s has %d elements, want %d", what, len(buf), p.Nx*p.Ny))
	}
}

// ensure grows the plan's scratch for use with e. Called with p.mu held.
func (p *Plan32) ensure(e *kernel.Engine) {
	w := e.Workers()
	if p.tmp != nil && len(p.scratch) >= w {
		return
	}
	if p.tmp == nil {
		p.tmp = e.Alloc32(p.Nx * p.Ny)
	}
	maxN := p.Nx
	if p.Ny > maxN {
		maxN = p.Ny
	}
	colN := tileW * p.Ny
	for len(p.scratch) < w {
		p.scratch = append(p.scratch, e.AllocComplex(max(maxN/2, 1)))
		p.rowIn = append(p.rowIn, e.Alloc(maxN))
		p.rowOut = append(p.rowOut, e.Alloc(maxN))
		p.rowReal = append(p.rowReal, e.Alloc(maxN))
		p.tileIn = append(p.tileIn, e.Alloc(colN))
		p.tileOut = append(p.tileOut, e.Alloc(colN))
	}
	if p.tmp2 != nil {
		p.ensureField(e)
	}
}

func (p *Plan32) ensureField(e *kernel.Engine) {
	if p.tmp2 == nil {
		p.tmp2 = e.Alloc32(p.Nx * p.Ny)
	}
	colN := tileW * p.Ny
	for len(p.tileIn2) < e.Workers() {
		p.tileIn2 = append(p.tileIn2, e.Alloc(colN))
		p.tileOutB = append(p.tileOutB, e.Alloc(colN))
		p.tileOutC = append(p.tileOutC, e.Alloc(colN))
	}
}

// Release returns every scratch buffer to e's arena and drops the
// references. Idempotent; the plan stays usable (the next transform
// re-ensures its scratch).
func (p *Plan32) Release(e *kernel.Engine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e.Free32(p.tmp)
	e.Free32(p.tmp2)
	p.tmp, p.tmp2 = nil, nil
	for _, b := range p.scratch {
		e.FreeComplex(b)
	}
	p.scratch = nil
	freeFs := func(bufs [][]float64) {
		for _, b := range bufs {
			e.Free(b)
		}
	}
	freeFs(p.rowIn)
	freeFs(p.rowOut)
	freeFs(p.rowReal)
	freeFs(p.tileIn)
	freeFs(p.tileOut)
	freeFs(p.tileIn2)
	freeFs(p.tileOutB)
	freeFs(p.tileOutC)
	p.rowIn, p.rowOut, p.rowReal = nil, nil, nil
	p.tileIn, p.tileOut = nil, nil
	p.tileIn2, p.tileOutB, p.tileOutC = nil, nil, nil
}

// run executes the two-pass transform with staged parameters; p.mu held.
func (p *Plan32) run(e *kernel.Engine, rowsName, colsName string) {
	p.ensure(e)
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
	p.ensure(e)
	p.ensureField(e)
	p.coefIn, p.sx, p.sy = coef, sx, sy
	p.dstPsi, p.dstEx, p.dstEy = psi, ex, ey
	e.LaunchLines("spectral32.field_rows", p.Ny, p.Nx, p.fieldRowsBody)
	e.LaunchLines("spectral32.field_cols", p.Nx, p.Ny, p.fieldColsBody)
	p.dstPsi, p.dstEx, p.dstEy = nil, nil, nil
	p.coefIn, p.sx, p.sy = nil, nil, nil
}
