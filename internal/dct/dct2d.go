package dct

import (
	"fmt"
	"math"
	"sync"

	"xplace/internal/kernel"
)

// tileW is the column-tile width of the column pass: the cache-blocked
// transpose gathers tileW adjacent columns per block so every read of the
// intermediate matrix is a contiguous tileW-wide run instead of a stride-Nx
// element gather. 16 float64 = two cache lines per row touched.
const tileW = 16

// Plan holds precomputed state for 2-D transforms on an Nx x Ny grid
// (row-major indexing: f[y*Nx+x]). Both dimensions must be powers of two.
//
// A Plan owns all scratch for its transforms — the intermediate matrices
// and one lineScratch record (FFT buffer, staging row, column tiles) per
// chunk — so steady-state transforms perform no heap allocations. Scratch
// is checked out of the arena of the engine the transforms run on, keeping
// the bytes visible in the engine's accounting; Release gives it back.
// Transforms are serialized by an internal mutex, keeping a Plan safe for
// concurrent use.
//
// The row kernels are Makhoul's real-even transforms — the forward DCT-II
// and the cosine/sine series evaluation each run one packed length-N/2
// complex FFT per line (see makhoul.go) — and the column pass is a
// cache-blocked transpose (tileW columns per block).
type Plan struct {
	Nx, Ny int

	// Packed real-even FFT plans.
	rowHalf *fftPlan // length Nx/2 (nil when Nx < 4)
	colHalf *fftPlan // length Ny/2 (nil when Ny < 4)

	// Half-angle twiddles cos/sin(pi*k/(2N)), precomputed once.
	cosHx, sinHx []float64
	cosHy, sinHy []float64

	// Real-FFT unpack twiddles e^{-2*pi*i*k/N}, k = 0..N/2-1.
	unpX, unpY []complex128

	mu sync.Mutex
	// Guarded by mu: the intermediates and the per-chunk line scratch.
	planScratch[float64]

	// Per-transform parameters consumed by the persistent bodies. Stored in
	// fields (rather than captured by per-call closures) so launching a
	// transform does not allocate.
	src, dst []float64
	forward  bool

	// Batched field-evaluation parameters.
	coefIn, sx, sy       []float64
	dstPsi, dstEx, dstEy []float64

	// One-kernel Poisson solve parameters (SolvePoisson).
	scale     func(start, end int) float64
	energy    float64
	solveBody func()

	rowsBody, colsBody           func(chunk, start, end int)
	fieldRowsBody, fieldColsBody func(chunk, start, end int)
}

// NewPlan creates a transform plan for an Nx x Ny grid.
func NewPlan(nx, ny int) *Plan {
	if nx <= 0 || ny <= 0 || nx&(nx-1) != 0 || ny&(ny-1) != 0 {
		panic(fmt.Sprintf("dct: grid %dx%d must be powers of two", nx, ny))
	}
	p := &Plan{Nx: nx, Ny: ny}
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
	p.buildFieldBodies()
	p.solveBody = func() {
		nx, ny := p.Nx, p.Ny
		p.forward = true
		p.rowsBody(0, 0, ny)
		p.colsBody(0, 0, nx)
		p.energy = p.scale(0, ny)
		p.fieldRowsBody(0, 0, ny)
		p.fieldColsBody(0, 0, nx)
	}
	return p
}

// unpackTwiddles returns e^{-2*pi*i*k/n} for k = 0..n/2-1 (the real-FFT
// unpack rotation of dctIIMakhoul; dctIIIMakhoul's packing uses its
// conjugate).
func unpackTwiddles(n int) []complex128 {
	m := n / 2
	if m < 1 {
		m = 1
	}
	w := make([]complex128, m)
	for k := range w {
		ang := -2 * math.Pi * float64(k) / float64(n)
		w[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	return w
}

func (p *Plan) buildBodies() {
	nx := p.Nx
	p.rowsBody = func(chunk, lo, hi int) {
		scratch := p.lines[chunk].fft
		if p.forward {
			for y := lo; y < hi; y++ {
				dctIIMakhoul(p.src[y*nx:(y+1)*nx], p.tmp[y*nx:(y+1)*nx], p.rowHalf, scratch, p.unpX, p.cosHx, p.sinHx)
			}
		} else {
			for v := lo; v < hi; v++ {
				dctIIIMakhoul(p.src[v*nx:(v+1)*nx], p.tmp[v*nx:(v+1)*nx], false, p.rowHalf, scratch, p.unpX, p.cosHx, p.sinHx)
			}
		}
	}
	// Tiled column pass: gather tileW columns into contiguous buffers
	// (reading the intermediate matrix row by row), run the row kernel on
	// each buffered column, scatter back — a per-column element-wise gather
	// would miss a fresh cache line on every read.
	p.colsBody = func(chunk, lo, hi int) {
		ny := p.Ny
		ls := &p.lines[chunk]
		scratch, tin, tout := ls.fft, ls.tileIn, ls.tileOut
		for x0 := lo; x0 < hi; x0 += tileW {
			w := hi - x0
			if w > tileW {
				w = tileW
			}
			for y := 0; y < ny; y++ {
				base := y*nx + x0
				for b := 0; b < w; b++ {
					tin[b*ny+y] = p.tmp[base+b]
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
					p.dst[base+b] = tout[b*ny+y]
				}
			}
		}
	}
}

// buildFieldBodies wires the batched potential/field evaluation: the
// Poisson outputs (Ex, Ey, and Psi when asked for) in one two-pass sweep.
func (p *Plan) buildFieldBodies() {
	nx := p.Nx
	// Rows pass (per coefficient row v): the cos-x series of coef feeds both
	// Psi and Ey (Ey's extra factor sy[v] is constant within a row, so it is
	// applied in the column pass), and the sin-x series of coef*sx feeds Ex.
	// Two packed length-Nx/2 inverse FFTs per row.
	p.fieldRowsBody = func(chunk, lo, hi int) {
		ls := &p.lines[chunk]
		scratch, srow := ls.fft, ls.rowReal[:nx]
		for v := lo; v < hi; v++ {
			row := p.coefIn[v*nx : (v+1)*nx]
			dctIIIMakhoul(row, p.tmp[v*nx:(v+1)*nx], false, p.rowHalf, scratch, p.unpX, p.cosHx, p.sinHx)
			for u := 0; u < nx; u++ {
				srow[u] = row[u] * p.sx[u]
			}
			dctIIIMakhoul(srow, p.tmp2[v*nx:(v+1)*nx], true, p.rowHalf, scratch, p.unpX, p.cosHx, p.sinHx)
		}
	}
	// Columns pass (per column x, tiled): sin-y of sy*tmp -> Ey, cos-y of
	// tmp2 -> Ex, and cos-y of tmp -> Psi when dstPsi is set. One gather and
	// one scatter serve every output.
	p.fieldColsBody = func(chunk, lo, hi int) {
		ny := p.Ny
		ls := &p.lines[chunk]
		scratch, eyIn := ls.fft, ls.rowReal[:ny]
		tA, tB, tPsi, tEx, tEy := ls.tileIn, ls.tileIn2, ls.tileOut, ls.tileOutB, ls.tileOutC
		for x0 := lo; x0 < hi; x0 += tileW {
			w := hi - x0
			if w > tileW {
				w = tileW
			}
			for y := 0; y < ny; y++ {
				base := y*nx + x0
				for b := 0; b < w; b++ {
					tA[b*ny+y] = p.tmp[base+b]
					tB[b*ny+y] = p.tmp2[base+b]
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
					p.dstEx[base+b] = tEx[b*ny+y]
					p.dstEy[base+b] = tEy[b*ny+y]
				}
			}
			if p.dstPsi != nil {
				for y := 0; y < ny; y++ {
					base := y*nx + x0
					for b := 0; b < w; b++ {
						p.dstPsi[base+b] = tPsi[b*ny+y]
					}
				}
			}
		}
	}
}

func (p *Plan) checkSize(buf []float64, what string) {
	if len(buf) != p.Nx*p.Ny {
		panic(fmt.Sprintf("dct: %s has %d elements, want %d", what, len(buf), p.Nx*p.Ny))
	}
}

// Release returns every scratch buffer the plan has checked out back to
// e's arena and drops the references, so the engine's in-use byte count
// falls back to its pre-plan baseline (a cancelled placement job must not
// leave its scratch checked out). The plan stays usable: the next
// transform checks its scratch out again.
func (p *Plan) Release(e *kernel.Engine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free(e)
}

// run executes the two-pass (rows then columns) transform with the
// parameters already staged in p's fields. Caller must hold p.mu. The two
// kernel names are passed as literals by each transform so launching never
// builds a string.
func (p *Plan) run(e *kernel.Engine, rowsName, colsName string) {
	p.grow(e, p.Nx, p.Ny, false)
	e.LaunchLines(rowsName, p.Ny, p.Nx, p.rowsBody)
	e.LaunchLines(colsName, p.Nx, p.Ny, p.colsBody)
	p.src, p.dst = nil, nil
}

// halfTwiddles returns cos/sin of pi*k/(2N) for k = 0..N-1.
func halfTwiddles(n int) (cosH, sinH []float64) {
	cosH = make([]float64, n)
	sinH = make([]float64, n)
	for k := 0; k < n; k++ {
		ang := math.Pi * float64(k) / float64(2*n)
		cosH[k] = math.Cos(ang)
		sinH[k] = math.Sin(ang)
	}
	return
}

// DCT2 computes the unnormalized 2-D DCT-II of src into dst:
// dst[v][u] = sum_{y,x} src[y][x] cos(pi u (2x+1)/(2Nx)) cos(pi v (2y+1)/(2Ny)).
// src and dst may alias.
func (p *Plan) DCT2(src, dst []float64, e *kernel.Engine) {
	p.checkSize(src, "src")
	p.checkSize(dst, "dst")
	p.mu.Lock()
	defer p.mu.Unlock()
	p.src, p.dst, p.forward = src, dst, true
	p.run(e, "spectral2.fwd_rows", "spectral2.fwd_cols")
}

// EvalCosCos evaluates the cos-cos series (inverse DCT direction):
// dst[y][x] = sum_{v,u} coef[v][u] cos(pi u (2x+1)/(2Nx)) cos(pi v (2y+1)/(2Ny)).
func (p *Plan) EvalCosCos(coef, dst []float64, e *kernel.Engine) {
	p.checkSize(coef, "coef")
	p.checkSize(dst, "dst")
	p.mu.Lock()
	defer p.mu.Unlock()
	p.src, p.dst, p.forward = coef, dst, false
	p.run(e, "spectral2.coscos_rows", "spectral2.coscos_cols")
}

// EvalPotentialField evaluates the Poisson-solver output series in one
// batched sweep:
//
//	psi[y][x] = sum coef[v][u]         * cos_u(x) * cos_v(y)
//	ex[y][x]  = sum coef[v][u] * sx[u] * sin_u(x) * cos_v(y)
//	ey[y][x]  = sum coef[v][u] * sy[v] * cos_u(x) * sin_v(y)
//
// with cos_u(x) = cos(pi*u*(2x+1)/(2*Nx)) etc. sx has length Nx and sy
// length Ny (the Poisson solver passes the spatial frequencies wu, wv). The
// shared cos-x row transform is computed once and each column is gathered
// once for every output — two launched passes total. psi may be nil: the
// potential is then not evaluated (the gradient needs only ex and ey), which
// saves one of the five series transforms per line; ex and ey are the same
// bits either way.
func (p *Plan) EvalPotentialField(coef, sx, sy, psi, ex, ey []float64, e *kernel.Engine) {
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
	e.LaunchLines("spectral2.field_rows", p.Ny, p.Nx, p.fieldRowsBody)
	e.LaunchLines("spectral2.field_cols", p.Nx, p.Ny, p.fieldColsBody)
	p.dstPsi, p.dstEx, p.dstEy = nil, nil, nil
	p.coefIn, p.sx, p.sy = nil, nil, nil
}

// SolvePoisson runs a whole spectral Poisson solve as one kernel named
// "poisson.solve", for a grid kernel.OneBlock admits: the DCT-II of src
// into coef, then scale over every coefficient row (it rescales coef in
// place and returns a reduction of its own), then the field evaluation of
// coef into ex and ey (psi is not evaluated). Each pass is the persistent
// body DCT2 and EvalPotentialField launch, run as chunk 0 over its whole
// range — the one chunk those launches have on such a grid — so ex, ey and
// the returned value of scale are the bits of the three launches in turn.
func (p *Plan) SolvePoisson(src, coef, sx, sy, ex, ey []float64, scale func(start, end int) float64, e *kernel.Engine) float64 {
	if !kernel.OneBlock(p.Nx, p.Ny) {
		panic(fmt.Sprintf("dct: a %dx%d grid does not fit one block", p.Nx, p.Ny))
	}
	p.checkSize(src, "src")
	p.checkSize(coef, "coef")
	p.checkSize(ex, "ex")
	p.checkSize(ey, "ey")
	if len(sx) != p.Nx || len(sy) != p.Ny {
		panic(fmt.Sprintf("dct: scale vectors %dx%d, want %dx%d", len(sx), len(sy), p.Nx, p.Ny))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.grow(e, p.Nx, p.Ny, true)
	p.src, p.dst, p.scale = src, coef, scale
	p.coefIn, p.sx, p.sy = coef, sx, sy
	p.dstEx, p.dstEy = ex, ey
	e.LaunchSerial("poisson.solve", p.solveBody)
	p.src, p.dst, p.scale = nil, nil, nil
	p.coefIn, p.sx, p.sy = nil, nil, nil
	p.dstEx, p.dstEy = nil, nil
	return p.energy
}
