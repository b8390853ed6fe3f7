package dct

import (
	"fmt"
	"sync"

	"xplace/internal/kernel"
)

// Plan holds precomputed state for 2-D transforms on an Nx x Ny grid
// (row-major indexing: f[y*Nx+x]). Both dimensions must be powers of two.
//
// A Plan owns all scratch for its transforms — the intermediate matrices
// and one lineScratch record (row FFT buffer, staging row, column block)
// per chunk — so steady-state transforms perform no heap allocations.
// Scratch is checked out of the arena of the engine the transforms run on,
// keeping the bytes visible in the engine's accounting; Release gives it
// back. Transforms are serialized by an internal mutex, keeping a Plan safe
// for concurrent use.
//
// The kernels are Makhoul's real-even transforms — the forward DCT-II and
// the cosine/sine series evaluation each run one packed length-N/2 complex
// FFT per line (see makhoul.go). The rows pass transforms one row at a
// time; the columns pass transforms colW adjacent columns at a time where
// they lie in the matrix.
type Plan struct {
	Nx, Ny int

	// Line-kernel tables along x (rows, length Nx) and y (columns, Ny).
	ax, ay axis

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
	p := &Plan{Nx: nx, Ny: ny, ax: newAxis(nx), ay: newAxis(ny)}
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

func (p *Plan) buildBodies() {
	nx := p.Nx
	p.rowsBody = func(chunk, lo, hi int) {
		scratch := p.lines[chunk].fft
		if p.forward {
			for y := lo; y < hi; y++ {
				dctIIMakhoul(p.src[y*nx:(y+1)*nx], p.tmp[y*nx:(y+1)*nx], &p.ax, scratch)
			}
		} else {
			for v := lo; v < hi; v++ {
				dctIIIMakhoul(p.src[v*nx:(v+1)*nx], p.tmp[v*nx:(v+1)*nx], false, &p.ax, scratch)
			}
		}
	}
	p.colsBody = func(chunk, lo, hi int) {
		columns(p.tmp, p.dst, p.forward, nx, lo, hi, &p.ay, p.lines[chunk].block)
	}
}

// columns is the columns pass of DCT2 (forward) and EvalCosCos on both
// plans: the column kernel over columns [lo, hi) of src into dst, colW at a
// time.
func columns[T float32 | float64](src, dst []T, forward bool, nx, lo, hi int, ay *axis, blk []complex128) {
	for x0 := lo; x0 < hi; x0 += colW {
		w := min(colW, hi-x0)
		if forward {
			dctIICols(src, dst, nx, x0, w, ay, blk)
		} else {
			dctIIICols(src, dst, nil, false, nx, x0, w, ay, blk)
		}
	}
}

// fieldColumns is the columns pass of EvalPotentialField on both plans,
// over columns [lo, hi), colW at a time: per block, the cos-y series of tmp
// into psi (skipped when psi is nil), the sin-y series of sy*tmp into ey
// (sy[v] multiplied in as each coefficient is read) and the cos-y series of
// tmp2 into ex, so each block of tmp is read while it is cache-hot.
func fieldColumns[T float32 | float64](tmp, tmp2, psi, ex, ey []T, sy []float64, nx, lo, hi int, ay *axis, blk []complex128) {
	for x0 := lo; x0 < hi; x0 += colW {
		w := min(colW, hi-x0)
		if psi != nil {
			dctIIICols(tmp, psi, nil, false, nx, x0, w, ay, blk)
		}
		dctIIICols(tmp, ey, sy, true, nx, x0, w, ay, blk)
		dctIIICols(tmp2, ex, nil, false, nx, x0, w, ay, blk)
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
			dctIIIMakhoul(row, p.tmp[v*nx:(v+1)*nx], false, &p.ax, scratch)
			for u := 0; u < nx; u++ {
				srow[u] = row[u] * p.sx[u]
			}
			dctIIIMakhoul(srow, p.tmp2[v*nx:(v+1)*nx], true, &p.ax, scratch)
		}
	}
	p.fieldColsBody = func(chunk, lo, hi int) {
		fieldColumns(p.tmp, p.tmp2, p.dstPsi, p.dstEx, p.dstEy, p.sy, nx, lo, hi, &p.ay, p.lines[chunk].block)
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
