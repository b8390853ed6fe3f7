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
// A Plan owns all scratch for its transforms — the intermediate matrices,
// per-chunk FFT buffers, and column tile buffers — so steady-state
// transforms perform no heap allocations. Scratch is checked out of the
// arena of the engine the transforms run on, keeping the bytes visible in
// the engine's accounting; Release gives it back. Transforms are serialized
// by an internal mutex, keeping a Plan safe for concurrent use.
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

	mu   sync.Mutex
	tmp  []float64 // nx*ny intermediate (rows pass output), lazily allocated
	tmp2 []float64 // second intermediate for the batched field evaluation

	// Per-chunk scratch, grown on demand to the engine's worker count.
	scratch [][]complex128 // packed FFT buffer: max(nx,ny)/2
	rowReal [][]float64    // real staging row: max(nx,ny)
	tileIn  [][]float64    // gathered input columns: tileW*ny
	tileOut [][]float64    // transformed columns:    tileW*ny
	// Field-evaluation tiles, grown only once EvalPotentialField is used.
	tileIn2  [][]float64 // gathered tmp2 columns (Ex input)
	tileOutB [][]float64 // Ex output columns
	tileOutC [][]float64 // Ey output columns

	// Per-transform parameters consumed by the persistent bodies. Stored in
	// fields (rather than captured by per-call closures) so launching a
	// transform does not allocate.
	src, dst []float64
	forward  bool

	// Batched field-evaluation parameters.
	coefIn, sx, sy       []float64
	dstPsi, dstEx, dstEy []float64

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
		scratch := p.scratch[chunk]
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
		scratch := p.scratch[chunk]
		srow := p.rowReal[chunk][:nx]
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

// ensure grows the plan's scratch for use with e: one set of per-chunk
// buffers per engine worker. Called with p.mu held; the early-out keeps
// steady-state transforms allocation-free.
func (p *Plan) ensure(e *kernel.Engine) {
	w := e.Workers()
	if p.tmp != nil && len(p.scratch) >= w {
		return
	}
	if p.tmp == nil {
		p.tmp = e.Alloc(p.Nx * p.Ny)
	}
	maxN := p.Nx
	if p.Ny > maxN {
		maxN = p.Ny
	}
	colN := tileW * p.Ny
	for len(p.scratch) < w {
		p.scratch = append(p.scratch, e.AllocComplex(max(maxN/2, 1)))
		p.rowReal = append(p.rowReal, e.Alloc(maxN))
		p.tileIn = append(p.tileIn, e.Alloc(colN))
		p.tileOut = append(p.tileOut, e.Alloc(colN))
	}
	// Keep the field tiles in step if EvalPotentialField already ran once.
	if p.tmp2 != nil {
		p.ensureField(e)
	}
}

// ensureField grows the batched-field scratch (second intermediate and the
// extra column tiles), which only EvalPotentialField needs.
func (p *Plan) ensureField(e *kernel.Engine) {
	if p.tmp2 == nil {
		p.tmp2 = e.Alloc(p.Nx * p.Ny)
	}
	colN := tileW * p.Ny
	for len(p.tileIn2) < e.Workers() {
		p.tileIn2 = append(p.tileIn2, e.Alloc(colN))
		p.tileOutB = append(p.tileOutB, e.Alloc(colN))
		p.tileOutC = append(p.tileOutC, e.Alloc(colN))
	}
}

// Release returns every scratch buffer the plan has checked out back to
// e's arena and drops the references, so the engine's in-use byte count
// falls back to its pre-plan baseline (a cancelled placement job must not
// leave its scratch checked out). The plan stays usable: the next
// transform re-ensures its scratch.
func (p *Plan) Release(e *kernel.Engine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	freeFs := func(bufs [][]float64) {
		for _, b := range bufs {
			e.Free(b)
		}
	}
	e.Free(p.tmp)
	e.Free(p.tmp2)
	p.tmp, p.tmp2 = nil, nil
	for _, b := range p.scratch {
		e.FreeComplex(b)
	}
	p.scratch = nil
	freeFs(p.rowReal)
	freeFs(p.tileIn)
	freeFs(p.tileOut)
	freeFs(p.tileIn2)
	freeFs(p.tileOutB)
	freeFs(p.tileOutC)
	p.rowReal, p.tileIn, p.tileOut = nil, nil, nil
	p.tileIn2, p.tileOutB, p.tileOutC = nil, nil, nil
}

// run executes the two-pass (rows then columns) transform with the
// parameters already staged in p's fields. Caller must hold p.mu. The two
// kernel names are passed as literals by each transform so launching never
// builds a string.
func (p *Plan) run(e *kernel.Engine, rowsName, colsName string) {
	p.ensure(e)
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
	p.ensure(e)
	p.ensureField(e)
	p.coefIn, p.sx, p.sy = coef, sx, sy
	p.dstPsi, p.dstEx, p.dstEy = psi, ex, ey
	e.LaunchLines("spectral2.field_rows", p.Ny, p.Nx, p.fieldRowsBody)
	e.LaunchLines("spectral2.field_cols", p.Nx, p.Ny, p.fieldColsBody)
	p.dstPsi, p.dstEx, p.dstEy = nil, nil, nil
	p.coefIn, p.sx, p.sy = nil, nil, nil
}
