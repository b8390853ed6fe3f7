// Package optim provides the gradient-based optimizers of the placement
// core engine (Figure 1): a Nesterov accelerated method with Lipschitz
// steplength prediction (the ePlace/DREAMPlace optimizer) and Adam. It
// also implements the Jacobi preconditioner of §3.2 whose diagonal
// H = H_W + lambda*H_D defines the precondition weighted ratio omega.
//
// Optimizers treat x and y as one concatenated parameter vector but keep
// the two slices separate to avoid copies in the gradient operators.
package optim

import (
	"fmt"
	"math"

	"xplace/internal/kernel"
	"xplace/internal/netlist"
)

// Optimizer is the pluggable optimization module of the core engine.
type Optimizer interface {
	// Positions returns the coordinates at which the next gradient must be
	// evaluated (the lookahead point for Nesterov; the current iterate for
	// Adam). The caller must not mutate the returned slices.
	Positions() (x, y []float64)
	// Step consumes the gradient evaluated at Positions and advances the
	// iterate. gx/gy are indexed by cell.
	Step(e *kernel.Engine, gx, gy []float64)
	// Current returns the best current solution (major point).
	Current() (x, y []float64)
	// State returns a serializable snapshot of the optimizer's mutable
	// state (the checkpoint payload of a durable placement job). The
	// snapshot owns its slices; later Steps do not alias into it.
	State() State
	// Restore replaces the optimizer's mutable state with a snapshot
	// previously produced by State on an optimizer of the same kind and
	// dimension. A restored optimizer continues the trajectory
	// bit-identically.
	Restore(st State) error
}

// State is the serializable mutable state of an optimizer, the
// checkpoint/resume payload. Kind discriminates the concrete type;
// Vectors holds named per-cell series (only the fields the kind uses are
// present). Float64 values round-trip encoding/json exactly, so a
// JSON-serialized State resumes bit-identically.
type State struct {
	Kind string `json:"kind"` // "nesterov" | "adam"
	Iter int    `json:"iter"`
	// Nesterov: the Nesterov a_k sequence value.
	A float64 `json:"a,omitempty"`
	// Adam: the running beta powers for bias correction.
	B1Pow float64 `json:"b1_pow,omitempty"`
	B2Pow float64 `json:"b2_pow,omitempty"`
	// Vectors: nesterov uses ux,uy,vx,vy,pvx,pvy,pgx,pgy; adam uses
	// x,y,mx,my,vx2,vy2.
	Vectors map[string][]float64 `json:"vectors,omitempty"`
}

// vec fetches a named vector of the required length from a State.
func (st State) vec(name string, n int) ([]float64, error) {
	v, ok := st.Vectors[name]
	if !ok {
		return nil, fmt.Errorf("optim: state missing vector %q", name)
	}
	if len(v) != n {
		return nil, fmt.Errorf("optim: state vector %q has %d entries, want %d", name, len(v), n)
	}
	return v, nil
}

func cloneF64(v []float64) []float64 { return append([]float64(nil), v...) }

// Bounds clamp cell centers into the legal placement area; entries are
// per-cell [lo, hi] for each axis. Cells whose entry is lo > hi (fixed
// cells) are never moved.
type Bounds struct {
	LoX, HiX, LoY, HiY []float64
}

// NewBounds derives clamping bounds from a design: movable and filler cell
// centers stay inside the region inset by half the cell size; fixed cells
// get frozen bounds (lo > hi).
func NewBounds(d *netlist.Design) Bounds {
	n := d.NumCells()
	b := Bounds{
		LoX: make([]float64, n), HiX: make([]float64, n),
		LoY: make([]float64, n), HiY: make([]float64, n),
	}
	r := d.Region
	for c := 0; c < n; c++ {
		if d.CellKind[c] == netlist.Fixed {
			b.LoX[c], b.HiX[c] = 1, -1 // frozen
			b.LoY[c], b.HiY[c] = 1, -1
			continue
		}
		hw, hh := d.CellW[c]/2, d.CellH[c]/2
		box := r
		if f, ok := d.FenceOf(c); ok {
			box = f // fence containment (region constraint extension)
		}
		lox, hix := box.Lx+hw, box.Hx-hw
		loy, hiy := box.Ly+hh, box.Hy-hh
		if lox > hix { // cell wider than its box: pin to the box center
			mid := (box.Lx + box.Hx) / 2
			lox, hix = mid, mid
		}
		if loy > hiy {
			mid := (box.Ly + box.Hy) / 2
			loy, hiy = mid, mid
		}
		b.LoX[c], b.HiX[c] = lox, hix
		b.LoY[c], b.HiY[c] = loy, hiy
	}
	return b
}

func (b Bounds) frozen(c int) bool { return b.LoX[c] > b.HiX[c] }

func clampTo(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Nesterov implements the accelerated gradient method with the
// Barzilai-Borwein-style Lipschitz steplength prediction used by ePlace:
// alpha_k = |v_k - v_{k-1}| / |g_k - g_{k-1}|, one gradient evaluation per
// iteration. The first step moves the design by roughly InitMove.
type Nesterov struct {
	bounds Bounds
	// u: major solution; v: lookahead (gradient point).
	ux, uy, vx, vy []float64
	pvx, pvy       []float64 // previous lookahead
	pgx, pgy       []float64 // previous gradient
	a              float64
	iter           int
	// InitMove is the target RMS displacement of the first step in design
	// units.
	InitMove float64

	// Persistent kernel bodies with staged per-call parameters, so Step is
	// allocation-free (per-call closures would heap-allocate every launch).
	stepGX, stepGY []float64
	alpha, coef    float64
	stepBody       func(lo, hi int)
	// The steplength's two squared distances, |v - pv|^2 and |g - pg|^2,
	// as per-chunk partials of one launch, Step's own or a caller's (sized
	// by the engine's chunk count on the first step that needs them).
	distV, distG []float64
	distBody     func(w, lo, hi int)
}

// NewNesterov creates a Nesterov optimizer starting from (x0, y0), which
// are copied. initMove sets the first step's RMS displacement.
func NewNesterov(x0, y0 []float64, bounds Bounds, initMove float64) *Nesterov {
	n := len(x0)
	o := &Nesterov{bounds: bounds, a: 1, InitMove: initMove}
	o.ux = append(make([]float64, 0, n), x0...)
	o.uy = append(make([]float64, 0, n), y0...)
	o.vx = append(make([]float64, 0, n), x0...)
	o.vy = append(make([]float64, 0, n), y0...)
	o.pvx = make([]float64, n)
	o.pvy = make([]float64, n)
	o.pgx = make([]float64, n)
	o.pgy = make([]float64, n)
	b := o.bounds
	o.stepBody = func(lo, hi int) {
		// Chunk-local subslices: the loop indexes them without bounds
		// checks and without reloading o's fields after every store.
		alpha, coef := o.alpha, o.coef
		gx, gy := o.stepGX[lo:hi], o.stepGY[lo:hi]
		ux, uy, vx, vy := o.ux[lo:hi], o.uy[lo:hi], o.vx[lo:hi], o.vy[lo:hi]
		pvx, pvy, pgx, pgy := o.pvx[lo:hi], o.pvy[lo:hi], o.pgx[lo:hi], o.pgy[lo:hi]
		lox, hix, loy, hiy := b.LoX[lo:hi], b.HiX[lo:hi], b.LoY[lo:hi], b.HiY[lo:hi]
		for c := range vx {
			// Save the lookahead and gradient for the next steplength
			// prediction, frozen cells included.
			pvx[c], pvy[c] = vx[c], vy[c]
			pgx[c], pgy[c] = gx[c], gy[c]
			if lox[c] > hix[c] { // frozen
				continue
			}
			newUx := clampTo(vx[c]-alpha*gx[c], lox[c], hix[c])
			newUy := clampTo(vy[c]-alpha*gy[c], loy[c], hiy[c])
			vx[c] = clampTo(newUx+coef*(newUx-ux[c]), lox[c], hix[c])
			vy[c] = clampTo(newUy+coef*(newUy-uy[c]), loy[c], hiy[c])
			ux[c] = newUx
			uy[c] = newUy
		}
	}
	o.distBody = func(w, lo, hi int) { o.DistRange(w, o.stepGX, o.stepGY, lo, hi) }
	return o
}

// FuseDists reports whether the next Step predicts its steplength from
// |v - pv| and |g - pg| (every step after the first) and, if so, sizes
// their per-chunk partials for e's split of the cells. A caller that
// writes the gradient in its own LaunchChunks over the cells can then fill
// the partials in that launch with DistRange and call StepFused instead of
// Step, which saves Step's "optim.dist" launch.
func (o *Nesterov) FuseDists(e *kernel.Engine) bool {
	if o.iter == 0 {
		return false
	}
	if c := e.Chunks(len(o.vx)); len(o.distV) < c {
		o.distV, o.distG = make([]float64, c), make([]float64, c)
	}
	return true
}

// DistRange writes chunk w's partials of |v - pv|^2 and |g - pg|^2 over
// cells [lo, hi) for gradient (gx, gy), each in its own accumulator, in
// index order: the body of the "optim.dist" launch.
func (o *Nesterov) DistRange(w int, gx, gy []float64, lo, hi int) {
	vx, vy, pvx, pvy := o.vx[lo:hi], o.vy[lo:hi], o.pvx[lo:hi], o.pvy[lo:hi]
	gx, gy, pgx, pgy := gx[lo:hi], gy[lo:hi], o.pgx[lo:hi], o.pgy[lo:hi]
	var v, g float64
	for i := range vx {
		dx := vx[i] - pvx[i]
		dy := vy[i] - pvy[i]
		v += dx*dx + dy*dy
		dx = gx[i] - pgx[i]
		dy = gy[i] - pgy[i]
		g += dx*dx + dy*dy
	}
	o.distV[w], o.distG[w] = v, g
}

// Positions returns the lookahead point v.
func (o *Nesterov) Positions() (x, y []float64) { return o.vx, o.vy }

// Current returns the major solution u.
func (o *Nesterov) Current() (x, y []float64) { return o.ux, o.uy }

// Step advances u and v given the gradient at v. After the first step the
// steplength's two distances are one "optim.dist" launch with two partials
// per chunk.
func (o *Nesterov) Step(e *kernel.Engine, gx, gy []float64) {
	chunks := 0
	if o.FuseDists(e) {
		o.stepGX, o.stepGY = gx, gy
		chunks = e.LaunchChunks("optim.dist", len(o.vx), o.distBody)
	}
	o.StepFused(e, gx, gy, chunks)
}

// StepFused is Step with the steplength's distances summed from the first
// chunks partials DistRange wrote for this gradient after FuseDists
// reported true, in chunk order, as Step sums its own launch's. The first
// step ignores chunks.
func (o *Nesterov) StepFused(e *kernel.Engine, gx, gy []float64, chunks int) {
	var alpha float64
	if o.iter == 0 {
		gn := rmsNorm(e, gx, gy)
		if gn <= 0 {
			gn = 1
		}
		alpha = o.InitMove / gn
	} else {
		var dv, dg float64
		for w := 0; w < chunks; w++ {
			dv += o.distV[w]
			dg += o.distG[w]
		}
		num, den := math.Sqrt(dv), math.Sqrt(dg)
		if den <= 1e-30 {
			den = 1e-30
		}
		alpha = num / den
	}
	aNew := (1 + math.Sqrt(4*o.a*o.a+1)) / 2

	// Save the lookahead and gradient and update u and v in one fused
	// kernel (in-place, no autograd).
	o.stepGX, o.stepGY = gx, gy
	o.alpha, o.coef = alpha, (o.a-1)/aNew
	e.Launch("optim.nesterov_step", len(o.ux), o.stepBody)
	o.a = aNew
	o.iter++
}

// State snapshots the Nesterov trajectory: major/lookahead points, the
// previous lookahead and gradient (the Barzilai-Borwein steplength
// inputs), the a_k sequence value and the iteration count.
func (o *Nesterov) State() State {
	return State{
		Kind: "nesterov",
		Iter: o.iter,
		A:    o.a,
		Vectors: map[string][]float64{
			"ux": cloneF64(o.ux), "uy": cloneF64(o.uy),
			"vx": cloneF64(o.vx), "vy": cloneF64(o.vy),
			"pvx": cloneF64(o.pvx), "pvy": cloneF64(o.pvy),
			"pgx": cloneF64(o.pgx), "pgy": cloneF64(o.pgy),
		},
	}
}

// Restore replaces the trajectory with a snapshot taken by State.
func (o *Nesterov) Restore(st State) error {
	if st.Kind != "nesterov" {
		return fmt.Errorf("optim: restoring %q state into Nesterov", st.Kind)
	}
	n := len(o.ux)
	dst := map[string][]float64{
		"ux": o.ux, "uy": o.uy, "vx": o.vx, "vy": o.vy,
		"pvx": o.pvx, "pvy": o.pvy, "pgx": o.pgx, "pgy": o.pgy,
	}
	for name, d := range dst {
		src, err := st.vec(name, n)
		if err != nil {
			return err
		}
		copy(d, src)
	}
	o.a = st.A
	o.iter = st.Iter
	return nil
}

// Adam implements the Adam optimizer over cell coordinates.
type Adam struct {
	bounds                Bounds
	x, y                  []float64
	mx, my, vxm, vym      []float64
	LR, Beta1, Beta2, Eps float64
	iter                  int
	b1Pow, b2Pow          float64

	stepGX, stepGY []float64 // staged gradient for the persistent body
	mc, vc         float64   // staged bias corrections
	stepBody       func(lo, hi int)
}

// NewAdam creates an Adam optimizer starting from (x0, y0) (copied).
func NewAdam(x0, y0 []float64, bounds Bounds, lr float64) *Adam {
	n := len(x0)
	o := &Adam{
		bounds: bounds,
		x:      append(make([]float64, 0, n), x0...),
		y:      append(make([]float64, 0, n), y0...),
		mx:     make([]float64, n),
		my:     make([]float64, n),
		vxm:    make([]float64, n),
		vym:    make([]float64, n),
		LR:     lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		b1Pow: 1, b2Pow: 1,
	}
	b := o.bounds
	o.stepBody = func(lo, hi int) {
		gx, gy := o.stepGX, o.stepGY
		mc, vc := o.mc, o.vc
		for c := lo; c < hi; c++ {
			if b.frozen(c) {
				continue
			}
			o.mx[c] = o.Beta1*o.mx[c] + (1-o.Beta1)*gx[c]
			o.my[c] = o.Beta1*o.my[c] + (1-o.Beta1)*gy[c]
			o.vxm[c] = o.Beta2*o.vxm[c] + (1-o.Beta2)*gx[c]*gx[c]
			o.vym[c] = o.Beta2*o.vym[c] + (1-o.Beta2)*gy[c]*gy[c]
			o.x[c] = clampTo(o.x[c]-o.LR*(o.mx[c]*mc)/(math.Sqrt(o.vxm[c]*vc)+o.Eps), b.LoX[c], b.HiX[c])
			o.y[c] = clampTo(o.y[c]-o.LR*(o.my[c]*mc)/(math.Sqrt(o.vym[c]*vc)+o.Eps), b.LoY[c], b.HiY[c])
		}
	}
	return o
}

// Positions returns the current iterate (Adam has no lookahead).
func (o *Adam) Positions() (x, y []float64) { return o.x, o.y }

// Current returns the current iterate.
func (o *Adam) Current() (x, y []float64) { return o.x, o.y }

// Step applies one Adam update.
func (o *Adam) Step(e *kernel.Engine, gx, gy []float64) {
	o.iter++
	o.b1Pow *= o.Beta1
	o.b2Pow *= o.Beta2
	o.mc = 1 / (1 - o.b1Pow)
	o.vc = 1 / (1 - o.b2Pow)
	o.stepGX, o.stepGY = gx, gy
	e.Launch("optim.adam_step", len(o.x), o.stepBody)
}

// State snapshots the Adam iterate and moment estimates.
func (o *Adam) State() State {
	return State{
		Kind:  "adam",
		Iter:  o.iter,
		B1Pow: o.b1Pow,
		B2Pow: o.b2Pow,
		Vectors: map[string][]float64{
			"x": cloneF64(o.x), "y": cloneF64(o.y),
			"mx": cloneF64(o.mx), "my": cloneF64(o.my),
			"vx2": cloneF64(o.vxm), "vy2": cloneF64(o.vym),
		},
	}
}

// Restore replaces the iterate and moments with a snapshot taken by
// State.
func (o *Adam) Restore(st State) error {
	if st.Kind != "adam" {
		return fmt.Errorf("optim: restoring %q state into Adam", st.Kind)
	}
	n := len(o.x)
	for name, d := range map[string][]float64{
		"x": o.x, "y": o.y,
		"mx": o.mx, "my": o.my, "vx2": o.vxm, "vy2": o.vym,
	} {
		src, err := st.vec(name, n)
		if err != nil {
			return err
		}
		copy(d, src)
	}
	o.iter = st.Iter
	o.b1Pow = st.B1Pow
	o.b2Pow = st.B2Pow
	return nil
}

// rmsNorm returns sqrt(mean(gx^2 + gy^2)) as one kernel. Only used for the
// first-step steplength, so the per-call closure is not on the hot path.
func rmsNorm(e *kernel.Engine, gx, gy []float64) float64 {
	n := len(gx)
	s := e.ParallelReduce("optim.rms", n, 0, func(lo, hi int) float64 {
		var v float64
		for i := lo; i < hi; i++ {
			v += gx[i]*gx[i] + gy[i]*gy[i]
		}
		return v
	}, addFloat)
	return math.Sqrt(s / float64(2*n))
}

func addFloat(a, b float64) float64 { return a + b }

// Preconditioner holds the diagonal entries of H_W (net degree) and H_D
// (cell area) of §3.2 plus their l1 norms, fixed per design.
type Preconditioner struct {
	Deg    []float64 // |S_i|
	Area   []float64 // A_i
	SumDeg float64   // |H_W|
	SumA   float64   // |H_D|

	// Staged parameters for the persistent Apply body.
	lambda    float64
	gx, gy    []float64
	applyBody func(lo, hi int)
}

// NewPreconditioner builds the preconditioner diagonals for d. Areas are
// normalized by the average movable cell area so lambda stays in a
// comparable range across designs.
func NewPreconditioner(d *netlist.Design) *Preconditioner {
	n := d.NumCells()
	p := &Preconditioner{Deg: make([]float64, n), Area: make([]float64, n)}
	var movArea float64
	var movCnt int
	for c := 0; c < n; c++ {
		if d.CellKind[c] == netlist.Movable {
			movArea += d.CellW[c] * d.CellH[c]
			movCnt++
		}
	}
	avg := 1.0
	if movCnt > 0 && movArea > 0 {
		avg = movArea / float64(movCnt)
	}
	for c := 0; c < n; c++ {
		p.Deg[c] = float64(d.CellNetDeg[c])
		p.Area[c] = d.CellW[c] * d.CellH[c] / avg
		if d.CellKind[c] != netlist.Fixed {
			p.SumDeg += p.Deg[c]
			p.SumA += p.Area[c]
		}
	}
	p.applyBody = func(lo, hi int) {
		p.ApplyRange(p.lambda, p.gx, p.gy, lo, hi)
	}
	return p
}

// Omega returns the precondition weighted ratio
// omega = lambda*|H_D| / (|H_W| + lambda*|H_D|) in [0, 1] (§3.2) — the
// placement-stage metric.
func (p *Preconditioner) Omega(lambda float64) float64 {
	den := p.SumDeg + lambda*p.SumA
	if den <= 0 {
		return 0
	}
	return lambda * p.SumA / den
}

// Apply divides the gradient by max(1, |S_i| + lambda*A_i) in place as one
// kernel.
func (p *Preconditioner) Apply(e *kernel.Engine, lambda float64, gx, gy []float64) {
	p.lambda, p.gx, p.gy = lambda, gx, gy
	e.Launch("optim.precondition", len(gx), p.applyBody)
}

// ApplyRange is the body of Apply over [lo, hi) without a launch of its
// own, so callers can fuse preconditioning into a combined kernel.
func (p *Preconditioner) ApplyRange(lambda float64, gx, gy []float64, lo, hi int) {
	for c := lo; c < hi; c++ {
		h := p.Deg[c] + lambda*p.Area[c]
		if h < 1 {
			h = 1
		}
		gx[c] /= h
		gy[c] /= h
	}
}
