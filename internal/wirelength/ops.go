package wirelength

import (
	"math"

	"xplace/internal/kernel"
	"xplace/internal/netlist"
)

// Model selects the smoothed-wirelength formulation an Ops evaluates.
type Model int

// Supported smoothed-wirelength models.
const (
	WA  Model = iota // weighted-average (Eq. 6)
	LSE              // log-sum-exp
)

// Ops is the persistent wirelength operator set used by the placer's hot
// loop. It owns the per-chunk partial buffers and builds every kernel body
// once, with per-call parameters staged in struct fields, so steady-state
// evaluations are allocation-free (per-call closures would heap-allocate on
// every launch). An Ops is single-flight: drive it from one placement loop
// at a time. It launches on the engine it was built for and takes none as
// an argument, so its scratch, sized by that engine's Chunks(nets),
// covers every chunk index a body sees.
type Ops struct {
	e     *kernel.Engine
	d     *netlist.Design
	model Model
	netFn netFunc // netWA or netLSE, by model

	partWA, partHP []float64 // one slot per chunk

	// Per-chunk scratch, one netScratch per chunk, all cut from the
	// single arena buffer netBuf: a block's staged x and y and the
	// largest net's two weights (maxDeg floats each).
	maxDeg int
	netBuf []float64
	net    []netScratch

	// Staged per-call parameters.
	x, y           []float64
	gamma          float64
	pinGX, pinGY   []float64
	cellGX, cellGY []float64

	fusedBody, gradBody func(w, lo, hi int)
	hpwlBody            func(lo, hi int) float64
	p2cBody             func(lo, hi int)

	fusedName, gradName, fwdName string
}

// NewOps builds the persistent wirelength operators for (e, d) using the
// given smoothed model. The per-chunk partial buffers and per-net scratch
// come from e's arena; call Release when done with the operator set.
func NewOps(e *kernel.Engine, d *netlist.Design, model Model) *Ops {
	o := &Ops{
		e:     e,
		d:     d,
		model: model,
		netFn: netWA,
		net:   make([]netScratch, e.Chunks(d.NumNets())),
	}
	for n := 0; n < d.NumNets(); n++ {
		o.maxDeg = max(o.maxDeg, d.NetPinStart[n+1]-d.NetPinStart[n])
	}
	o.ensure()
	o.fusedName, o.gradName, o.fwdName = "wl.fused_wa_grad_hpwl", "wl.wa_grad", "wl.wa_fwd"
	if model == LSE {
		o.netFn = netLSE
		o.fusedName, o.gradName, o.fwdName = "wl.fused_lse_grad_hpwl", "wl.lse_grad", "wl.lse_fwd"
	}
	o.fusedBody = func(w, lo, hi int) {
		o.partWA[w], o.partHP[w] = o.evalNets(&o.net[w], lo, hi)
	}
	// gradBody serves Grad and, with the pin gradients staged nil, Forward.
	o.gradBody = func(w, lo, hi int) {
		o.partWA[w], _ = o.evalNets(&o.net[w], lo, hi)
	}
	o.hpwlBody = func(lo, hi int) float64 {
		return hpwlRange(d, o.x, o.y, lo, hi)
	}
	o.p2cBody = func(lo, hi int) {
		for c := lo; c < hi; c++ {
			var gx, gy float64
			for _, p := range d.CellPins[d.CellPinStart[c]:d.CellPinStart[c+1]] {
				gx += o.pinGX[p]
				gy += o.pinGY[p]
			}
			o.cellGX[c] = gx
			o.cellGY[c] = gy
		}
	}
	return o
}

// Release returns the per-chunk partial buffers and the per-net scratch to
// the engine arena. Idempotent; the Ops stays usable — the next evaluation
// checks them out again.
func (o *Ops) Release() {
	if o.partWA != nil {
		o.e.Free(o.partWA)
		o.e.Free(o.partHP)
		o.e.Free(o.netBuf)
		o.partWA, o.partHP, o.netBuf = nil, nil, nil
		clear(o.net)
	}
}

// ensure checks the partial buffers and the per-net scratch out of the
// arena (at construction and again after a Release).
func (o *Ops) ensure() {
	if o.partWA != nil {
		return
	}
	// A block holds up to blockPins pins, or one larger net, and never
	// more pins than the design has.
	nw, k := len(o.net), o.maxDeg
	b := max(k, min(blockPins, o.d.NumPins()))
	per := 2*b + 2*k
	o.partWA = o.e.Alloc(nw)
	o.partHP = o.e.Alloc(nw)
	o.netBuf = o.e.Alloc(per * nw)
	for w := range o.net {
		buf := o.netBuf[per*w : per*(w+1)]
		o.net[w] = netScratch{bx: buf[:b], by: buf[b : 2*b], ap: buf[2*b : 2*b+k], am: buf[2*b+k:]}
	}
}

// blockPins is the pin budget of a staged block. A block's staged x and y
// take 16 B per pin and its nets write as many bytes of pin gradients: at
// 1024 pins that is 32 KiB, the size of two blocks' staged coordinates,
// which stays inside the 32-48 KiB L1d of current x86 cores while the nets
// run. Budgets from 256 to 8192 pins measured within noise of each other
// on the gp-cells shape (EXPERIMENTS.md).
const blockPins = 1024

// blockEnd returns the end of the block that starts at net n0 of a chunk
// ending at net hi: the block takes net n0 and then each next net while its
// pins stay within blockPins (start is NetPinStart).
func blockEnd(start []int, n0, hi int) int {
	n1 := n0 + 1
	for n1 < hi && start[n1+1]-start[n0] <= blockPins {
		n1++
	}
	return n1
}

// evalNets evaluates nets [lo, hi) on chunk scratch sc and returns the sum
// of their smoothed wirelength and HPWL over both dimensions. It walks the
// nets in blocks of up to blockPins pins (a larger net is a block of its
// own) and stages each block's pin coordinates x[PinCell[p]]+PinOffX[p] and
// y[PinCell[p]]+PinOffY[p] in one pass over its pins — loads that do not
// depend on each other, so the cache misses overlap — before the nets run
// on the staged copy, one net at a time, in net order.
func (o *Ops) evalNets(sc *netScratch, lo, hi int) (wl, hp float64) {
	d, start := o.d, o.d.NetPinStart
	for n0 := lo; n0 < hi; {
		base, n1 := start[n0], blockEnd(start, n0, hi)
		cells := d.PinCell[base:start[n1]]
		offX, offY := d.PinOffX[base:][:len(cells)], d.PinOffY[base:][:len(cells)]
		bx, by := sc.bx[:len(cells)], sc.by[:len(cells)]
		for i, c := range cells {
			bx[i] = o.x[c] + offX[i]
			by[i] = o.y[c] + offY[i]
		}
		for n := n0; n < n1; n++ {
			s, e := start[n], start[n+1]
			var gx, gy []float64
			if o.pinGX != nil {
				gx, gy = o.pinGX[s:e], o.pinGY[s:e]
			}
			wx, hx := o.netFn(bx[s-base:e-base], sc.ap, sc.am, o.gamma, gx)
			wy, hy := o.netFn(by[s-base:e-base], sc.ap, sc.am, o.gamma, gy)
			wl += wx + wy
			hp += hx + hy
		}
		n0 = n1
	}
	return wl, hp
}

// Fused evaluates smoothed wirelength, pin gradient and HPWL in a single
// kernel launch (the paper's operator combination, §3.1.1): FusedPart,
// launched alone, then FusedResult.
func (o *Ops) Fused(x, y []float64, gamma float64, pinGX, pinGY []float64) Result {
	part := o.FusedPart(x, y, gamma, pinGX, pinGY)
	return o.FusedResult(o.e.LaunchChunks(part.Name, part.N, part.Body))
}

// FusedPart stages a Fused evaluation at (x, y) and returns it as a launch
// part over the nets, for the caller to launch alone or beside another
// operator (kernel.Engine.LaunchPair) on this Ops' engine; FusedResult then
// folds what it wrote.
func (o *Ops) FusedPart(x, y []float64, gamma float64, pinGX, pinGY []float64) kernel.Part {
	o.ensure()
	o.x, o.y, o.gamma, o.pinGX, o.pinGY = x, y, gamma, pinGX, pinGY
	return kernel.Part{Name: o.fusedName, N: o.d.NumNets(), Body: o.fusedBody}
}

// FusedResult folds, in chunk order, the per-chunk partials of a FusedPart
// launch that ran used chunks.
func (o *Ops) FusedResult(used int) Result {
	var res Result
	for w := 0; w < used; w++ {
		res.WA += o.partWA[w]
		res.HPWL += o.partHP[w]
	}
	return res
}

// Grad evaluates the smoothed wirelength and its pin gradient WITHOUT the
// HPWL fusion — the "no operator combination" configuration.
func (o *Ops) Grad(x, y []float64, gamma float64, pinGX, pinGY []float64) float64 {
	return o.unfused(o.gradName, x, y, gamma, pinGX, pinGY)
}

// Forward evaluates only the smoothed wirelength (no gradient) as one
// kernel — the forward operator the autograd baseline's line search runs.
func (o *Ops) Forward(x, y []float64, gamma float64) float64 {
	return o.unfused(o.fwdName, x, y, gamma, nil, nil)
}

func (o *Ops) unfused(name string, x, y []float64, gamma float64, pinGX, pinGY []float64) float64 {
	o.ensure()
	o.x, o.y, o.gamma, o.pinGX, o.pinGY = x, y, gamma, pinGX, pinGY
	used := o.e.LaunchChunks(name, o.d.NumNets(), o.gradBody)
	var total float64
	for w := 0; w < used; w++ {
		total += o.partWA[w]
	}
	return total
}

// HPWL evaluates the exact half-perimeter wirelength as its own kernel,
// rescanning every net's min/max (what the unfused configuration pays).
func (o *Ops) HPWL(x, y []float64) float64 {
	o.x, o.y = x, y
	return o.e.ParallelReduce("wl.hpwl", o.d.NumNets(), 0, o.hpwlBody, sumFloat)
}

// PinToCell scatters per-pin gradients onto cell centers as one kernel
// (race-free: each cell sums its own pins via the CSR reverse map).
func (o *Ops) PinToCell(pinGX, pinGY, cellGX, cellGY []float64) {
	o.pinGX, o.pinGY, o.cellGX, o.cellGY = pinGX, pinGY, cellGX, cellGY
	o.e.Launch("wl.pin_to_cell", o.d.NumCells(), o.p2cBody)
}

func sumFloat(a, b float64) float64 { return a + b }

// hpwlRange sums both dimensions' HPWL over nets [lo, hi).
func hpwlRange(d *netlist.Design, x, y []float64, lo, hi int) float64 {
	var hp float64
	for n := lo; n < hi; n++ {
		s, e := d.NetPinStart[n], d.NetPinStart[n+1]
		if e-s < 2 {
			continue
		}
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		for p := s; p < e; p++ {
			c := d.PinCell[p]
			px := x[c] + d.PinOffX[p]
			py := y[c] + d.PinOffY[p]
			if px < minX {
				minX = px
			}
			if px > maxX {
				maxX = px
			}
			if py < minY {
				minY = py
			}
			if py > maxY {
				maxY = py
			}
		}
		hp += (maxX - minX) + (maxY - minY)
	}
	return hp
}
