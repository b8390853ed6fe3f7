package placer

import (
	"time"

	"xplace/internal/field"
)

// iterateBaseline runs one GP iteration the DREAMPlace way: autograd
// gradients (see autogradGradient), density recomputed naively for the
// overflow ratio, immediate per-metric syncs, per-iteration parameter
// updates, and — as in DREAMPlace's ePlace-style Nesterov — one extra
// forward objective evaluation per iteration for the steplength
// line-search check.
func (p *Placer) iterateBaseline() error {
	e := p.eng
	d := p.d
	if err := p.ctx.Err(); err != nil {
		return err
	}
	wallStart := time.Now()
	simStart := e.SimulatedTime()

	vx, vy := p.opt.Positions()
	gamma := p.schd.Gamma
	gs := p.beginGroup()
	wa := p.autogradGradient(vx, vy, gamma, p.schd.Lambda)
	p.endGroup(gs, "op.autograd")
	lambda := p.schd.Lambda

	gs = p.beginGroup()
	if p.opts.ExtraGradient != nil {
		p.opts.ExtraGradient(p.iter, vx, vy, p.gX, p.gY)
	}
	p.pre.Apply(e, lambda, p.gX, p.gY)
	p.opt.Step(e, p.gX, p.gY)
	p.endGroup(gs, "op.optim")

	// ePlace Nesterov line-search bookkeeping: one extra forward objective
	// evaluation at the new lookahead point.
	gs = p.beginGroup()
	nvx, nvy := p.opt.Positions()
	_ = p.wl.Forward(nvx, nvy, gamma)
	p.sys.ScatterDensity(e, d, nvx, nvy, field.MaskAll, p.sys.Total, "density.total_ls")
	_ = p.sys.SolvePoisson(e)
	p.endGroup(gs, "op.linesearch")

	// Exact HPWL and overflow as separate operators (no fusion, no
	// extraction: the cell map is scattered from scratch).
	gs = p.beginGroup()
	hpwl := p.wl.HPWL(vx, vy)
	p.sys.ScatterDensity(e, d, vx, vy, field.MaskMovable|field.MaskFixed, p.sys.D, "density.cells_ovfl")
	p.lastOverflow = p.sys.Overflow(e, d, p.sys.D, p.opts.TargetDensity)

	nWL, nD := p.l1Norms(p.wlGX, p.wlGY, p.dGX, p.dGY)
	if nWL > 0 {
		p.lastR = lambda * nD / nWL
	}
	p.endGroup(gs, "op.eval")

	// Immediate per-metric host syncs (the un-reordered path).
	e.Sync()
	e.Sync()
	rec := Record{
		Iter:     p.iter,
		HPWL:     hpwl,
		WA:       wa,
		Energy:   p.lastEnergy,
		Overflow: p.lastOverflow,
		Gamma:    gamma,
		Lambda:   lambda,
		Omega:    p.schd.Omega(),
		R:        p.lastR,
		WallTime: time.Since(wallStart),
	}
	rec.SimTime = e.SimulatedTime() - simStart
	p.rec.Add(rec)

	p.schd.Advance(hpwl, p.lastOverflow)
	p.iter++
	return nil
}
