package placer

import (
	"time"

	"xplace/internal/field"
	"xplace/internal/optim"
)

// iterateXplace runs one GP iteration of the Xplace framework with the
// operator-level optimizations of §3.1 applied per the option toggles:
//
//   - OperatorReduction on: hand-derived numerical gradients assembled by
//     fused kernels, in-place optimizer updates, one deferred metric sync.
//     Off: gradients via the autograd engine (twice the small-kernel
//     launches), immediate syncs — the ablation's "none" starting point.
//   - OperatorCombination fuses WA wirelength + gradient + HPWL into one
//     kernel, and the gradient assembly — pin-to-cell sum, gradient norms,
//     combination, preconditioning and Nesterov's steplength distances —
//     into another.
//   - OperatorExtraction computes the cell density map once for both the
//     total map and the overflow ratio.
//   - OperatorSkipping reuses the cached density gradient early on.
//
// With OC and OE both on, an iteration that evaluates density launches the
// fused wirelength kernel and the density scatter as one kernel
// (kernel.Engine.LaunchPair): both read only the positions, and nothing
// reads what either writes before the assembly.
//
// The iteration is allocation-free in steady state: every kernel body is
// persistent (built once in buildBodies/NewOps/NewSystem), scratch lives in
// preallocated buffers or the engine arena, and the deferred metric record
// reuses one staged closure.
func (p *Placer) iterateXplace() error {
	e := p.eng
	d := p.d
	if err := p.ctx.Err(); err != nil {
		return err
	}
	wallStart := time.Now()
	simStart := e.SimulatedTime()

	vx, vy := p.opt.Positions()
	gamma := p.schd.Gamma

	var wa, hpwl float64
	chunks := 0 // assembly chunks that wrote Nesterov's steplength partials
	p.stepDists = nil
	if p.opts.OperatorReduction {
		// --- Numerical gradient path (OR on) --------------------------
		// OC assembles the gradient in one cell-major launch, which sums
		// the pin gradients onto cells itself.
		assemble := p.opts.OperatorCombination && p.opts.ExtraGradient == nil
		// Density operators may be skipped (§3.1.4).
		skip := p.schd.ShouldSkipDensity(p.lastR) && p.iter > 0
		scattered := -1 // chunks of a density scatter paired with the wirelength kernel

		// Wirelength operators (model selected by Options.Wirelength).
		gs := p.beginGroup()
		if p.opts.OperatorCombination {
			// OC: smoothed wirelength + gradient + HPWL in one kernel.
			wl := p.wl.FusedPart(vx, vy, gamma, p.pinGX, p.pinGY)
			var used int
			if !skip && p.opts.OperatorExtraction {
				used, scattered = e.LaunchPair(wl, p.sys.ScatterMaps(e, d, vx, vy))
			} else {
				used = e.LaunchChunks(wl.Name, wl.N, wl.Body)
			}
			res := p.wl.FusedResult(used)
			wa, hpwl = res.WA, res.HPWL
			p.mOCSaved.Add(2) // three kernels' work in one launch
		} else {
			wa = p.wl.Grad(vx, vy, gamma, p.pinGX, p.pinGY)
			hpwl = p.wl.HPWL(vx, vy)
		}
		if !assemble {
			p.wl.PinToCell(p.pinGX, p.pinGY, p.wlGX, p.wlGY)
		}
		p.endGroup(gs, "op.wirelength")

		// Cancellation point between the wirelength and density operator
		// groups (after a paired scatter): every kernel so far has completed
		// and no arena scratch is mid-checkout, so a killed job stops
		// cleanly here.
		if err := p.ctx.Err(); err != nil {
			return err
		}

		// Density operators.
		if !skip {
			gs = p.beginGroup()
			p.computeDensity(vx, vy, scattered)
			p.endGroup(gs, "op.density")
		} else {
			p.mOSSkips.Inc()
		}

		// Gradient assembly.
		gs = p.beginGroup()
		first := !p.lambdaInit
		if first {
			// The initial lambda needs both norms before the assembly.
			if assemble {
				p.wl.PinToCell(p.pinGX, p.pinGY, p.wlGX, p.wlGY)
			}
			nWL, nD := p.l1Norms(p.wlGX, p.wlGY, p.dGX, p.dGY)
			p.schd.InitLambda(nWL, nD)
			p.lambdaInit = true
		}
		p.curLambda = p.schd.Lambda
		var nWL, nD float64
		if assemble {
			// OC applied to the assembly stage (§3.1.1): pin-to-cell sum,
			// gradient norms, combination, preconditioning and, after
			// Nesterov's first step, its steplength distances in one
			// launch instead of three, four or five.
			if nest, ok := p.opt.(*optim.Nesterov); ok && nest.FuseDists(e) {
				p.stepDists = nest
			}
			used := e.LaunchChunks("placer.fused_grad", len(p.gX), p.assembleBody)
			nWL, nD = p.sumL1(used)
			p.mOCSaved.Add(2)
			if !skip && !first {
				p.mOCSaved.Inc()
			}
			if p.stepDists != nil {
				chunks = used
				p.mOCSaved.Inc()
			}
		} else {
			e.Launch("placer.combine_grad", len(p.gX), p.combineBody)
			if !skip {
				nWL, nD = p.l1Norms(p.wlGX, p.wlGY, p.dGX, p.dGY)
			}
		}
		if !skip && nWL > 0 {
			p.lastR = p.curLambda * nD / nWL
		}
		p.endGroup(gs, "op.grad_assembly")
	} else {
		// --- Autograd path (OR off) -----------------------------------
		gs := p.beginGroup()
		wa = p.autogradGradient(vx, vy, gamma, p.schd.Lambda)
		p.endGroup(gs, "op.autograd")
		gs = p.beginGroup()
		hpwl = p.wl.HPWL(vx, vy)
		// Overflow needs the cell map; without extraction it is scattered
		// from scratch.
		p.sys.ScatterDensity(e, d, vx, vy, field.MaskMovable|field.MaskFixed, p.sys.D, "density.cells_ovfl")
		p.lastOverflow = p.sys.Overflow(e, d, p.sys.D, p.opts.TargetDensity)
		nWL, nD := p.l1Norms(p.wlGX, p.wlGY, p.dGX, p.dGY)
		if nWL > 0 {
			p.lastR = p.schd.Lambda * nD / nWL
		}
		p.endGroup(gs, "op.eval")
	}

	// Second cancellation point: gradient assembled, optimizer step not yet
	// taken — bailing out here leaves positions at the previous iterate.
	if err := p.ctx.Err(); err != nil {
		return err
	}

	lambda := p.schd.Lambda
	gs := p.beginGroup()
	fusedPre := p.opts.OperatorReduction && p.opts.OperatorCombination && p.opts.ExtraGradient == nil
	if !fusedPre {
		if p.opts.ExtraGradient != nil {
			p.opts.ExtraGradient(p.iter, vx, vy, p.gX, p.gY)
		}
		p.pre.Apply(e, lambda, p.gX, p.gY)
	}
	if p.stepDists != nil {
		p.stepDists.StepFused(e, p.gX, p.gY, chunks)
	} else {
		p.opt.Step(e, p.gX, p.gY)
	}
	p.endGroup(gs, "op.optim")

	gs = p.beginGroup()
	rec := metricsRecord(p, hpwl, wa, gamma, lambda)
	if p.opts.OperatorReduction {
		// OR: the metric copy-back is a host sync; it is deferred to the
		// end of the iteration (§3.1.3 sync reordering), where every metric
		// comes back in one record launch and one sync point. The record
		// closure is persistent; only its inputs are staged here.
		p.pendingRec = rec
		p.pendingWall = wallStart
		p.pendingSim = simStart
		e.LaunchSerial("placer.record", p.recordFn)
		e.Sync()
	} else {
		// Immediate per-metric syncs.
		e.Sync()
		e.Sync()
		rec.WallTime = time.Since(wallStart)
		rec.SimTime = e.SimulatedTime() - simStart
		p.rec.Add(rec)
	}

	p.schd.Advance(hpwl, p.lastOverflow)
	p.endGroup(gs, "op.sched_record")
	p.iter++
	return nil
}

// computeDensity evaluates the full electrostatic system at (vx, vy):
// density maps (extracted or naive per the OE toggle), overflow, Poisson
// solve, optional neural blending, and the field gather into p.dGX/p.dGY.
// scattered is the chunk count of the OE scatter when it was already
// launched beside the wirelength kernel, and negative otherwise.
func (p *Placer) computeDensity(vx, vy []float64, scattered int) {
	e := p.eng
	d := p.d
	if p.opts.OperatorExtraction {
		// OE (§3.1.2, Figure 2a): D once, D_fl once, and one reduce over
		// bins that writes D~ = D + D_fl and OVFL reusing D.
		if scattered < 0 {
			p.lastOverflow = p.sys.DensityMaps(e, d, vx, vy, p.opts.TargetDensity)
		} else {
			p.lastOverflow = p.sys.ReduceMaps(e, d, scattered, p.opts.TargetDensity)
		}
		p.mOEReuse.Inc() // OVFL reuses D instead of re-scattering
	} else {
		// Naive: total map in one pass, then a second full scatter of
		// the non-filler cells just for the overflow ratio.
		p.sys.ScatterDensity(e, d, vx, vy, field.MaskAll, p.sys.Total, "density.total")
		p.sys.ScatterDensity(e, d, vx, vy, field.MaskMovable|field.MaskFixed, p.sys.D, "density.cells_ovfl")
		p.lastOverflow = p.sys.Overflow(e, d, p.sys.D, p.opts.TargetDensity)
	}
	p.lastEnergy = p.sys.SolvePoisson(e)

	// Neural extension (§3.3): blend the predicted field into the
	// numerical one with sigma(omega) before gathering. Once sigma
	// underflows the cutoff the predictor is never called again and this
	// path is bit-identical to the predictor-free placer.
	if p.opts.Predictor != nil {
		sigma := sigmaBlend(p.schd.Omega())
		p.gNNSigma.Set(sigma)
		if sigma > 1e-3 {
			gs := p.beginGroup()
			p.opts.Predictor.PredictField(p.sys.Total, p.sys.Nx, p.sys.Ny, p.exBlend, p.eyBlend)
			if p.instrumented {
				p.gNNResidual.Set(p.fieldResidual())
			}
			p.curSigma = sigma
			e.Launch("nn.blend_field", len(p.sys.Ex), p.blendBody)
			p.mNNBlend.Inc()
			p.endGroup(gs, "op.nn")
		}
	}
	p.sys.GatherField(e, d, vx, vy, field.MaskPlaceable, p.dGX, p.dGY)
}
