package placer

import (
	"xplace/internal/field"
	"xplace/internal/tensor"
)

// autogradGradient computes the objective gradient the PyTorch way: leaf
// tensors are copied from the lookahead positions, the WA wirelength and
// electrostatic density become custom autograd operators, the loss
// WL + lambda*D is assembled from small tensor ops, and Backward drives
// every backward kernel. Fills p.gX/p.gY and returns the WA value.
//
// This is the operator-reduction-OFF gradient path (§3.1.3): compared
// with the fused numerical path it launches roughly twice the kernels
// (forward + backward of every small op, plus leaf copies and gradient
// exports) and allocates fresh buffers instead of updating in place.
func (p *Placer) autogradGradient(vx, vy []float64, gamma, lambda float64) (wa float64) {
	e := p.eng
	d := p.d
	ctx := tensor.NewContext(e)

	// Backward scratch hoisted into placer state (allocated once, reused
	// every autograd step).
	if p.agGX == nil {
		p.agGX = make([]float64, p.d.NumCells())
		p.agGY = make([]float64, p.d.NumCells())
	}

	tx := tensor.New(len(vx))
	ty := tensor.New(len(vy))
	e.Launch("tensor.copy_params", len(vx), func(lo, hi int) {
		copy(tx.Data[lo:hi], vx[lo:hi])
		copy(ty.Data[lo:hi], vy[lo:hi])
	})
	tx.RequiresGrad()
	ty.RequiresGrad()

	waOp := tensor.Op{
		Name: "wa",
		Forward: func(ctx *tensor.Context, in []*tensor.Tensor) *tensor.Tensor {
			wa = p.wl.Grad(in[0].Data, in[1].Data, gamma, p.pinGX, p.pinGY)
			out := tensor.New(1)
			out.Data[0] = wa
			return out
		},
		Backward: func(ctx *tensor.Context, in []*tensor.Tensor, _ *tensor.Tensor, g []float64) {
			p.wl.PinToCell(p.pinGX, p.pinGY, p.wlGX, p.wlGY)
			gv := g[0]
			gx, gy := p.agGX, p.agGY
			e.Launch("wa.bwd_scale", len(gx), func(lo, hi int) {
				for c := lo; c < hi; c++ {
					gx[c] = gv * p.wlGX[c]
					gy[c] = gv * p.wlGY[c]
				}
			})
			in[0].AccumulateGrad(gx)
			in[1].AccumulateGrad(gy)
		},
	}
	densOp := tensor.Op{
		Name: "density",
		Forward: func(ctx *tensor.Context, in []*tensor.Tensor) *tensor.Tensor {
			p.sys.ScatterDensity(e, d, in[0].Data, in[1].Data, field.MaskAll, p.sys.Total, "density.total")
			p.lastEnergy = p.sys.SolvePoisson(e)
			out := tensor.New(1)
			out.Data[0] = p.lastEnergy
			return out
		},
		Backward: func(ctx *tensor.Context, in []*tensor.Tensor, _ *tensor.Tensor, g []float64) {
			p.sys.GatherField(e, d, in[0].Data, in[1].Data, field.MaskPlaceable, p.dGX, p.dGY)
			gv := g[0]
			gx, gy := p.agGX, p.agGY
			e.Launch("density.bwd_scale", len(gx), func(lo, hi int) {
				for c := lo; c < hi; c++ {
					gx[c] = gv * p.dGX[c]
					gy[c] = gv * p.dGY[c]
				}
			})
			in[0].AccumulateGrad(gx)
			in[1].AccumulateGrad(gy)
		},
	}

	wlLoss := tensor.Apply(ctx, waOp, tx, ty)
	densLoss := tensor.Apply(ctx, densOp, tx, ty)

	if !p.lambdaInit {
		tensor.Backward(ctx, tensor.Add(ctx, wlLoss, densLoss))
		p.wl.PinToCell(p.pinGX, p.pinGY, p.wlGX, p.wlGY)
		nWL, nD := p.l1Norms(p.wlGX, p.wlGY, p.dGX, p.dGY)
		p.schd.InitLambda(nWL, nD)
		p.lambdaInit = true
		tx.ZeroGrad()
		ty.ZeroGrad()
	}
	loss := tensor.Add(ctx, wlLoss, tensor.Scale(ctx, densLoss, lambda))
	tensor.Backward(ctx, loss)

	e.Launch("tensor.export_grad", len(p.gX), func(lo, hi int) {
		copy(p.gX[lo:hi], tx.Grad[lo:hi])
		copy(p.gY[lo:hi], ty.Grad[lo:hi])
	})
	return wa
}
