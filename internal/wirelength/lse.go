package wirelength

import "math"

// This file implements the log-sum-exp (LSE) smoothed wirelength — the
// other classic differentiable HPWL model (used by NTUPlace3 and the
// original ePlace before WA became standard):
//
//	LSE_e(x) = gamma * ( log sum_i e^{x_i/gamma} + log sum_i e^{-x_i/gamma} )
//
// computed in the numerically stable max/min-shifted form. It
// overestimates HPWL (WA underestimates) and converges to it as gamma ->
// 0. The placer exposes it as an alternative gradient function — the
// "extensible gradient engine" claim of Figure 1 made concrete.

// netLSE computes the stable LSE wirelength and per-pin gradient of one
// net in one dimension; mirrors netWA's contract.
func netLSE(v, ap, am []float64, gamma float64, grad []float64) (float64, float64) {
	if len(v) < 2 {
		clear(grad)
		return 0, 0
	}
	ap, am = ap[:len(v)], am[:len(v)]
	minV, maxV := minMax(v)
	hpwl := maxV - minV
	expWeights(v, ap, am, minV, maxV, 1/gamma)
	var sPlus, sMinus float64
	for i := range v {
		sPlus += ap[i]
		sMinus += am[i]
	}
	// LSE = gamma*(log sum e^{(v-max)/g} + max/g + log sum e^{(min-v)/g} - min/g)
	lse := gamma*(math.Log(sPlus)+math.Log(sMinus)) + hpwl
	if grad != nil {
		invSP := 1 / sPlus
		invSM := 1 / sMinus
		g := grad[:len(v)]
		for i := range v {
			g[i] = ap[i]*invSP - am[i]*invSM
		}
	}
	return lse, hpwl
}
