// Package wirelength implements the wirelength operators of the placer:
// the exact half-perimeter wirelength (HPWL, Eq. 2), the numerically stable
// weighted-average (WA) smoothed wirelength (Eq. 6), and its analytic
// gradient.
//
// The operators live on Ops, which provides both the paper's fused operator
// (§3.1.1 operator combination: WA wirelength + WA gradient + HPWL in ONE
// kernel, sharing the per-net min/max scan) and the unfused operators the
// ablation and the DREAMPlace-style baseline use (separate kernels, each
// rescanning min/max).
package wirelength

import "math"

// Result carries the scalar outputs of a wirelength operator evaluation.
type Result struct {
	WA   float64 // smoothed wirelength, x + y components
	HPWL float64 // exact half-perimeter wirelength
}

// netScratch is one chunk's scratch: the staged pin coordinates bx, by
// of the block of nets being evaluated, and the two stable exponential
// weights a+ = e^{(v-max)/gamma}, a- = e^{(min-v)/gamma} of the net being
// evaluated. bx and by hold a block (see blockPins), ap and am the
// design's largest net.
type netScratch struct {
	bx, by, ap, am []float64
}

// netFunc evaluates one net in one dimension from its staged pin
// coordinates v, with ap and am as weight scratch at least len(v) long.
// grad is the net's slice of the pin gradient, written if non-nil.
// Returns (smoothed wirelength, hpwl).
type netFunc func(v, ap, am []float64, gamma float64, grad []float64) (float64, float64)

// minMax scans the staged coordinates of a net for their min and max
// (shared by the smoothed wirelength, its gradient and HPWL).
func minMax(v []float64) (minV, maxV float64) {
	minV, maxV = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		if x < minV {
			minV = x
		}
		if x > maxV {
			maxV = x
		}
	}
	return minV, maxV
}

// expOrOne is math.Exp with the zero argument answered without the call:
// Exp(±0) is exactly 1, and every net has a pin at its max (a+ argument 0)
// and one at its min (a- argument 0).
func expOrOne(t float64) float64 {
	if t == 0 {
		return 1
	}
	return math.Exp(t)
}

// expWeights fills ap[i] = e^{(v[i]-maxV)*inv} and am[i] = e^{(minV-v[i])*inv},
// each evaluated once per net and dimension and read back by the sums and
// the gradient. With the zero arguments skipped a net of degree deg costs at
// most 2*deg-2 exponentials; in a two-pin net the two that remain share the
// argument (minV-maxV)*inv, so it costs one.
func expWeights(v, ap, am []float64, minV, maxV, inv float64) {
	if len(v) == 2 && (v[0] < v[1] || v[1] < v[0]) { // distinct, neither NaN
		lo, hi := 0, 1
		if v[1] < v[0] {
			lo, hi = 1, 0
		}
		a := math.Exp((minV - maxV) * inv)
		ap[lo], am[lo] = a, expOrOne((minV-v[lo])*inv)
		ap[hi], am[hi] = expOrOne((v[hi]-maxV)*inv), a
		return
	}
	for i, x := range v {
		ap[i] = expOrOne((x - maxV) * inv)
		am[i] = expOrOne((minV - x) * inv)
	}
}

// netWA computes the stable WA wirelength and per-pin gradient of one net
// in one dimension from its staged pin coordinates v (a netFunc).
func netWA(v, ap, am []float64, gamma float64, grad []float64) (float64, float64) {
	if len(v) < 2 {
		clear(grad)
		return 0, 0
	}
	ap, am = ap[:len(v)], am[:len(v)]
	minV, maxV := minMax(v)
	hpwl := maxV - minV
	// Stable exponential sums (Eq. 6).
	inv := 1 / gamma
	expWeights(v, ap, am, minV, maxV, inv)
	var sPlus, sMinus, bPlus, bMinus float64
	for i, x := range v {
		sPlus += ap[i]
		sMinus += am[i]
		bPlus += x * ap[i]
		bMinus += x * am[i]
	}
	wa := bPlus/sPlus - bMinus/sMinus
	if grad != nil {
		// d(B+/S+)/dv_j = a_j*(S+ + (v_j*S+ - B+)/gamma)/S+^2 and
		// symmetrically for the minus term.
		invSP2 := 1 / (sPlus * sPlus)
		invSM2 := 1 / (sMinus * sMinus)
		g := grad[:len(v)]
		for i, x := range v {
			gp := ap[i] * (sPlus + (x*sPlus-bPlus)*inv) * invSP2
			gm := am[i] * (sMinus - (x*sMinus-bMinus)*inv) * invSM2
			g[i] = gp - gm
		}
	}
	return wa, hpwl
}
