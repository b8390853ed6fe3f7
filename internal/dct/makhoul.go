package dct

import "math"

// Makhoul length-N real-even transform kernels — the spectral engine's
// 1-D building blocks (J. Makhoul, "A fast cosine transform in one and two
// dimensions", IEEE TASSP 1980; the same formulation the enhanced-FFT
// placement papers use for the Poisson step).
//
// The textbook routes compute a DCT-II through a mirrored length-2N complex
// FFT and a half-sample series through a length-N (or zero-padded 2N)
// complex inverse FFT. Both kernels here keep the real-even structure end
// to end instead, so each runs ONE packed length-N/2 complex FFT:
//
//   - Forward (dctIIMakhoul): the even-odd permutation v[j] = x[2j],
//     v[N-1-j] = x[2j+1] turns the DCT-II into the first N terms of a
//     length-N DFT of a REAL sequence, which is computed as a packed
//     length-N/2 complex FFT.
//   - Evaluation (dctIIIMakhoul): its exact inverse. A pre-twiddle
//     rebuilds the Hermitian spectrum V of the permuted sequence from the
//     series coefficients, the packed length-N/2 inverse FFT produces the
//     real v two samples per complex point, and the un-permute writes them
//     back to the half-sample grid. The sine series is the cosine series of
//     the index-reflected coefficients with the odd outputs negated, so the
//     same kernel serves both.

// dctIIMakhoul computes the unnormalized 1-D DCT-II
//
//	dst[k] = sum_j src[j] * cos(pi*k*(2j+1)/(2N))
//
// via Makhoul's even-odd permutation and a packed real FFT of length N/2.
// half is the N/2-point FFT plan, scratch holds at least N/2 complex
// values, unp the unpack twiddles e^{-2*pi*i*k/N} (k = 0..N/2-1), and
// cosH/sinH the half-sample twiddles cos/sin(pi*k/(2N)) of length N.
// src and dst must not alias. N = len(src) must be a power of two.
func dctIIMakhoul(src, dst []float64, half *fftPlan, scratch []complex128, unp []complex128, cosH, sinH []float64) {
	n := len(src)
	if n == 1 {
		dst[0] = src[0]
		return
	}
	if n == 2 {
		dst[0] = src[0] + src[1]
		dst[1] = cosH[1] * (src[0] - src[1])
		return
	}
	m := n / 2 // even for n >= 4
	// Permute v[j] = src[2j] (j < m), v[n-1-j] = src[2j+1], packing the
	// real v pairwise into the complex scratch: z[i] = v[2i] + i*v[2i+1].
	h := m / 2
	for i := 0; i < h; i++ {
		scratch[i] = complex(src[4*i], src[4*i+2])
	}
	for i := h; i < m; i++ {
		scratch[i] = complex(src[2*n-4*i-1], src[2*n-4*i-3])
	}
	half.transform(scratch[:m], false)
	// Unpack Z -> V[k] = DFT_N(v)[k] for k = 0..m via the standard real-FFT
	// split (V[n-k] = conj(V[k]) covers the upper half), then rotate by the
	// half-sample twiddle: dst[k] = Re(e^{-i*pi*k/(2N)} * V[k]).
	z0 := scratch[0]
	e0, o0 := real(z0), imag(z0)
	dst[0] = e0 + o0 // V[0] is real; cosH[0] = 1
	vm := e0 - o0    // V[m] is real
	dst[m] = cosH[m] * vm
	for k := 1; k < m; k++ {
		zk := scratch[k]
		zc := scratch[m-k]
		// Even/odd real-sequence spectra: E = (Z[k]+conj(Z[m-k]))/2,
		// O = (Z[k]-conj(Z[m-k]))/(2i).
		er := (real(zk) + real(zc)) * 0.5
		ei := (imag(zk) - imag(zc)) * 0.5
		or := (imag(zk) + imag(zc)) * 0.5
		oi := (real(zc) - real(zk)) * 0.5
		// V[k] = E + e^{-2*pi*i*k/N} * O.
		ur, ui := real(unp[k]), imag(unp[k])
		a := er + ur*or - ui*oi
		b := ei + ur*oi + ui*or
		dst[k] = cosH[k]*a + sinH[k]*b
		dst[n-k] = cosH[n-k]*a - sinH[n-k]*b
	}
}

// dctIIIMakhoul evaluates the half-sample cosine series (sine = false)
//
//	dst[j] = sum_u coef[u] * cos(pi*u*(2j+1)/(2N)),  j = 0..N-1
//
// or the sine series (sine = true)
//
//	dst[j] = sum_u coef[u] * sin(pi*u*(2j+1)/(2N))
//
// with one packed length-N/2 complex inverse FFT — the inverse of
// dctIIMakhoul. The cosine series is N/2 times the inverse DCT-II of X,
// X[0] = 2*coef[0], X[k] = coef[k], so the permuted sequence v it
// un-permutes to has the Hermitian spectrum
//
//	V[k] = e^{i*pi*k/(2N)} * (X[k] - i*X[N-k]),  X[N] = 0.
//
// The sine series reads X[k] = coef[N-k] (X[0] = 0) — sin(pi*(N-k)*(2j+1)/(2N))
// = (-1)^j cos(pi*k*(2j+1)/(2N)) — and flips the sign of the odd outputs.
// Arguments are those of dctIIMakhoul (scratch holds at least N/2 complex
// values). coef and dst must not alias.
func dctIIIMakhoul(coef, dst []float64, sine bool, half *fftPlan, scratch []complex128, unp []complex128, cosH, sinH []float64) {
	n := len(coef)
	if n == 1 {
		dst[0] = coef[0]
		if sine {
			dst[0] = 0
		}
		return
	}
	if n == 2 {
		if sine {
			dst[0] = sinH[1] * coef[1]
			dst[1] = dst[0]
		} else {
			dst[0] = coef[0] + cosH[1]*coef[1]
			dst[1] = coef[0] - cosH[1]*coef[1]
		}
		return
	}
	m := n / 2
	h := m / 2
	// x(k), x(n-k) of the series being evaluated; the sine series swaps them.
	pair := func(k int) (re, im float64) {
		if sine {
			return coef[n-k], coef[k]
		}
		return coef[k], coef[n-k]
	}
	// Pre-twiddle, packed: the inverse of dctIIMakhoul's unpack. With
	// V[k+m] = conj(V[m-k]), the packed spectrum of z[i] = v[2i] + i*v[2i+1]
	// is Z[k] = (S + i*D*e^{2*pi*i*k/N})/2, S = V[k] + conj(V[m-k]),
	// D = V[k] - conj(V[m-k]); Z[m-k] is the same S and D conjugated, so
	// each pair (k, m-k) is built from two V values.
	v0 := 2 * coef[0]
	if sine {
		v0 = 0
	}
	vm := math.Sqrt2 * coef[m] // V[m] = e^{i*pi/4}(1-i)*coef[m] is real
	scratch[0] = complex(0.5*(v0+vm), 0.5*(v0-vm))
	for k := 1; k < h; k++ {
		j := m - k
		a, b := pair(k)
		vkr := cosH[k]*a + sinH[k]*b
		vki := sinH[k]*a - cosH[k]*b
		a, b = pair(j)
		vjr := cosH[j]*a + sinH[j]*b
		vji := sinH[j]*a - cosH[j]*b
		sr, si := vkr+vjr, vki-vji
		dr, di := vkr-vjr, vki+vji
		// T = D * conj(unp[k]) = D * e^{2*pi*i*k/N}.
		ur, ui := real(unp[k]), -imag(unp[k])
		tr := dr*ur - di*ui
		ti := dr*ui + di*ur
		scratch[k] = complex(0.5*(sr-ti), 0.5*(si+tr))
		scratch[j] = complex(0.5*(sr+ti), 0.5*(tr-si))
	}
	// Z[m/2] pairs with itself: S = 2*Re(V), D*e^{i*pi/2} = -2*Im(V).
	a, b := pair(h)
	scratch[h] = complex(cosH[h]*a+sinH[h]*b, cosH[h]*b-sinH[h]*a)
	half.transform(scratch[:m], true)
	// Un-permute dst[2j] = v[j], dst[2j+1] = v[n-1-j]; the sine series
	// negates the odd outputs, which are exactly the second half of z.
	for i := 0; i < h; i++ {
		z := scratch[i]
		dst[4*i] = real(z)
		dst[4*i+2] = imag(z)
	}
	sign := 1.0
	if sine {
		sign = -1
	}
	for i := h; i < m; i++ {
		z := scratch[i]
		dst[2*n-4*i-1] = sign * real(z)
		dst[2*n-4*i-3] = sign * imag(z)
	}
}
