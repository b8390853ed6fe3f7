package dct

// Makhoul length-N real-even transform kernels — the spectral engine's
// 1-D building blocks (J. Makhoul, "A fast cosine transform in one and two
// dimensions", IEEE TASSP 1980; the same formulation the enhanced-FFT
// placement papers use for the Poisson step).
//
// The textbook route computes a DCT-II through a mirrored length-2N complex
// FFT: 4N complex butterfly points per row for N real outputs. The kernels
// here exploit the real/even structure instead:
//
//   - Forward (dctIIMakhoul): the even-odd permutation v[j] = x[2j],
//     v[N-1-j] = x[2j+1] turns the DCT-II into the first N terms of a
//     length-N DFT of a REAL sequence, which is computed as a packed
//     length-N/2 complex FFT — about 4x less butterfly work.
//   - Evaluation (evalMakhoul): the cosine/sine series at the half-sample
//     points is the real/imaginary part of one length-N complex inverse
//     FFT (vs a zero-padded length-2N inverse), and both series come
//     out of the SAME transform, which the batched field evaluation uses.

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

// evalMakhoul evaluates the complex half-sample series
//
//	g[j] = sum_u coef[u] * e^{i*pi*u*(2j+1)/(2N)},  j = 0..N-1
//
// with ONE length-N complex inverse FFT: with B the unnormalized inverse
// DFT of b[u] = coef[u]*e^{i*pi*u/(2N)}, the even outputs are g[2j] = B[j]
// and the odd outputs g[2j+1] = conj(B[N-1-j]) (coef real). The real part
// of g is the cosine series and the imaginary part the sine series, so a
// single call can produce either or both: dstCos and/or dstSin may be nil
// to skip that series. full is the N-point FFT plan, scratch holds at
// least N complex values. coef must not alias the destinations.
func evalMakhoul(coef, dstCos, dstSin []float64, full *fftPlan, scratch []complex128, cosH, sinH []float64) {
	n := len(coef)
	if n == 1 {
		if dstCos != nil {
			dstCos[0] = coef[0]
		}
		if dstSin != nil {
			dstSin[0] = 0
		}
		return
	}
	for u := 0; u < n; u++ {
		scratch[u] = complex(coef[u]*cosH[u], coef[u]*sinH[u])
	}
	full.transform(scratch[:n], true)
	m := n / 2
	if dstCos != nil {
		for j := 0; j < m; j++ {
			dstCos[2*j] = real(scratch[j])
			dstCos[2*j+1] = real(scratch[n-1-j])
		}
	}
	if dstSin != nil {
		for j := 0; j < m; j++ {
			dstSin[2*j] = imag(scratch[j])
			dstSin[2*j+1] = -imag(scratch[n-1-j])
		}
	}
}
