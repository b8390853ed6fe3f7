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
//
// Each direction has a line kernel (one row at a time) and a column kernel
// (dctIICols, dctIIICols) that transforms a block of up to colW adjacent
// columns where they lie in the row-major matrix: it reads each row of the
// block as one contiguous run, keeps the packed spectra in a [m][w]
// complex128 block and runs every butterfly across the w lanes. A lane's
// arithmetic is its line kernel's, in the same order, so a column gets the
// bits the line kernel would give it.

// colW is the number of adjacent columns a column kernel transforms at
// once: its block is colW*Ny/2 complex128 per chunk (64 KB at Ny = 512),
// and each row of the block is colW contiguous values of a matrix row. Of
// 4, 8, 16 and 32, 16 and 32 solved fastest at 64² and 512², within noise
// of each other, and 16 needs half the block (EXPERIMENTS.md).
const colW = 16

// axis holds the tables of the length-n line kernels along one grid axis.
type axis struct {
	half       *fftPlan     // packed FFT of length n/2 (nil when n < 4)
	cosH, sinH []float64    // half-sample twiddles cos/sin(pi*k/(2n)), k = 0..n-1
	unp        []complex128 // real-FFT unpack twiddles e^{-2*pi*i*k/n}, k = 0..n/2-1
}

func newAxis(n int) axis {
	var ax axis
	if n >= 4 {
		ax.half = newFFTPlan(n / 2)
	}
	ax.cosH = make([]float64, n)
	ax.sinH = make([]float64, n)
	for k := 0; k < n; k++ {
		ang := math.Pi * float64(k) / float64(2*n)
		ax.cosH[k] = math.Cos(ang)
		ax.sinH[k] = math.Sin(ang)
	}
	// dctIIMakhoul's unpack rotation; dctIIIMakhoul's packing uses its
	// conjugate.
	ax.unp = make([]complex128, max(n/2, 1))
	for k := range ax.unp {
		ang := -2 * math.Pi * float64(k) / float64(n)
		ax.unp[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	return ax
}

// dctIIMakhoul computes the unnormalized 1-D DCT-II
//
//	dst[k] = sum_j src[j] * cos(pi*k*(2j+1)/(2N))
//
// via Makhoul's even-odd permutation and a packed real FFT of length N/2,
// with ax the tables of a length-N axis and scratch at least N/2 complex
// values. src and dst must not alias. N = len(src) must be a power of two.
func dctIIMakhoul(src, dst []float64, ax *axis, scratch []complex128) {
	n := len(src)
	cosH, sinH := ax.cosH, ax.sinH
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
	// real v pairwise into the complex scratch: z[i] = v[2i] + i*v[2i+1],
	// stored bit-reversed for transform.
	h := m / 2
	rev := ax.half.rev
	for i := 0; i < h; i++ {
		scratch[rev[i]] = complex(src[4*i], src[4*i+2])
	}
	for i := h; i < m; i++ {
		scratch[rev[i]] = complex(src[2*n-4*i-1], src[2*n-4*i-3])
	}
	ax.half.transform(scratch[:m], false)
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
		ur, ui := real(ax.unp[k]), imag(ax.unp[k])
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
// Arguments are those of dctIIMakhoul. coef and dst must not alias.
func dctIIIMakhoul(coef, dst []float64, sine bool, ax *axis, scratch []complex128) {
	n := len(coef)
	cosH, sinH := ax.cosH, ax.sinH
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
	rev := ax.half.rev
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
	// each pair (k, m-k) is built from two V values. Z is stored
	// bit-reversed for transform.
	v0 := 2 * coef[0]
	if sine {
		v0 = 0
	}
	vm := math.Sqrt2 * coef[m] // V[m] = e^{i*pi/4}(1-i)*coef[m] is real
	scratch[rev[0]] = complex(0.5*(v0+vm), 0.5*(v0-vm))
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
		ur, ui := real(ax.unp[k]), -imag(ax.unp[k])
		tr := dr*ur - di*ui
		ti := dr*ui + di*ur
		scratch[rev[k]] = complex(0.5*(sr-ti), 0.5*(si+tr))
		scratch[rev[j]] = complex(0.5*(sr+ti), 0.5*(tr-si))
	}
	// Z[m/2] pairs with itself: S = 2*Re(V), D*e^{i*pi/2} = -2*Im(V).
	a, b := pair(h)
	scratch[rev[h]] = complex(cosH[h]*a+sinH[h]*b, cosH[h]*b-sinH[h]*a)
	ax.half.transform(scratch[:m], true)
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

// lanes returns the w values of row r of a row-major matrix with nx
// columns, starting at column x0.
func lanes[T float32 | float64](mat []T, nx, r, x0, w int) []T {
	return mat[r*nx+x0:][:w]
}

// dctIICols runs dctIIMakhoul on the w (at most colW) columns x0..x0+w-1
// of src, an Ny x nx row-major matrix, writing the same columns of dst. The
// column values are read as float64 and the results stored as T, the
// conversions of the float32 plan. blk holds at least w*Ny/2 complex
// values. src and dst must not alias.
func dctIICols[T float32 | float64](src, dst []T, nx, x0, w int, ax *axis, blk []complex128) {
	n := len(src) / nx
	cosH, sinH := ax.cosH, ax.sinH
	switch n {
	case 1:
		copy(lanes(dst, nx, 0, x0, w), lanes(src, nx, 0, x0, w))
		return
	case 2:
		s0, s1 := lanes(src, nx, 0, x0, w), lanes(src, nx, 1, x0, w)
		d0, d1 := lanes(dst, nx, 0, x0, w), lanes(dst, nx, 1, x0, w)
		for b := range d0 {
			c0, c1 := float64(s0[b]), float64(s1[b])
			d0[b] = T(c0 + c1)
			d1[b] = T(cosH[1] * (c0 - c1))
		}
		return
	}
	m, h := n/2, n/4
	rev := ax.half.rev
	zs := blk[:m*w]
	// dctIIMakhoul's permuted, packed load: rows 4i and 4i+2 (2n-4i-1 and
	// 2n-4i-3 from i = m/2 on) pack into Z[i], stored at block row rev[i].
	for i := 0; i < m; i++ {
		re, im := 4*i, 4*i+2
		if i >= h {
			re, im = 2*n-4*i-1, 2*n-4*i-3
		}
		sr, si := lanes(src, nx, re, x0, w), lanes(src, nx, im, x0, w)
		z := zs[rev[i]*w:][:w]
		for b := range z {
			z[b] = complex(float64(sr[b]), float64(si[b]))
		}
	}
	ax.half.transformLanes(zs, w, false)
	// dctIIMakhoul's unpack, writing output rows k and n-k.
	z0 := zs[:w]
	d0, dm := lanes(dst, nx, 0, x0, w), lanes(dst, nx, m, x0, w)
	for b := range z0 {
		e0, o0 := real(z0[b]), imag(z0[b])
		d0[b] = T(e0 + o0)
		vm := e0 - o0
		dm[b] = T(cosH[m] * vm)
	}
	for k := 1; k < m; k++ {
		zk, zc := zs[k*w:][:w], zs[(m-k)*w:][:w]
		dk, dn := lanes(dst, nx, k, x0, w), lanes(dst, nx, n-k, x0, w)
		ur, ui := real(ax.unp[k]), imag(ax.unp[k])
		ck, sk, cn, sn := cosH[k], sinH[k], cosH[n-k], sinH[n-k]
		for b := range zk {
			er := (real(zk[b]) + real(zc[b])) * 0.5
			ei := (imag(zk[b]) - imag(zc[b])) * 0.5
			or := (imag(zk[b]) + imag(zc[b])) * 0.5
			oi := (real(zc[b]) - real(zk[b])) * 0.5
			a := er + ur*or - ui*oi
			bb := ei + ur*oi + ui*or
			dk[b] = T(ck*a + sk*bb)
			dn[b] = T(cn*a - sn*bb)
		}
	}
}

// coefRow is one row of a coefficient block as dctIIICols reads it: its
// lanes, times s as each is read when scaled.
type coefRow[T float32 | float64] struct {
	v      []T
	s      float64
	scaled bool
}

func (r coefRow[T]) at(b int) float64 {
	c := float64(r.v[b])
	if r.scaled {
		c *= r.s
	}
	return c
}

// dctIIICols runs dctIIIMakhoul on the w (at most colW) columns
// x0..x0+w-1 of src, an Ny x nx row-major matrix, writing the same columns
// of dst. When scale is not nil, src row v is read times scale[v]: the
// column dctIIIMakhoul is handed is the scaled one. Conversions and blk
// are those of dctIICols. src and dst must not alias.
func dctIIICols[T float32 | float64](src, dst []T, scale []float64, sine bool, nx, x0, w int, ax *axis, blk []complex128) {
	n := len(src) / nx
	cosH, sinH := ax.cosH, ax.sinH
	row := func(r int) coefRow[T] {
		cr := coefRow[T]{v: lanes(src, nx, r, x0, w)}
		if scale != nil {
			cr.s, cr.scaled = scale[r], true
		}
		return cr
	}
	switch n {
	case 1:
		r0, d0 := row(0), lanes(dst, nx, 0, x0, w)
		for b := range d0 {
			d0[b] = 0
			if !sine {
				d0[b] = T(r0.at(b))
			}
		}
		return
	case 2:
		r0, r1 := row(0), row(1)
		d0, d1 := lanes(dst, nx, 0, x0, w), lanes(dst, nx, 1, x0, w)
		for b := range d0 {
			c0, c1 := r0.at(b), r1.at(b)
			if sine {
				v := sinH[1] * c1
				d0[b], d1[b] = T(v), T(v)
			} else {
				d0[b] = T(c0 + cosH[1]*c1)
				d1[b] = T(c0 - cosH[1]*c1)
			}
		}
		return
	}
	m, h := n/2, n/4
	rev := ax.half.rev
	zs := blk[:m*w]
	// dctIIIMakhoul's pair: rows k and n-k, swapped for the sine series.
	pair := func(k int) (re, im coefRow[T]) {
		if sine {
			return row(n - k), row(k)
		}
		return row(k), row(n - k)
	}
	// dctIIIMakhoul's packed pre-twiddle, each Z[k] stored at block row
	// rev[k].
	r0, rm := row(0), row(m)
	z := zs[rev[0]*w:][:w]
	for b := range z {
		v0 := 2 * r0.at(b)
		if sine {
			v0 = 0
		}
		vm := math.Sqrt2 * rm.at(b)
		z[b] = complex(0.5*(v0+vm), 0.5*(v0-vm))
	}
	for k := 1; k < h; k++ {
		j := m - k
		ka, kb := pair(k)
		ja, jb := pair(j)
		ck, sk, cj, sj := cosH[k], sinH[k], cosH[j], sinH[j]
		ur, ui := real(ax.unp[k]), -imag(ax.unp[k])
		zk, zj := zs[rev[k]*w:][:w], zs[rev[j]*w:][:w]
		for b := range zk {
			a, bb := ka.at(b), kb.at(b)
			vkr := ck*a + sk*bb
			vki := sk*a - ck*bb
			a, bb = ja.at(b), jb.at(b)
			vjr := cj*a + sj*bb
			vji := sj*a - cj*bb
			sr, si := vkr+vjr, vki-vji
			dr, di := vkr-vjr, vki+vji
			tr := dr*ur - di*ui
			ti := dr*ui + di*ur
			zk[b] = complex(0.5*(sr-ti), 0.5*(si+tr))
			zj[b] = complex(0.5*(sr+ti), 0.5*(tr-si))
		}
	}
	ha, hb := pair(h)
	ch, sh := cosH[h], sinH[h]
	z = zs[rev[h]*w:][:w]
	for b := range z {
		a, bb := ha.at(b), hb.at(b)
		z[b] = complex(ch*a+sh*bb, ch*bb-sh*a)
	}
	ax.half.transformLanes(zs, w, true)
	// dctIIIMakhoul's un-permute, writing output rows 4i and 4i+2 (2n-4i-1
	// and 2n-4i-3, negated for the sine series, from i = m/2 on).
	sign := 1.0
	if sine {
		sign = -1
	}
	for i := 0; i < m; i++ {
		z := zs[i*w:][:w]
		if i < h {
			d0, d2 := lanes(dst, nx, 4*i, x0, w), lanes(dst, nx, 4*i+2, x0, w)
			for b := range z {
				d0[b] = T(real(z[b]))
				d2[b] = T(imag(z[b]))
			}
			continue
		}
		d1, d3 := lanes(dst, nx, 2*n-4*i-1, x0, w), lanes(dst, nx, 2*n-4*i-3, x0, w)
		for b := range z {
			d1[b] = T(sign * real(z[b]))
			d3[b] = T(sign * imag(z[b]))
		}
	}
}
