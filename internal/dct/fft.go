// Package dct provides the spectral transforms used by the electrostatic
// density model: a radix-2 complex FFT and the 2-D cosine/sine transforms
// that solve Poisson's equation with Neumann boundary conditions (Eq. 5 of
// the paper; the method of ePlace, executed by DREAMPlace and Xplace with
// rfft2/irfft2-style operators).
//
// Conventions. The forward 2-D transform computes unnormalized DCT-II
// coefficients
//
//	a[v][u] = sum_{y,x} f[y][x] * cos(pi*u*(2x+1)/(2*Nx)) * cos(pi*v*(2y+1)/(2*Ny))
//
// and the evaluation transforms compute series of the form
//
//	f[y][x] = sum_{v,u} c[v][u] * basisX(u,x) * basisY(v,y)
//
// where basisX/basisY is cos(pi*u*(2x+1)/(2*Nx)) or the corresponding sine.
// Any normalization is the caller's business (the Poisson solver folds it
// into the coefficients).
//
// All sizes must be powers of two. Transforms take the kernel.Engine they
// run on: row and column batches execute as kernels on it, and plan scratch
// is checked out of its arena.
package dct

import (
	"fmt"
	"math"
	"math/bits"
)

// fftPlan caches twiddle factors and the bit-reversal permutation for a
// complex FFT of length n (power of two).
type fftPlan struct {
	n     int
	rev   []int
	wFwd  []complex128 // twiddles for forward transform, per stage flattened
	wInv  []complex128
	stage []int // offset of each stage's twiddles
}

func newFFTPlan(n int) *fftPlan {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("dct: FFT length %d is not a power of two", n))
	}
	p := &fftPlan{n: n}
	logN := bits.TrailingZeros(uint(n))
	p.rev = make([]int, n)
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - logN))
	}
	// Twiddles per stage: stage s has half = 2^s butterflies width.
	total := 0
	for half := 1; half < n; half <<= 1 {
		total += half
	}
	p.wFwd = make([]complex128, total)
	p.wInv = make([]complex128, total)
	p.stage = make([]int, 0, logN)
	off := 0
	for half := 1; half < n; half <<= 1 {
		p.stage = append(p.stage, off)
		for j := 0; j < half; j++ {
			ang := -math.Pi * float64(j) / float64(half)
			p.wFwd[off+j] = complex(math.Cos(ang), math.Sin(ang))
			p.wInv[off+j] = complex(math.Cos(ang), -math.Sin(ang))
		}
		off += half
	}
	return p
}

// transform runs an in-place FFT on buf (len n). inverse selects the
// conjugate twiddles; no 1/n scaling is applied.
func (p *fftPlan) transform(buf []complex128, inverse bool) {
	n := p.n
	if len(buf) != n {
		panic("dct: FFT buffer length mismatch")
	}
	for i, r := range p.rev {
		if i < r {
			buf[i], buf[r] = buf[r], buf[i]
		}
	}
	w := p.wFwd
	if inverse {
		w = p.wInv
	}
	si := 0
	for half := 1; half < n; half <<= 1 {
		off := p.stage[si]
		si++
		for start := 0; start < n; start += half * 2 {
			for j := 0; j < half; j++ {
				a := buf[start+j]
				b := buf[start+j+half] * w[off+j]
				buf[start+j] = a + b
				buf[start+j+half] = a - b
			}
		}
	}
}
