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

// transform runs an in-place FFT on buf (len n). The input is loaded in
// bit-reversed order — x[i] at buf[rev[i]] — by the caller, which writes it
// there anyway, so no swap pass runs here; the output is in natural order.
// inverse selects the conjugate twiddles; no 1/n scaling is applied.
//
// The radix-2 stages run two at a time: the butterflies of stages s and
// s+1 that touch a group of four values run on them in registers, then the
// next group. Each value sees the operations of the stage-by-stage loop in
// the same order, so the result has the same bits; a last odd stage runs
// alone.
func (p *fftPlan) transform(buf []complex128, inverse bool) {
	n := p.n
	if len(buf) != n {
		panic("dct: FFT buffer length mismatch")
	}
	w := p.wFwd
	if inverse {
		w = p.wInv
	}
	half, si := 1, 0
	for ; 4*half <= n; half, si = 4*half, si+2 {
		t1 := w[p.stage[si]:][:half]
		t2 := w[p.stage[si+1]:][:2*half]
		for base := 0; base < n; base += 4 * half {
			q0 := buf[base:][:half]
			q1 := buf[base+half:][:half]
			q2 := buf[base+2*half:][:half]
			q3 := buf[base+3*half:][:half]
			for j, a0 := range q0 {
				c := q1[j] * t1[j]
				x0, x1 := a0+c, a0-c
				a2 := q2[j]
				c = q3[j] * t1[j]
				x2, x3 := a2+c, a2-c
				c = x2 * t2[j]
				q0[j], q2[j] = x0+c, x0-c
				c = x3 * t2[j+half]
				q1[j], q3[j] = x1+c, x1-c
			}
		}
	}
	if half < n {
		tw := w[p.stage[si]:][:half]
		lo, hi := buf[:half], buf[half:][:half]
		for j, a := range lo {
			b := hi[j] * tw[j]
			lo[j] = a + b
			hi[j] = a - b
		}
	}
}

// transformLanes runs transform on each of the w lanes of blk, n rows of w
// adjacent values (lane b of row r at blk[r*w+b]), each lane loaded
// bit-reversed as transform wants. Every butterfly loads its twiddles once
// and runs across the lanes; each lane sees the operations of transform in
// the same order, so it gets the same bits.
func (p *fftPlan) transformLanes(blk []complex128, w int, inverse bool) {
	n := p.n
	if len(blk) != n*w {
		panic("dct: FFT block length mismatch")
	}
	tw := p.wFwd
	if inverse {
		tw = p.wInv
	}
	half, si := 1, 0
	for ; 4*half <= n; half, si = 4*half, si+2 {
		o1, o2 := p.stage[si], p.stage[si+1]
		for base := 0; base < n; base += 4 * half {
			for j := 0; j < half; j++ {
				t1, t2, t3 := tw[o1+j], tw[o2+j], tw[o2+j+half]
				q0 := blk[(base+j)*w:][:w]
				q1 := blk[(base+j+half)*w:][:w]
				q2 := blk[(base+j+2*half)*w:][:w]
				q3 := blk[(base+j+3*half)*w:][:w]
				for b, a0 := range q0 {
					c := q1[b] * t1
					x0, x1 := a0+c, a0-c
					a2 := q2[b]
					c = q3[b] * t1
					x2, x3 := a2+c, a2-c
					c = x2 * t2
					q0[b], q2[b] = x0+c, x0-c
					c = x3 * t3
					q1[b], q3[b] = x1+c, x1-c
				}
			}
		}
	}
	if half < n {
		off := p.stage[si]
		for j := 0; j < half; j++ {
			t := tw[off+j]
			lo := blk[j*w:][:w]
			hi := blk[(j+half)*w:][:w]
			for b, a := range lo {
				c := hi[b] * t
				lo[b] = a + c
				hi[b] = a - c
			}
		}
	}
}
