package dct

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"xplace/internal/kernel"
)

// serial is the one-worker engine the tests run transforms on: every launch
// executes as a single chunk on the calling goroutine.
var serial = kernel.New(kernel.Options{Workers: 1})

// directDFT is the O(N^2) reference DFT.
func directDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

// loadReversed copies x into buf in the bit-reversed order transform takes
// its input in.
func loadReversed(p *fftPlan, buf, x []complex128) {
	for i, v := range x {
		buf[p.rev[i]] = v
	}
}

func TestFFTMatchesDirectDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		plan := newFFTPlan(n)
		got := make([]complex128, n)
		loadReversed(plan, got, x)
		plan.transform(got, false)
		want := directDFT(x, false)
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d FFT[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTInverseIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 8, 32, 128} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		plan := newFFTPlan(n)
		spec, buf := make([]complex128, n), make([]complex128, n)
		loadReversed(plan, spec, x)
		plan.transform(spec, false)
		loadReversed(plan, buf, spec)
		plan.transform(buf, true)
		for i := range buf {
			got := buf[i] / complex(float64(n), 0)
			if cmplx.Abs(got-x[i]) > 1e-9 {
				t.Fatalf("n=%d roundtrip[%d] = %v, want %v", n, i, got, x[i])
			}
		}
	}
}

func TestFFTPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	newFFTPlan(3)
}

// directDCT2 is the O(N^4) reference for the 2-D DCT-II.
func directDCT2(f []float64, nx, ny int) []float64 {
	out := make([]float64, nx*ny)
	for v := 0; v < ny; v++ {
		for u := 0; u < nx; u++ {
			var s float64
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					s += f[y*nx+x] *
						math.Cos(math.Pi*float64(u)*(2*float64(x)+1)/(2*float64(nx))) *
						math.Cos(math.Pi*float64(v)*(2*float64(y)+1)/(2*float64(ny)))
				}
			}
			out[v*nx+u] = s
		}
	}
	return out
}

// directEval is the O(N^4) reference for the evaluation transforms: every
// output is the full double sum over the coefficients (the basis values are
// tabulated once, nothing else is factored).
func directEval(c []float64, nx, ny int, sinX, sinY bool) []float64 {
	basis := func(n int, sine bool) []float64 {
		t := make([]float64, n*n) // t[k*n+j] = basis k at sample j
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				ang := math.Pi * float64(k) * (2*float64(j) + 1) / (2 * float64(n))
				if sine {
					t[k*n+j] = math.Sin(ang)
				} else {
					t[k*n+j] = math.Cos(ang)
				}
			}
		}
		return t
	}
	bx, by := basis(nx, sinX), basis(ny, sinY)
	out := make([]float64, nx*ny)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			var s float64
			for v := 0; v < ny; v++ {
				for u := 0; u < nx; u++ {
					s += c[v*nx+u] * bx[u*nx+x] * by[v*ny+y]
				}
			}
			out[y*nx+x] = s
		}
	}
	return out
}

func randGrid(nx, ny int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	f := make([]float64, nx*ny)
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	return f
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestDCT2MatchesDirect(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {8, 4}, {4, 8}, {16, 16}} {
		nx, ny := dims[0], dims[1]
		f := randGrid(nx, ny, 7)
		p := NewPlan(nx, ny)
		got := make([]float64, nx*ny)
		p.DCT2(f, got, serial)
		want := directDCT2(f, nx, ny)
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("%dx%d DCT2 max diff %g", nx, ny, d)
		}
	}
}

func TestEvalTransformsMatchDirect(t *testing.T) {
	nx, ny := 8, 16
	c := randGrid(nx, ny, 9)
	p := NewPlan(nx, ny)
	got := make([]float64, nx*ny)

	p.EvalCosCos(c, got, serial)
	if d := maxAbsDiff(got, directEval(c, nx, ny, false, false)); d > 1e-9 {
		t.Errorf("EvalCosCos max diff %g", d)
	}
}

// Property: DCT2 then properly normalized EvalCosCos reconstructs the input
// (DCT-II / DCT-III orthogonality).
func TestDCTRoundTrip(t *testing.T) {
	for _, dims := range [][2]int{{8, 8}, {32, 16}, {64, 64}} {
		nx, ny := dims[0], dims[1]
		f := randGrid(nx, ny, 11)
		p := NewPlan(nx, ny)
		coef := make([]float64, nx*ny)
		p.DCT2(f, coef, serial)
		// Normalize: weight 1/N for index 0, 2/N otherwise, per dimension.
		for v := 0; v < ny; v++ {
			wv := 2 / float64(ny)
			if v == 0 {
				wv = 1 / float64(ny)
			}
			for u := 0; u < nx; u++ {
				wu := 2 / float64(nx)
				if u == 0 {
					wu = 1 / float64(nx)
				}
				coef[v*nx+u] *= wu * wv
			}
		}
		got := make([]float64, nx*ny)
		p.EvalCosCos(coef, got, serial)
		if d := maxAbsDiff(got, f); d > 1e-9 {
			t.Errorf("%dx%d roundtrip max diff %g", nx, ny, d)
		}
	}
}

func TestDCT2InPlaceAliasing(t *testing.T) {
	nx, ny := 16, 16
	f := randGrid(nx, ny, 13)
	want := make([]float64, nx*ny)
	p := NewPlan(nx, ny)
	p.DCT2(f, want, serial)
	// Alias src and dst.
	buf := append([]float64(nil), f...)
	p.DCT2(buf, buf, serial)
	if d := maxAbsDiff(buf, want); d > 1e-12 {
		t.Errorf("aliased DCT2 differs by %g", d)
	}
}

func TestPlanPanicsOnBadSizes(t *testing.T) {
	for _, dims := range [][2]int{{0, 4}, {4, 0}, {3, 4}, {4, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPlan(%d,%d) should panic", dims[0], dims[1])
				}
			}()
			NewPlan(dims[0], dims[1])
		}()
	}
	p := NewPlan(4, 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("size mismatch should panic")
			}
		}()
		p.DCT2(make([]float64, 5), make([]float64, 16), serial)
	}()
}

func BenchmarkDCT2_256(b *testing.B) {
	nx, ny := 256, 256
	f := randGrid(nx, ny, 3)
	out := make([]float64, nx*ny)
	p := NewPlan(nx, ny)
	p.DCT2(f, out, serial) // warm the scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DCT2(f, out, serial)
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%7), 0)
	}
	plan := newFFTPlan(len(x))
	buf := make([]complex128, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loadReversed(plan, buf, x)
		plan.transform(buf, false)
	}
}

// TestDCT2DRoundTripAllocFree: once the plan's per-chunk scratch is warm,
// a full DCT2 + EvalCosCos round trip performs zero heap allocations.
func TestDCT2DRoundTripAllocFree(t *testing.T) {
	nx, ny := 64, 64
	f := randGrid(nx, ny, 17)
	p := NewPlan(nx, ny)
	coef := make([]float64, nx*ny)
	out := make([]float64, nx*ny)
	// Warm up the per-chunk scratch.
	p.DCT2(f, coef, serial)
	p.EvalCosCos(coef, out, serial)
	allocs := testing.AllocsPerRun(50, func() {
		p.DCT2(f, coef, serial)
		p.EvalCosCos(coef, out, serial)
	})
	if allocs != 0 {
		t.Errorf("steady-state DCT2D round-trip allocs = %v, want 0", allocs)
	}
}
