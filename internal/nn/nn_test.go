package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

func smallCfg() Config { return Config{Width: 6, Modes: 4, Layers: 2, Seed: 1} }

func TestParamCountPaperScale(t *testing.T) {
	m := NewModel(DefaultConfig())
	got := m.ParamCount()
	// The paper reports 471k parameters; the default config must land in
	// the same class (within ~10%).
	if got < 420_000 || got > 520_000 {
		t.Errorf("ParamCount = %d, want ~471k", got)
	}
	t.Logf("default model parameters: %d (paper: 471k)", got)
}

func TestForwardShapeAndDeterminism(t *testing.T) {
	m := NewModel(smallCfg())
	h, w := 16, 16
	d := make([]float64, h*w)
	for i := range d {
		d[i] = float64(i%7) * 0.1
	}
	a := m.Forward(d, h, w)
	b := m.Forward(d, h, w)
	if len(a) != h*w {
		t.Fatalf("output len %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("forward not deterministic")
		}
		if math.IsNaN(a[i]) {
			t.Fatal("NaN in output")
		}
	}
}

// Gradient check: numerical vs analytic for a few random parameters.
func TestBackwardFiniteDifference(t *testing.T) {
	m := NewModel(smallCfg())
	h, w := 8, 8
	rng := rand.New(rand.NewSource(3))
	dens := make([]float64, h*w)
	label := make([]float64, h*w)
	for i := range dens {
		dens[i] = rng.Float64()
		label[i] = rng.NormFloat64()
	}
	m.zeroGrad()
	m.forwardBackward(dens, label, h, w)
	ps, gs := m.params()

	loss := func() float64 {
		pred := m.Forward(dens, h, w)
		var diff, lab float64
		for i := range pred {
			d := pred[i] - label[i]
			diff += d * d
			lab += label[i] * label[i]
		}
		return math.Sqrt(diff) / math.Sqrt(lab)
	}
	const eps = 1e-6
	checked := 0
	for gi := 0; gi < len(ps); gi++ {
		for _, j := range []int{0, len(ps[gi]) / 2} {
			if j >= len(ps[gi]) {
				continue
			}
			orig := ps[gi][j]
			ps[gi][j] = orig + eps
			up := loss()
			ps[gi][j] = orig - eps
			dn := loss()
			ps[gi][j] = orig
			fd := (up - dn) / (2 * eps)
			an := gs[gi][j]
			if math.Abs(fd-an) > 1e-4*(1+math.Abs(fd)) {
				t.Errorf("param group %d[%d]: analytic %v vs FD %v", gi, j, an, fd)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d params checked", checked)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	samples := GenerateSamples(12, 16, 16, 5)
	m := NewModel(smallCfg())
	before := m.Evaluate(samples)
	losses := m.Train(samples, TrainOptions{Epochs: 30, LR: 2e-3, Seed: 1})
	after := m.Evaluate(samples)
	if after >= before {
		t.Errorf("training did not improve: %.4f -> %.4f", before, after)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("loss curve not decreasing: %v ... %v", losses[0], losses[len(losses)-1])
	}
	if after > 0.5 {
		t.Errorf("final training error %.3f too high", after)
	}
	t.Logf("rel-L2: untrained %.3f -> trained %.3f", before, after)
}

func TestGeneralizesToUnseenMaps(t *testing.T) {
	train := GenerateSamples(24, 16, 16, 7)
	test := GenerateSamples(8, 16, 16, 99)
	m := NewModel(smallCfg())
	untrained := m.Evaluate(test)
	m.Train(train, TrainOptions{Epochs: 40, LR: 2e-3, Seed: 2})
	trained := m.Evaluate(test)
	if trained >= untrained {
		t.Errorf("no generalization: %.3f -> %.3f on unseen maps", untrained, trained)
	}
	t.Logf("unseen maps rel-L2: %.3f -> %.3f", untrained, trained)
}

// The §3.3 resolution-independence claim: a model trained at 16x16 must
// still beat an untrained model at 32x32.
func TestResolutionTransfer(t *testing.T) {
	train := GenerateSamples(24, 16, 16, 11)
	hi := GenerateSamples(6, 32, 32, 13)
	m := NewModel(smallCfg())
	untrainedHi := m.Evaluate(hi)
	m.Train(train, TrainOptions{Epochs: 40, LR: 2e-3, Seed: 3})
	trainedHi := m.Evaluate(hi)
	if trainedHi >= untrainedHi {
		t.Errorf("no resolution transfer: %.3f -> %.3f at 32x32", untrainedHi, trainedHi)
	}
	t.Logf("32x32 rel-L2 after 16x16 training: %.3f (untrained %.3f)", trainedHi, untrainedHi)
}

// The flip trick: the x-direction model predicts the y field through
// transposition.
func TestFlipTrickPredictsYField(t *testing.T) {
	train := GenerateSamples(24, 16, 16, 17)
	test := GenerateSamples(8, 16, 16, 23)
	m := NewModel(smallCfg())
	untrainedY := m.EvaluateFlipY(test)
	m.Train(train, TrainOptions{Epochs: 40, LR: 2e-3, Seed: 4})
	trainedY := m.EvaluateFlipY(test)
	if trainedY >= untrainedY {
		t.Errorf("flip trick failed: %.3f -> %.3f", untrainedY, trainedY)
	}
	t.Logf("y-field via flip: %.3f -> %.3f", untrainedY, trainedY)
}

func TestTransposeInvolution(t *testing.T) {
	h, w := 3, 5
	a := make([]float64, h*w)
	for i := range a {
		a[i] = float64(i)
	}
	b := transpose(transpose(a, h, w), w, h)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("transpose not an involution")
		}
	}
}

func TestPredictorFillsBothFields(t *testing.T) {
	m := NewModel(smallCfg())
	p := &Predictor{M: m}
	nx, ny := 16, 16
	d := make([]float64, nx*ny)
	d[5*nx+5] = 2
	ex := make([]float64, nx*ny)
	ey := make([]float64, nx*ny)
	p.PredictField(d, nx, ny, ex, ey)
	var sx, sy float64
	for i := range ex {
		sx += math.Abs(ex[i])
		sy += math.Abs(ey[i])
	}
	if sx == 0 || sy == 0 {
		t.Error("predictor produced an all-zero field")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := NewModel(smallCfg())
	samples := GenerateSamples(4, 16, 16, 29)
	m.Train(samples, TrainOptions{Epochs: 3, LR: 1e-3})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d := samples[0].Density
	a := m.Forward(d, 16, 16)
	b := m2.Forward(d, 16, 16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loaded model diverges from saved model")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a model")); err == nil {
		t.Error("want error for garbage input")
	}
}

func TestNewModelPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewModel(Config{})
}

func TestForwardPanicsOnTinyResolution(t *testing.T) {
	m := NewModel(smallCfg()) // modes 4 needs >= 8x8
	defer func() {
		if recover() == nil {
			t.Error("want panic for 4x4 input")
		}
	}()
	m.Forward(make([]float64, 16), 4, 4)
}

func TestGeluSanity(t *testing.T) {
	if gelu(0) != 0 {
		t.Error("gelu(0) != 0")
	}
	if gelu(10) < 9.9 {
		t.Error("positive tail should approach identity")
	}
	if g := gelu(-10); g > 1e-6 || g < -0.01 {
		t.Errorf("negative tail should vanish, got %v", g)
	}
	// Derivative via finite difference.
	for _, x := range []float64{-2, -0.5, 0, 0.7, 3} {
		fd := (gelu(x+1e-6) - gelu(x-1e-6)) / 2e-6
		if math.Abs(fd-geluGrad(x)) > 1e-5 {
			t.Errorf("geluGrad(%v) = %v, FD %v", x, geluGrad(x), fd)
		}
	}
}

// forwardBackward is the one-shot form of a training step the gradient
// tests use: a fresh training workspace per call.
func (m *Model) forwardBackward(density, label []float64, h, w int) float64 {
	return newWorkspace(m.Cfg, h, w, true).forwardBackward(m, density, label)
}

// ---- Oracle: the full-FFT forward and backward passes this package ran
// before the planned, mode-truncated transform. Every channel goes through
// a complete h x w complex FFT2 (and a complete inverse) only to keep
// 2·m² modes; kept as the reference the planned path is compared to.

// oracleFFT is an in-place radix-2 FFT (unnormalized both ways).
func oracleFFT(buf []complex128, inverse bool) {
	n := len(buf)
	if n&(n-1) != 0 {
		panic("oracleFFT: length not a power of two")
	}
	logN := bits.TrailingZeros(uint(n))
	for i := range buf {
		if r := int(bits.Reverse(uint(i)) >> (bits.UintSize - logN)); logN > 0 && i < r {
			buf[i], buf[r] = buf[r], buf[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1
	}
	for half := 1; half < n; half <<= 1 {
		for start := 0; start < n; start += 2 * half {
			for j := 0; j < half; j++ {
				tw := cmplx.Rect(1, sign*math.Pi*float64(j)/float64(half))
				a, b := buf[start+j], buf[start+j+half]*tw
				buf[start+j], buf[start+j+half] = a+b, a-b
			}
		}
	}
}

func oracleFFT2(spec []complex128, h, w int, inverse bool) {
	for y := 0; y < h; y++ {
		oracleFFT(spec[y*w:(y+1)*w], inverse)
	}
	col := make([]complex128, h)
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			col[y] = spec[y*w+x]
		}
		oracleFFT(col, inverse)
		for y := 0; y < h; y++ {
			spec[y*w+x] = col[y]
		}
	}
}

// fft2 computes the 2-D FFT of a real map (row-major h x w).
func fft2(x []float64, h, w int) []complex128 {
	spec := make([]complex128, h*w)
	for i, v := range x {
		spec[i] = complex(v, 0)
	}
	oracleFFT2(spec, h, w, false)
	return spec
}

// ifft2Real computes Re(IFFT2(spec))/(h*w).
func ifft2Real(spec []complex128, h, w int) []float64 {
	buf := append([]complex128(nil), spec...)
	oracleFFT2(buf, h, w, true)
	out := make([]float64, h*w)
	for i, v := range buf {
		out[i] = real(v) / float64(h*w)
	}
	return out
}

// modeCoords maps a mode slot to spectrum coordinates for an HxW grid:
// block 0 holds ky in [0, m), block 1 holds ky in [H-m, H); kx in [0, m).
func modeCoords(slot, m, h int) (ky, kx int) {
	block, rem := slot/(m*m), slot%(m*m)
	ky, kx = rem/m, rem%m
	if block == 1 {
		ky = h - m + ky
	}
	return ky, kx
}

// oracleTape is what the oracle's forward pass keeps for its backward.
type oracleTape struct {
	h, w   int
	x      [][][]float64    // x[l]: input of block l; x[L]: input of proj
	pre    [][][]float64    // pre[l]: block l before GELU
	inSpec [][][]complex128 // [l][i][slot]
	in     [][]float64      // {density; mesh-x; mesh-y}
	pred   []float64
}

func oracleConv(c *conv1x1, x [][]float64, n int) [][]float64 {
	y := make([][]float64, c.out)
	for o := range y {
		y[o] = make([]float64, n)
		for p := range y[o] {
			y[o][p] = c.b[o]
		}
		for i := 0; i < c.in; i++ {
			for p := range y[o] {
				y[o][p] += c.w[o*c.in+i] * x[i][p]
			}
		}
	}
	return y
}

// oracleConvBackward accumulates the layer's gradients into gw/gb and
// returns dL/dx.
func oracleConvBackward(c *conv1x1, x, g [][]float64, gw, gb []float64, n int) [][]float64 {
	gx := make([][]float64, c.in)
	for i := range gx {
		gx[i] = make([]float64, n)
	}
	for o := 0; o < c.out; o++ {
		for p := 0; p < n; p++ {
			gb[o] += g[o][p]
		}
		for i := 0; i < c.in; i++ {
			for p := 0; p < n; p++ {
				gw[o*c.in+i] += g[o][p] * x[i][p]
				gx[i][p] += c.w[o*c.in+i] * g[o][p]
			}
		}
	}
	return gx
}

func oracleForward(m *Model, density []float64, h, w int) *oracleTape {
	n := h * w
	t := &oracleTape{h: h, w: w}
	t.in = [][]float64{append([]float64(nil), density...), make([]float64, n), make([]float64, n)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			t.in[1][y*w+x] = float64(x) / float64(w)
			t.in[2][y*w+x] = float64(y) / float64(h)
		}
	}
	hdn := oracleConv(m.lift, t.in, n)
	for _, b := range m.blocks {
		s := b.spec
		nm := s.nModes()
		t.x = append(t.x, hdn)
		inSpec := make([][]complex128, s.in)
		for i := range inSpec {
			full := fft2(hdn[i], h, w)
			inSpec[i] = make([]complex128, nm)
			for slot := range inSpec[i] {
				ky, kx := modeCoords(slot, s.modes, h)
				inSpec[i][slot] = full[ky*w+kx]
			}
		}
		t.inSpec = append(t.inSpec, inSpec)
		pre := oracleConv(b.conv, hdn, n)
		for o := 0; o < s.out; o++ {
			outSpec := make([]complex128, n)
			for slot := 0; slot < nm; slot++ {
				ky, kx := modeCoords(slot, s.modes, h)
				var acc complex128
				for i := 0; i < s.in; i++ {
					acc += complex(s.wRe[(o*s.in+i)*nm+slot], s.wIm[(o*s.in+i)*nm+slot]) * inSpec[i][slot]
				}
				outSpec[ky*w+kx] = acc
			}
			// Real part of the inverse transform symmetrizes the spectrum.
			for p, v := range ifft2Real(outSpec, h, w) {
				pre[o][p] += v
			}
		}
		t.pre = append(t.pre, pre)
		hdn = make([][]float64, len(pre))
		for o := range pre {
			hdn[o] = make([]float64, n)
			for p, v := range pre[o] {
				hdn[o][p] = gelu(v)
			}
		}
	}
	t.x = append(t.x, hdn)
	t.pred = oracleConv(m.proj, hdn, n)[0]
	return t
}

// oracleForwardBackward returns the relative-L2 loss and the gradient of
// every parameter group, in m.params() order, leaving the model untouched.
func oracleForwardBackward(m *Model, density, label []float64, h, w int) (float64, [][]float64) {
	t := oracleForward(m, density, h, w)
	n := h * w
	ps, _ := m.params()
	grads := make([][]float64, len(ps))
	for i := range ps {
		grads[i] = make([]float64, len(ps[i]))
	}
	var diffSq, labSq float64
	for i := range t.pred {
		d := t.pred[i] - label[i]
		diffSq += d * d
		labSq += label[i] * label[i]
	}
	diffNorm, labNorm := math.Sqrt(diffSq), math.Max(math.Sqrt(labSq), 1e-12)
	denom := math.Max(diffNorm*labNorm, 1e-12)
	g := [][]float64{make([]float64, n)}
	for i := range t.pred {
		g[0][i] = (t.pred[i] - label[i]) / denom
	}
	last := len(grads) - 2
	gh := oracleConvBackward(m.proj, t.x[len(m.blocks)], g, grads[last], grads[last+1], n)
	for l := len(m.blocks) - 1; l >= 0; l-- {
		s := m.blocks[l].spec
		nm := s.nModes()
		gRe, gIm, gw, gb := grads[2+4*l], grads[3+4*l], grads[4+4*l], grads[5+4*l]
		for o := range gh {
			for p := range gh[o] {
				gh[o][p] *= geluGrad(t.pre[l][o][p])
			}
		}
		// G_Y[k] = FFT2(g)/N on kept modes; G_w = conj(x)·G_Y;
		// G_X = conj(w)·G_Y; dL/dx = Re(unnormalized IFFT2(G_X)).
		gxSpec := make([][]complex128, s.in)
		for i := range gxSpec {
			gxSpec[i] = make([]complex128, nm)
		}
		for o := 0; o < s.out; o++ {
			full := fft2(gh[o], h, w)
			for i := 0; i < s.in; i++ {
				base := (o*s.in + i) * nm
				for slot := 0; slot < nm; slot++ {
					ky, kx := modeCoords(slot, s.modes, h)
					gy := full[ky*w+kx] / complex(float64(n), 0)
					gwc := gy * cmplx.Conj(t.inSpec[l][i][slot])
					gRe[base+slot] += real(gwc)
					gIm[base+slot] += imag(gwc)
					gxSpec[i][slot] += complex(s.wRe[base+slot], -s.wIm[base+slot]) * gy
				}
			}
		}
		gx := oracleConvBackward(m.blocks[l].conv, t.x[l], gh, gw, gb, n)
		for i := 0; i < s.in; i++ {
			spec := make([]complex128, n)
			for slot := 0; slot < nm; slot++ {
				ky, kx := modeCoords(slot, s.modes, h)
				spec[ky*w+kx] = gxSpec[i][slot]
			}
			for p, v := range ifft2Real(spec, h, w) {
				gx[i][p] += v * float64(n)
			}
		}
		gh = gx
	}
	oracleConvBackward(m.lift, t.in, gh, grads[0], grads[1], n)
	return diffNorm / labNorm, grads
}

// relDiff is max|a-b| / max|b|.
func relDiff(a, b []float64) float64 {
	var d, ref float64
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
		ref = math.Max(ref, math.Abs(b[i]))
	}
	if ref == 0 {
		return d
	}
	return d / ref
}

func randomMap(rng *rand.Rand, n int, normal bool) []float64 {
	out := make([]float64, n)
	for i := range out {
		if normal {
			out[i] = rng.NormFloat64()
		} else {
			out[i] = 2 * rng.Float64()
		}
	}
	return out
}

// TestPlannedMatchesFullFFT pins the planned, mode-truncated path to the
// full-FFT oracle: forward output and every parameter gradient, on square
// and non-square maps, above the training resolution and at the smallest
// grid the kept modes allow (H = W = 2m).
func TestPlannedMatchesFullFFT(t *testing.T) {
	m := NewModel(smallCfg())
	m.Train(GenerateSamples(6, 32, 32, 31), TrainOptions{Epochs: 3, LR: 2e-3, Seed: 1})
	const tol = 1e-10
	rng := rand.New(rand.NewSource(9))
	for _, sz := range [][2]int{{32, 32}, {32, 64}, {64, 32}, {64, 64}, {8, 8}, {8, 16}} {
		h, w := sz[0], sz[1]
		t.Run(fmt.Sprintf("%dx%d", h, w), func(t *testing.T) {
			dens, label := randomMap(rng, h*w, false), randomMap(rng, h*w, true)
			want := oracleForward(m, dens, h, w).pred
			if d := relDiff(m.Forward(dens, h, w), want); d > tol {
				t.Errorf("forward differs from the full-FFT oracle by %.3g relative", d)
			}
			wantLoss, wantGrads := oracleForwardBackward(m, dens, label, h, w)
			m.zeroGrad()
			loss := m.forwardBackward(dens, label, h, w)
			if math.Abs(loss-wantLoss) > tol*wantLoss {
				t.Errorf("loss %v, oracle %v", loss, wantLoss)
			}
			_, gs := m.params()
			for gi := range gs {
				if d := relDiff(gs[gi], wantGrads[gi]); d > tol {
					t.Errorf("gradient group %d differs from the oracle by %.3g relative", gi, d)
				}
			}
		})
	}
}

// TestTruncatedDFTMatchesDefinition checks the two transform kernels
// against the DFT sum itself on sizes the FFT oracle cannot reach (odd and
// non-power-of-two), where the row folding has no middle column.
func TestTruncatedDFTMatchesDefinition(t *testing.T) {
	cfg := Config{Width: 1, Modes: 3, Layers: 1}
	rng := rand.New(rand.NewSource(5))
	for _, sz := range [][2]int{{6, 6}, {7, 9}, {12, 10}, {9, 6}} {
		h, w := sz[0], sz[1]
		ws := newWorkspace(cfg, h, w, false)
		m, nm := cfg.Modes, 2*cfg.Modes*cfg.Modes
		x := randomMap(rng, h*w, true)
		gotRe, gotIm := make([]float64, nm), make([]float64, nm)
		ws.analyze(x, gotRe, gotIm)
		for slot := 0; slot < nm; slot++ {
			ky, kx := modeCoords(slot, m, h)
			var want complex128
			for y := 0; y < h; y++ {
				for xx := 0; xx < w; xx++ {
					ang := -2 * math.Pi * (float64(ky*y)/float64(h) + float64(kx*xx)/float64(w))
					want += complex(x[y*w+xx], 0) * cmplx.Rect(1, ang)
				}
			}
			if cmplx.Abs(complex(gotRe[slot], gotIm[slot])-want) > 1e-11 {
				t.Errorf("%dx%d analyze slot %d = (%v, %v), want %v", h, w, slot, gotRe[slot], gotIm[slot], want)
			}
		}
		sRe, sIm := randomMap(rng, nm, true), randomMap(rng, nm, true)
		got := [][]float64{make([]float64, h*w)}
		ws.synthesize(got, nil, nil, nil, nil, sRe, sIm, 1)
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				var want complex128
				for slot := 0; slot < nm; slot++ {
					ky, kx := modeCoords(slot, m, h)
					ang := 2 * math.Pi * (float64(ky*y)/float64(h) + float64(kx*xx)/float64(w))
					want += complex(sRe[slot], sIm[slot]) * cmplx.Rect(1, ang)
				}
				if math.Abs(got[0][y*w+xx]-real(want)) > 1e-11 {
					t.Fatalf("%dx%d synthesize [%d,%d] = %v, want %v", h, w, y, xx, got[0][y*w+xx], real(want))
				}
			}
		}
	}
}

// parentArtifact frames m the way Save did at the parent commit: magic,
// version 1, JSON header, gob payload of the flat parameter groups
// {lift.w, lift.b, (spec.wRe, spec.wIm, conv.w, conv.b) per block, proj.w,
// proj.b}. Spelled out here rather than calling Save so that a change to
// Save's layout cannot hide from the test.
func parentArtifact(t *testing.T, m *Model) []byte {
	t.Helper()
	groups := [][]float64{m.lift.w, m.lift.b}
	for _, b := range m.blocks {
		groups = append(groups, b.spec.wRe, b.spec.wIm, b.conv.w, b.conv.b)
	}
	groups = append(groups, m.proj.w, m.proj.b)
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(groups); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload.Bytes())
	hdr := fmt.Sprintf(`{"config":{"Width":%d,"Modes":%d,"Layers":%d,"Seed":%d},"train_res":%d,"param_count":%d,"sha256":"%s"}`,
		m.Cfg.Width, m.Cfg.Modes, m.Cfg.Layers, m.Cfg.Seed, m.TrainRes, m.ParamCount(), hex.EncodeToString(sum[:]))
	var raw bytes.Buffer
	raw.WriteString("XFNM")
	binary.Write(&raw, binary.LittleEndian, uint32(1))
	binary.Write(&raw, binary.LittleEndian, uint32(len(hdr)))
	raw.WriteString(hdr)
	raw.Write(payload.Bytes())
	return raw.Bytes()
}

// An artifact in the parent commit's layout (version not bumped) loads and
// predicts what the full-FFT forward predicts from the same weights.
func TestParentArtifactLoadsAndPredicts(t *testing.T) {
	src := NewModel(smallCfg())
	src.Train(GenerateSamples(4, 16, 16, 37), TrainOptions{Epochs: 2, LR: 1e-3})
	raw := parentArtifact(t, src)
	m, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("parent-layout artifact does not load: %v", err)
	}
	var resaved bytes.Buffer
	if err := m.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), raw) {
		t.Error("Save no longer writes the parent commit's bytes for the same weights")
	}
	dens := GenerateSamples(1, 32, 32, 43)[0].Density
	want := oracleForward(src, dens, 32, 32).pred
	if d := relDiff(m.Forward(dens, 32, 32), want); d > 1e-10 {
		t.Errorf("loaded model differs from the full-FFT forward by %.3g relative", d)
	}
}

// A warm PredictField allocates nothing: workspace checkout, both
// transforms and every activation come from the predictor's free list.
func TestPredictFieldAllocFree(t *testing.T) {
	p := &Predictor{M: NewModel(smallCfg())}
	const n = 64
	d := randomMap(rand.New(rand.NewSource(1)), n*n, false)
	ex, ey := make([]float64, n*n), make([]float64, n*n)
	p.PredictField(d, n, n, ex, ey) // warm-up builds the workspace
	allocs := testing.AllocsPerRun(5, func() { p.PredictField(d, n, n, ex, ey) })
	// Asserted on the plain build only, like the root alloc_test.go: the
	// race runtime's own bookkeeping may touch the heap.
	if allocs != 0 && !raceDetector {
		t.Errorf("warm PredictField allocates %v times per call, want 0", allocs)
	}
}

// One Predictor under eight goroutines (square and non-square grids, so
// checkouts of two shapes interleave) returns the bits a serial run does.
func TestPredictorConcurrentUse(t *testing.T) {
	p := &Predictor{M: NewModel(smallCfg())}
	type job struct {
		nx, ny       int
		d, ex, ey    []float64
		wantX, wantY []float64
	}
	rng := rand.New(rand.NewSource(2))
	jobs := make([]*job, 8)
	for i := range jobs {
		j := &job{nx: 32, ny: 32}
		if i%2 == 1 {
			j.nx, j.ny = 32, 16
		}
		n := j.nx * j.ny
		j.d, j.ex, j.ey = randomMap(rng, n, false), make([]float64, n), make([]float64, n)
		j.wantX, j.wantY = make([]float64, n), make([]float64, n)
		(&Predictor{M: p.M}).PredictField(j.d, j.nx, j.ny, j.wantX, j.wantY)
		jobs[i] = j
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j *job) {
			defer wg.Done()
			for rep := 0; rep < 6; rep++ {
				p.PredictField(j.d, j.nx, j.ny, j.ex, j.ey)
				for i := range j.ex {
					if j.ex[i] != j.wantX[i] || j.ey[i] != j.wantY[i] {
						t.Errorf("%dx%d rep %d: concurrent result differs from serial at %d", j.nx, j.ny, rep, i)
						return
					}
				}
			}
		}(j)
	}
	wg.Wait()
}

func TestPredictorCheckGrid(t *testing.T) {
	p := &Predictor{M: NewModel(smallCfg())} // modes 4 needs >= 8x8
	if err := p.CheckGrid(8, 8); err != nil {
		t.Errorf("CheckGrid(8, 8) = %v, want nil", err)
	}
	for _, g := range [][2]int{{4, 8}, {8, 4}, {4, 4}} {
		if err := p.CheckGrid(g[0], g[1]); err == nil {
			t.Errorf("CheckGrid(%d, %d) = nil, want an error", g[0], g[1])
		}
	}
}

var predictSink float64

// BenchmarkPredictField times one warm PredictField (both field
// directions) at the gp-nn shape and at the paper's scale.
func BenchmarkPredictField(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
		cfg  Config
	}{
		{"64/w6m4l2", 64, smallCfg()},
		{"256/paper", 256, DefaultConfig()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := &Predictor{M: NewModel(bc.cfg)}
			n := bc.n
			d := randomMap(rand.New(rand.NewSource(1)), n*n, false)
			ex, ey := make([]float64, n*n), make([]float64, n*n)
			p.PredictField(d, n, n, ex, ey)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.PredictField(d, n, n, ex, ey)
			}
			predictSink = ex[0] + ey[0]
		})
	}
}
