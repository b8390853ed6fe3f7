// Package nn implements the paper's neural extension (§3.3): a two-path
// Fourier Neural Operator that maps a placement density map to its
// electric field. Each block combines a frequency-domain path (2-D DFT
// restricted to a fixed number of low modes, a complex linear transform
// per retained mode, inverse DFT of those modes — Eq. 11) and a spatial
// path (pixel-wise 1x1 convolution), summed and passed through GELU
// (Eq. 12).
// The input is lifted from {density; mesh-x; mesh-y} by a fully-connected
// layer and projected back to one channel at the output; the relative L2
// loss (Eq. 13) drives Adam training.
//
// Keeping only low-frequency modes makes the model resolution-independent
// (train low-res, run high-res), and the x/y symmetry of Poisson's
// equation lets one trained direction serve both via the transpose trick —
// both properties the paper claims and this package tests.
//
// All forward AND backward passes are hand-derived (no autograd), pure Go.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Config describes the model architecture. The default (Width 17,
// Modes 10, Layers 4) lands at ~464k parameters — the same class as the
// paper's 471k, 60% of a small U-Net.
type Config struct {
	Width  int // channel count C
	Modes  int // retained low-pass modes per axis (m)
	Layers int // FNO blocks
	Seed   int64
}

// DefaultConfig returns the paper-scale architecture.
func DefaultConfig() Config { return Config{Width: 17, Modes: 10, Layers: 4, Seed: 1} }

// InChannels is the input channel count: density + mesh-x + mesh-y.
const InChannels = 3

// conv1x1 holds the weights of a pixel-wise fully connected layer across
// channels; gw/gb accumulate gradients during training.
type conv1x1 struct {
	in, out int
	w       []float64 // [out*in]
	b       []float64 // [out]
	gw      []float64
	gb      []float64
}

func newConv1x1(in, out int, rng *rand.Rand) *conv1x1 {
	c := &conv1x1{
		in: in, out: out,
		w:  make([]float64, out*in),
		b:  make([]float64, out),
		gw: make([]float64, out*in),
		gb: make([]float64, out),
	}
	scale := math.Sqrt(2.0 / float64(in))
	for i := range c.w {
		c.w[i] = rng.NormFloat64() * scale
	}
	return c
}

const geluC = 0.7978845608028654 // sqrt(2/pi)

// gelu is the GELU activation (tanh approximation).
func gelu(x float64) float64 {
	return 0.5 * x * (1 + math.Tanh(geluC*(x+0.044715*x*x*x)))
}

func geluGrad(x float64) float64 {
	t := math.Tanh(geluC * (x + 0.044715*x*x*x))
	dt := (1 - t*t) * geluC * (1 + 3*0.044715*x*x)
	return 0.5*(1+t) + 0.5*x*dt
}

// spectralConv holds the weights of the frequency path: one complex
// channel-mixing matrix per kept mode. Slot j*Modes+kx addresses spectrum
// row ky_j (j < Modes: ky = j; else ky = H-2*Modes+j) and column kx <
// Modes, so the layer runs at any resolution with H, W >= 2*Modes.
type spectralConv struct {
	in, out, modes int
	// wRe/wIm[(o*in+i)*nModes + slot]
	wRe, wIm []float64
	gRe, gIm []float64
}

func (s *spectralConv) nModes() int { return 2 * s.modes * s.modes }

func newSpectralConv(in, out, modes int, rng *rand.Rand) *spectralConv {
	s := &spectralConv{in: in, out: out, modes: modes}
	n := in * out * s.nModes()
	s.wRe = make([]float64, n)
	s.wIm = make([]float64, n)
	s.gRe = make([]float64, n)
	s.gIm = make([]float64, n)
	scale := 1.0 / float64(in)
	for i := range s.wRe {
		s.wRe[i] = rng.NormFloat64() * scale
		s.wIm[i] = rng.NormFloat64() * scale
	}
	return s
}

// block is one FNO layer: spectral + spatial paths, summed, GELU.
type block struct {
	spec *spectralConv
	conv *conv1x1
}

// Model is the full two-path FNO of Figure 3: the weights, and the
// gradient buffers Train accumulates into. Everything a pass over one map
// needs besides them lives in a workspace, so a model is read-only after
// Load or Train and any number of goroutines may run inference on it.
type Model struct {
	Cfg Config
	// TrainRes is the grid resolution the model was trained on (0 if
	// never trained). Informational: the FNO is resolution-independent,
	// but the value is recorded in saved artifacts.
	TrainRes int
	// ArtifactSHA is the payload sha256 of the artifact this model was
	// loaded from ("" for freshly constructed models).
	ArtifactSHA string

	lift   *conv1x1
	blocks []*block
	proj   *conv1x1
}

// Validate reports whether the config describes a buildable model. The
// upper bounds keep a corrupt artifact header from driving absurd
// allocations.
func (cfg Config) Validate() error {
	if cfg.Width <= 0 || cfg.Modes <= 0 || cfg.Layers <= 0 {
		return fmt.Errorf("nn: invalid config %+v: width, modes and layers must be positive", cfg)
	}
	if cfg.Width > 1024 || cfg.Modes > 1024 || cfg.Layers > 128 {
		return fmt.Errorf("nn: invalid config %+v: width/modes <= 1024, layers <= 128", cfg)
	}
	return nil
}

// NewModel builds a randomly initialized model.
func NewModel(cfg Config) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg}
	m.lift = newConv1x1(InChannels, cfg.Width, rng)
	for i := 0; i < cfg.Layers; i++ {
		m.blocks = append(m.blocks, &block{
			spec: newSpectralConv(cfg.Width, cfg.Width, cfg.Modes, rng),
			conv: newConv1x1(cfg.Width, cfg.Width, rng),
		})
	}
	m.proj = newConv1x1(cfg.Width, 1, rng)
	return m
}

// ParamCount returns the number of trainable scalars.
func (m *Model) ParamCount() int {
	n := len(m.lift.w) + len(m.lift.b) + len(m.proj.w) + len(m.proj.b)
	for _, b := range m.blocks {
		n += len(b.spec.wRe) + len(b.spec.wIm) + len(b.conv.w) + len(b.conv.b)
	}
	return n
}

// params returns flat views of every parameter and gradient buffer.
func (m *Model) params() (ps, gs [][]float64) {
	add := func(p, g []float64) {
		ps = append(ps, p)
		gs = append(gs, g)
	}
	add(m.lift.w, m.lift.gw)
	add(m.lift.b, m.lift.gb)
	for _, b := range m.blocks {
		add(b.spec.wRe, b.spec.gRe)
		add(b.spec.wIm, b.spec.gIm)
		add(b.conv.w, b.conv.gw)
		add(b.conv.b, b.conv.gb)
	}
	add(m.proj.w, m.proj.gw)
	add(m.proj.b, m.proj.gb)
	return ps, gs
}

// zeroGrad clears all gradient buffers.
func (m *Model) zeroGrad() {
	_, gs := m.params()
	for _, g := range gs {
		for i := range g {
			g[i] = 0
		}
	}
}

// Forward predicts the x-direction field for a density map (row-major
// h x w). It builds its workspace per call; Predictor is the reusing,
// allocation-free path.
func (m *Model) Forward(density []float64, h, w int) []float64 {
	out := make([]float64, h*w)
	newWorkspace(m.Cfg, h, w, false).forward(m, density, out)
	return out
}
