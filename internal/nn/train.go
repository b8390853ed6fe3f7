package nn

import (
	"math"
	"math/rand"

	"xplace/internal/field"
	"xplace/internal/geom"
	"xplace/internal/kernel"
)

// Sample is one training example: a density map with its numerically
// solved electric field (both directions; training uses Ex, the flip
// trick covers Ey).
type Sample struct {
	Density []float64
	Ex, Ey  []float64
	H, W    int
}

// GenerateSamples builds n random training samples on an h x w grid
// (§3.3: "generate randomly distributed density maps and compute the
// numerical solution of the corresponding electric fields"). Maps are
// mixtures of Gaussian blobs (cell clusters) and rectangles (macros).
func GenerateSamples(n, h, w int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	e := kernel.New(kernel.Options{Workers: 1})
	grid := geom.NewGrid(geom.Rect{Hx: float64(w), Hy: float64(h)}, w, h)
	sys := field.NewSystem(grid, e)
	out := make([]Sample, 0, n)
	for s := 0; s < n; s++ {
		dens := randomDensity(rng, h, w)
		copy(sys.Total, dens)
		sys.SolvePoisson(e)
		smp := Sample{
			Density: dens,
			Ex:      append([]float64(nil), sys.Ex...),
			Ey:      append([]float64(nil), sys.Ey...),
			H:       h, W: w,
		}
		out = append(out, smp)
	}
	return out
}

// randomDensity synthesizes a density map: 3-10 Gaussian clusters plus
// 0-3 macro-like rectangles, clipped to [0, 4].
func randomDensity(rng *rand.Rand, h, w int) []float64 {
	d := make([]float64, h*w)
	blobs := 3 + rng.Intn(8)
	for b := 0; b < blobs; b++ {
		cx := rng.Float64() * float64(w)
		cy := rng.Float64() * float64(h)
		sx := (0.03 + 0.12*rng.Float64()) * float64(w)
		sy := (0.03 + 0.12*rng.Float64()) * float64(h)
		amp := 0.3 + 1.5*rng.Float64()
		for y := 0; y < h; y++ {
			dy := (float64(y) + 0.5 - cy) / sy
			for x := 0; x < w; x++ {
				dx := (float64(x) + 0.5 - cx) / sx
				d[y*w+x] += amp * math.Exp(-0.5*(dx*dx+dy*dy))
			}
		}
	}
	rects := rng.Intn(4)
	for r := 0; r < rects; r++ {
		x0 := rng.Intn(w)
		y0 := rng.Intn(h)
		rw := 2 + rng.Intn(w/4)
		rh := 2 + rng.Intn(h/4)
		amp := 0.5 + rng.Float64()
		for y := y0; y < y0+rh && y < h; y++ {
			for x := x0; x < x0+rw && x < w; x++ {
				d[y*w+x] += amp
			}
		}
	}
	for i, v := range d {
		if v > 4 {
			d[i] = 4
		}
	}
	return d
}

// TrainOptions tunes Train.
type TrainOptions struct {
	Epochs int
	LR     float64
	// Log receives per-epoch mean relative-L2 loss (optional).
	Log  func(epoch int, loss float64)
	Seed int64
}

// Train fits the model on the samples' x-direction fields with Adam and
// returns the per-epoch mean relative-L2 losses.
func (m *Model) Train(samples []Sample, opts TrainOptions) []float64 {
	if opts.Epochs <= 0 {
		opts.Epochs = 10
	}
	if opts.LR <= 0 {
		opts.LR = 1e-3
	}
	if len(samples) > 0 && m.TrainRes == 0 {
		m.TrainRes = samples[0].H
	}
	ps, gs := m.params()
	mom := make([][]float64, len(ps))
	vel := make([][]float64, len(ps))
	for i := range ps {
		mom[i] = make([]float64, len(ps[i]))
		vel[i] = make([]float64, len(ps[i]))
	}
	// One workspace per map size in the set (usually one).
	spaces := map[[2]int]*workspace{}
	const b1, b2, eps = 0.9, 0.999, 1e-8
	rng := rand.New(rand.NewSource(opts.Seed))
	losses := make([]float64, 0, opts.Epochs)
	step := 0
	for ep := 0; ep < opts.Epochs; ep++ {
		order := rng.Perm(len(samples))
		var sum float64
		for _, si := range order {
			s := samples[si]
			ws := spaces[[2]int{s.H, s.W}]
			if ws == nil {
				ws = newWorkspace(m.Cfg, s.H, s.W, true)
				spaces[[2]int{s.H, s.W}] = ws
			}
			m.zeroGrad()
			sum += ws.forwardBackward(m, s.Density, s.Ex)
			step++
			b1p := 1 - math.Pow(b1, float64(step))
			b2p := 1 - math.Pow(b2, float64(step))
			for i := range ps {
				p, g, mo, ve := ps[i], gs[i], mom[i], vel[i]
				for j := range p {
					mo[j] = b1*mo[j] + (1-b1)*g[j]
					ve[j] = b2*ve[j] + (1-b2)*g[j]*g[j]
					p[j] -= opts.LR * (mo[j] / b1p) / (math.Sqrt(ve[j]/b2p) + eps)
				}
			}
		}
		loss := sum / float64(len(samples))
		losses = append(losses, loss)
		if opts.Log != nil {
			opts.Log(ep, loss)
		}
	}
	return losses
}

// Evaluate returns the mean relative-L2 error of the model's x-field
// prediction over the samples (no training).
func (m *Model) Evaluate(samples []Sample) float64 {
	var sum float64
	for _, s := range samples {
		pred := m.Forward(s.Density, s.H, s.W)
		var diff, lab float64
		for i := range pred {
			d := pred[i] - s.Ex[i]
			diff += d * d
			lab += s.Ex[i] * s.Ex[i]
		}
		if lab < 1e-12 {
			lab = 1e-12
		}
		sum += math.Sqrt(diff) / math.Sqrt(lab)
	}
	return sum / float64(len(samples))
}

// EvaluateFlipY measures the flip trick (§3.3): the y field predicted by
// transposing the input, running the x-direction model, and transposing
// back.
func (m *Model) EvaluateFlipY(samples []Sample) float64 {
	var sum float64
	for _, s := range samples {
		pred := m.predictY(s.Density, s.H, s.W)
		var diff, lab float64
		for i := range pred {
			d := pred[i] - s.Ey[i]
			diff += d * d
			lab += s.Ey[i] * s.Ey[i]
		}
		if lab < 1e-12 {
			lab = 1e-12
		}
		sum += math.Sqrt(diff) / math.Sqrt(lab)
	}
	return sum / float64(len(samples))
}

// transpose returns the H x W map as W x H.
func transpose(a []float64, h, w int) []float64 {
	out := make([]float64, h*w)
	transposeInto(out, a, h, w)
	return out
}

// transposeInto writes the H x W map a into dst as W x H.
func transposeInto(dst, a []float64, h, w int) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dst[x*h+y] = a[y*w+x]
		}
	}
}

// predictY predicts the y field via the transpose trick.
func (m *Model) predictY(density []float64, h, w int) []float64 {
	t := transpose(density, h, w)
	py := m.Forward(t, w, h)
	return transpose(py, w, h)
}
