package nn

import (
	"fmt"
	"math"
)

// workspace is everything one pass over an h x w map needs besides the
// model's weights: the twiddle tables of the mode-truncated DFT, every
// activation, the kept-mode spectra and the scratch rows. It is built once
// per (architecture, h, w) and reused, so a warm forward pass allocates
// nothing, and because passes write only here, the model stays read-only.
//
// The transform never materializes a full spectrum. The FNO keeps the
// spectrum rows ky_j (j < 2m: the m lowest and the m highest) and columns
// kx < m, so the forward transform is X = F_H[2m x h] · x · F_W[w x m]: a
// row stage of h·w·m multiply-adds straight from the real map, then a
// column stage on the m kept columns only. The inverse expands the 2m x m
// modes the same way in reverse, y = Re(F_H^H · S · F_W^H). Both row stages
// use the symmetry of a real signal's spectrum (cos is even and sin is odd
// about x = w/2), which halves their work.
type workspace struct {
	cfg   Config
	h, w  int
	train bool

	// cw/sw[k*nh+x] = cos/sin(2π·k·x/w) for k < modes, x < nh = w/2+1.
	// ch/sh[j*h+y] = cos/sin(2π·ky_j·y/h) for the 2·modes kept rows.
	cw, sw, ch, sh []float64
	mx, my         []float64 // mesh channels: x/w and y/h
	mesh           []float64 // [w]: one lift channel's mesh-x term

	// act[l] is the input of block l (act[0] the lift output, act[layers]
	// the projection's input); pre[l] is block l's pre-activation. For
	// inference pre[l] aliases act[l+1] and the act buffers ping-pong;
	// a training workspace keeps all of them for the backward pass.
	act, pre   [][][]float64
	inRe, inIm [][]float64 // [l][i*nm+slot]: kept modes of block l's inputs

	aRe, aIm []float64 // [c*nm+slot]: mixed modes (forward), dL/dY (backward)
	bRe, bIm []float64 // [c*nm+slot]: dL/dX (backward)
	tre, tim []float64 // [y*modes+k]: between the row and column stages
	ev, od   []float64 // [nh]: folded row (even and odd parts)

	tin, out []float64 // transposed input and its output, for the flip trick

	// Training only.
	gA, gB [][]float64 // activation gradients, ping-pong
	gout   []float64   // dL/d(prediction)
	wT     []float64   // transposed 1x1 weights
}

// channels carves c maps of n values out of one slab.
func channels(c, n int) [][]float64 {
	slab := make([]float64, c*n)
	out := make([][]float64, c)
	for i := range out {
		out[i] = slab[i*n : (i+1)*n : (i+1)*n]
	}
	return out
}

func newWorkspace(cfg Config, h, w int, train bool) *workspace {
	m, c, n := cfg.Modes, cfg.Width, h*w
	if h < 2*m || w < 2*m {
		panic(fmt.Sprintf("nn: resolution %dx%d too small for %d modes", h, w, m))
	}
	nm := 2 * m * m
	ws := &workspace{
		cfg: cfg, h: h, w: w, train: train,
		mx: make([]float64, w), my: make([]float64, h), mesh: make([]float64, w),
		aRe: make([]float64, c*nm), aIm: make([]float64, c*nm),
		tre: make([]float64, h*m), tim: make([]float64, h*m),
		tin: make([]float64, n), out: make([]float64, n),
	}
	nh := w/2 + 1
	ws.ev, ws.od = make([]float64, nh), make([]float64, nh)
	ws.cw, ws.sw = make([]float64, m*nh), make([]float64, m*nh)
	for k := 0; k < m; k++ {
		for x := 0; x < nh; x++ {
			// Reducing k·x mod w first keeps the angle in [0, 2π).
			ws.sw[k*nh+x], ws.cw[k*nh+x] = math.Sincos(2 * math.Pi * float64(k*x%w) / float64(w))
		}
	}
	ws.ch, ws.sh = make([]float64, 2*m*h), make([]float64, 2*m*h)
	for j := 0; j < 2*m; j++ {
		ky := j
		if j >= m {
			ky = h - 2*m + j
		}
		for y := 0; y < h; y++ {
			ws.sh[j*h+y], ws.ch[j*h+y] = math.Sincos(2 * math.Pi * float64(ky*y%h) / float64(h))
		}
	}
	for x := range ws.mx {
		ws.mx[x] = float64(x) / float64(w)
	}
	for y := range ws.my {
		ws.my[y] = float64(y) / float64(h)
	}

	ws.act = make([][][]float64, cfg.Layers+1)
	ws.pre = make([][][]float64, cfg.Layers)
	ws.inRe, ws.inIm = make([][]float64, cfg.Layers), make([][]float64, cfg.Layers)
	for l := range ws.inRe {
		ws.inRe[l], ws.inIm[l] = make([]float64, c*nm), make([]float64, c*nm)
	}
	if !train {
		ping := [2][][]float64{channels(c, n), channels(c, n)}
		for l := range ws.act {
			ws.act[l] = ping[l%2]
		}
		copy(ws.pre, ws.act[1:])
		return ws
	}
	for l := range ws.act {
		ws.act[l] = channels(c, n)
	}
	for l := range ws.pre {
		ws.pre[l] = channels(c, n)
	}
	ws.bRe, ws.bIm = make([]float64, c*nm), make([]float64, c*nm)
	ws.gA, ws.gB = channels(c, n), channels(c, n)
	ws.gout = make([]float64, n)
	ws.wT = make([]float64, c*c)
	return ws
}

// dotPair returns Σ a·b and Σ c·d over equal-length slices; the two sums
// per product keep four independent add chains in flight.
func dotPair(a, b, c, d []float64) (float64, float64) {
	n := len(a)
	b, c, d = b[:n], c[:n], d[:n]
	var s0, s1, t0, t1 float64
	i := 0
	for ; i+1 < n; i += 2 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		t0 += c[i] * d[i]
		t1 += c[i+1] * d[i+1]
	}
	if i < n {
		s0 += a[i] * b[i]
		t0 += c[i] * d[i]
	}
	return s0 + s1, t0 + t1
}

// dot returns Σ a·b.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// axpy2 adds u·a + v·b to dst.
func axpy2(dst []float64, u float64, a []float64, v float64, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] += u*a[i] + v*b[i]
	}
}

// axpy adds u·a to dst.
func axpy(dst []float64, u float64, a []float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] += u * a[i]
	}
}

// analyze writes the kept modes of the real map x to outRe/outIm[slot]:
// X[ky_j, kx] = Σ_{y,x} x[y,x]·e^{-2πi(ky_j·y/h + kx·x/w)}, slot = j·m+kx.
func (ws *workspace) analyze(x, outRe, outIm []float64) {
	m, h, w, nh := ws.cfg.Modes, ws.h, ws.w, len(ws.ev)
	ev, od := ws.ev, ws.od
	// Row stage: fold each row into its even and odd parts about x = w/2,
	// then one half-length dot product per kept column and part.
	for y := 0; y < h; y++ {
		row := x[y*w : (y+1)*w]
		ev[0], od[0] = row[0], 0
		for a, b := 1, w-1; a < b; a, b = a+1, b-1 {
			ev[a] = row[a] + row[b]
			od[a] = row[a] - row[b]
		}
		if w%2 == 0 {
			ev[w/2], od[w/2] = row[w/2], 0
		}
		tr, ti := ws.tre[y*m:(y+1)*m], ws.tim[y*m:(y+1)*m]
		for k := range tr {
			re, im := dotPair(ev, ws.cw[k*nh:(k+1)*nh], od, ws.sw[k*nh:(k+1)*nh])
			tr[k], ti[k] = re, -im
		}
	}
	// Column stage, on the m kept columns only.
	for j := 0; j < 2*m; j++ {
		xr, xi := outRe[j*m:(j+1)*m], outIm[j*m:(j+1)*m]
		for k := range xr {
			xr[k], xi[k] = 0, 0
		}
		xi = xi[:len(xr)]
		for y := 0; y < h; y++ {
			c, s := ws.ch[j*h+y], ws.sh[j*h+y]
			tr := ws.tre[y*m : (y+1)*m]
			ti := ws.tim[y*m : (y+1)*m][:len(tr)]
			for k := range xr {
				xr[k] += c*tr[k] + s*ti[k]
				xi[k] += c*ti[k] - s*tr[k]
			}
		}
	}
}

// synthesize is the fused second half of a block, per output channel o:
//
//	v = bias[o] + Σ_i wts[o·in+i]·src[i] + scale·Re(IDFT of the kept modes sRe/sIm[o])
//
// With pre != nil, v lands in pre[o] and gelu(v) in dst[o] (pre may alias
// dst); with pre == nil, v lands in dst[o]. bias may be nil. The backward
// pass runs the same routine on gradients with the transposed weights.
func (ws *workspace) synthesize(dst, pre, src [][]float64, wts, bias, sRe, sIm []float64, scale float64) {
	m, h, w, nh := ws.cfg.Modes, ws.h, ws.w, len(ws.ev)
	nm := 2 * m * m
	in := len(src)
	av, bv := ws.ev, ws.od
	for o := range dst {
		// Column stage: tre/tim[y·m+k] = scale·Σ_j S[j·m+k]·e^{+2πi·ky_j·y/h}.
		for i := range ws.tre {
			ws.tre[i], ws.tim[i] = 0, 0
		}
		for j := 0; j < 2*m; j++ {
			sr := sRe[o*nm+j*m : o*nm+(j+1)*m]
			si := sIm[o*nm+j*m : o*nm+(j+1)*m][:len(sr)]
			for y := 0; y < h; y++ {
				c, s := scale*ws.ch[j*h+y], scale*ws.sh[j*h+y]
				tr := ws.tre[y*m : (y+1)*m][:len(sr)]
				ti := ws.tim[y*m : (y+1)*m][:len(sr)]
				for k := range sr {
					tr[k] += sr[k]*c - si[k]*s
					ti[k] += sr[k]*s + si[k]*c
				}
			}
		}
		var b0 float64
		if bias != nil {
			b0 = bias[o]
		}
		target := dst[o]
		if pre != nil {
			target = pre[o]
		}
		for y := 0; y < h; y++ {
			// Row stage on half a row: with A = Σ_k tre[k]·cos and
			// B = Σ_k tim[k]·sin, v[x] = A − B and v[w−x] = A + B.
			tr, ti := ws.tre[y*m:(y+1)*m], ws.tim[y*m:(y+1)*m]
			for x := range av {
				av[x], bv[x] = b0+tr[0], 0
			}
			k := 1
			for ; k+1 < m; k += 2 {
				axpy2(av, tr[k], ws.cw[k*nh:(k+1)*nh], tr[k+1], ws.cw[(k+1)*nh:(k+2)*nh])
				axpy2(bv, ti[k], ws.sw[k*nh:(k+1)*nh], ti[k+1], ws.sw[(k+1)*nh:(k+2)*nh])
			}
			if k < m {
				axpy(av, tr[k], ws.cw[k*nh:(k+1)*nh])
				axpy(bv, ti[k], ws.sw[k*nh:(k+1)*nh])
			}
			row := target[y*w : (y+1)*w]
			row[0] = av[0]
			for a, b := 1, w-1; a < b; a, b = a+1, b-1 {
				row[a] = av[a] - bv[a]
				row[b] = av[a] + bv[a]
			}
			if w%2 == 0 {
				row[w/2] = av[w/2]
			}
			// Spatial path.
			i := 0
			for ; i+1 < in; i += 2 {
				axpy2(row, wts[o*in+i], src[i][y*w:(y+1)*w], wts[o*in+i+1], src[i+1][y*w:(y+1)*w])
			}
			if i < in {
				axpy(row, wts[o*in+i], src[i][y*w:(y+1)*w])
			}
			if pre != nil {
				act := dst[o][y*w : (y+1)*w]
				for x, v := range row {
					act[x] = gelu(v)
				}
			}
		}
	}
}

// forward runs the model on density and writes the predicted x field to
// out (both row-major h x w).
func (ws *workspace) forward(m *Model, density, out []float64) {
	h, w := ws.h, ws.w
	if len(density) != h*w || len(out) != h*w {
		panic(fmt.Sprintf("nn: density has %d and output %d values, want %dx%d", len(density), len(out), h, w))
	}
	// Lift {density; mesh-x; mesh-y}. The mesh channels are separable, so
	// their share is one term per column (rebuilt here, since training
	// moves the weights) plus one per row, not two multiply-adds a pixel.
	for o, dst := range ws.act[0] {
		w0, w1, w2 := m.lift.w[o*InChannels], m.lift.w[o*InChannels+1], m.lift.w[o*InChannels+2]
		for x := range ws.mesh {
			ws.mesh[x] = w1 * ws.mx[x]
		}
		for y := 0; y < h; y++ {
			r := m.lift.b[o] + w2*ws.my[y]
			row, d := dst[y*w:(y+1)*w], density[y*w:(y+1)*w]
			for x := range row {
				row[x] = r + ws.mesh[x] + w0*d[x]
			}
		}
	}
	scale := 1 / float64(h*w)
	for l, b := range m.blocks {
		x := ws.act[l]
		nm := b.spec.nModes()
		for i := range x {
			ws.analyze(x[i], ws.inRe[l][i*nm:(i+1)*nm], ws.inIm[l][i*nm:(i+1)*nm])
		}
		// Complex channel mixing, one matrix per kept mode.
		for o := 0; o < b.spec.out; o++ {
			yr, yi := ws.aRe[o*nm:(o+1)*nm], ws.aIm[o*nm:(o+1)*nm]
			for s := range yr {
				yr[s], yi[s] = 0, 0
			}
			for i := 0; i < b.spec.in; i++ {
				base := (o*b.spec.in + i) * nm
				wr, wi := b.spec.wRe[base:base+nm], b.spec.wIm[base:base+nm]
				xr, xi := ws.inRe[l][i*nm:(i+1)*nm], ws.inIm[l][i*nm:(i+1)*nm]
				for s := range yr {
					yr[s] += wr[s]*xr[s] - wi[s]*xi[s]
					yi[s] += wr[s]*xi[s] + wi[s]*xr[s]
				}
			}
		}
		ws.synthesize(ws.act[l+1], ws.pre[l], x, b.conv.w, b.conv.b, ws.aRe, ws.aIm, scale)
	}
	// Project back to one channel.
	for p := range out {
		out[p] = m.proj.b[0]
	}
	for c, x := range ws.act[len(m.blocks)] {
		axpy(out, m.proj.w[c], x)
	}
}

// forwardBackward runs one sample through the model, computes the
// relative L2 loss against label and accumulates parameter gradients into
// the model's gradient buffers.
func (ws *workspace) forwardBackward(m *Model, density, label []float64) float64 {
	if !ws.train {
		panic("nn: backward pass on an inference workspace")
	}
	h, w := ws.h, ws.w
	pred := ws.out
	ws.forward(m, density, pred)
	// Relative L2 (Eq. 13).
	var diffSq, labSq float64
	for i := range pred {
		d := pred[i] - label[i]
		diffSq += d * d
		labSq += label[i] * label[i]
	}
	diffNorm := math.Sqrt(diffSq)
	labNorm := math.Sqrt(labSq)
	if labNorm < 1e-12 {
		labNorm = 1e-12
	}
	loss := diffNorm / labNorm
	// dL/dpred = (pred - label) / (|diff| * |label|).
	denom := diffNorm * labNorm
	if denom < 1e-12 {
		denom = 1e-12
	}
	gout := ws.gout
	var gsum float64
	for i := range pred {
		gout[i] = (pred[i] - label[i]) / denom
		gsum += gout[i]
	}

	// Projection.
	g, gx := ws.gA, ws.gB
	m.proj.gb[0] += gsum
	for c, x := range ws.act[len(m.blocks)] {
		m.proj.gw[c] += dot(gout, x)
		wc := m.proj.w[c]
		for p, v := range gout {
			g[c][p] = wc * v
		}
	}

	norm := 1 / float64(h*w)
	for l := len(m.blocks) - 1; l >= 0; l-- {
		b := m.blocks[l]
		x, nm := ws.act[l], b.spec.nModes()
		in, out := b.conv.in, b.conv.out
		for o := range g {
			pre := ws.pre[l][o]
			for p := range g[o] {
				g[o][p] *= geluGrad(pre[p])
			}
			// Spatial path: weight and bias gradients.
			var sum float64
			for _, v := range g[o] {
				sum += v
			}
			b.conv.gb[o] += sum
			for i := 0; i < in; i++ {
				b.conv.gw[o*in+i] += dot(g[o], x[i])
				ws.wT[i*out+o] = b.conv.w[o*in+i]
			}
			// dL/dY on the kept modes = DFT(g)/N.
			gyr, gyi := ws.aRe[o*nm:(o+1)*nm], ws.aIm[o*nm:(o+1)*nm]
			ws.analyze(g[o], gyr, gyi)
			for s := range gyr {
				gyr[s] *= norm
				gyi[s] *= norm
			}
		}
		// Weight grads: dL/dw = conj(x)·dL/dY; input spectrum grads:
		// dL/dX = conj(w)·dL/dY.
		for i := range ws.bRe {
			ws.bRe[i], ws.bIm[i] = 0, 0
		}
		for o := 0; o < out; o++ {
			gyr, gyi := ws.aRe[o*nm:(o+1)*nm], ws.aIm[o*nm:(o+1)*nm]
			for i := 0; i < in; i++ {
				base := (o*in + i) * nm
				wr, wi := b.spec.wRe[base:base+nm], b.spec.wIm[base:base+nm]
				gr, gi := b.spec.gRe[base:base+nm], b.spec.gIm[base:base+nm]
				xr, xi := ws.inRe[l][i*nm:(i+1)*nm], ws.inIm[l][i*nm:(i+1)*nm]
				gxr, gxi := ws.bRe[i*nm:(i+1)*nm], ws.bIm[i*nm:(i+1)*nm]
				for s := range gyr {
					gr[s] += gyr[s]*xr[s] + gyi[s]*xi[s]
					gi[s] += gyi[s]*xr[s] - gyr[s]*xi[s]
					gxr[s] += wr[s]*gyr[s] + wi[s]*gyi[s]
					gxi[s] += wr[s]*gyi[s] - wi[s]*gyr[s]
				}
			}
		}
		// dL/dx = Wᵀ·g + Re(unnormalized IDFT of dL/dX).
		ws.synthesize(gx, nil, g, ws.wT, nil, ws.bRe, ws.bIm, 1)
		g, gx = gx, g
	}

	// Lift: only the weights need gradients.
	for o := range g {
		var gb, gd, gmx, gmy float64
		for y := 0; y < h; y++ {
			row, d := g[o][y*w:(y+1)*w], density[y*w:(y+1)*w]
			var rs float64
			for x, v := range row {
				rs += v
				gd += v * d[x]
				gmx += v * ws.mx[x]
			}
			gb += rs
			gmy += rs * ws.my[y]
		}
		m.lift.gb[o] += gb
		m.lift.gw[o*InChannels] += gd
		m.lift.gw[o*InChannels+1] += gmx
		m.lift.gw[o*InChannels+2] += gmy
	}
	return loss
}
