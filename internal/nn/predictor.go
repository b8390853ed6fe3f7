package nn

import (
	"fmt"
	"sync"
)

// maxIdleWorkspaces bounds a Predictor's free list: enough for a few
// concurrent placers on a couple of grid sizes each; beyond it the oldest
// idle workspace is dropped, so a daemon that has seen many grid sizes does
// not keep a buffer set for each.
const maxIdleWorkspaces = 8

// Predictor adapts a trained Model to the placer's FieldPredictor hook
// (Eq. 14 blending happens in the placer). Each call checks a workspace
// out of the predictor's free list, so one Predictor serves any number of
// concurrent placers and a warm call allocates nothing. The zero value
// with M set is ready to use; a Predictor must not be copied after first
// use.
type Predictor struct {
	M *Model

	mu   sync.Mutex
	idle []*workspace // most recently used last
}

func (p *Predictor) checkout(h, w int) *workspace {
	p.mu.Lock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if ws := p.idle[i]; ws.cfg == p.M.Cfg && ws.h == h && ws.w == w {
			p.idle = append(p.idle[:i], p.idle[i+1:]...)
			p.mu.Unlock()
			return ws
		}
	}
	p.mu.Unlock()
	return newWorkspace(p.M.Cfg, h, w, false)
}

func (p *Predictor) checkin(ws *workspace) {
	p.mu.Lock()
	if len(p.idle) == maxIdleWorkspaces {
		p.idle = append(p.idle[:0], p.idle[1:]...)
	}
	p.idle = append(p.idle, ws)
	p.mu.Unlock()
}

// CheckGrid reports whether the model can run on an nx x ny grid: the
// kept modes need at least 2*Modes bins per axis. The placer asks before
// the first iteration, so an undersized grid fails the job instead of
// panicking in PredictField.
func (p *Predictor) CheckGrid(nx, ny int) error {
	if min := 2 * p.M.Cfg.Modes; nx < min || ny < min {
		return fmt.Errorf("nn: grid %dx%d too small for a model with %d modes (needs at least %dx%d)",
			nx, ny, p.M.Cfg.Modes, min, min)
	}
	return nil
}

// PredictField fills exOut/eyOut with the model's field prediction for
// the given density map (all row-major ny x nx). The y field comes from
// the x-direction model through the transpose trick.
func (p *Predictor) PredictField(density []float64, nx, ny int, exOut, eyOut []float64) {
	if n := nx * ny; len(density) != n || len(exOut) != n || len(eyOut) != n {
		panic(fmt.Sprintf("nn: PredictField buffers have %d, %d and %d values, want %dx%d",
			len(density), len(exOut), len(eyOut), nx, ny))
	}
	ws := p.checkout(ny, nx)
	ws.forward(p.M, density, exOut)
	if nx != ny {
		p.checkin(ws)
		ws = p.checkout(nx, ny)
	}
	transposeInto(ws.tin, density, ny, nx)
	ws.forward(p.M, ws.tin, ws.out)
	transposeInto(eyOut, ws.out, nx, ny)
	p.checkin(ws)
}
