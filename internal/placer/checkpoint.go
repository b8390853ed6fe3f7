package placer

import (
	"fmt"

	"xplace/internal/optim"
	"xplace/internal/sched"
)

// Checkpoint is the serializable mid-trajectory state of a Placer, taken
// at an iteration boundary. It captures exactly the state that crosses
// iterations — the optimizer trajectory, the parameter schedule, the
// cached density gradient (which operator skipping may reuse) and the last
// host-visible scalars — so a fresh Placer built from the same design,
// options and engine worker count that restores a Checkpoint continues the
// run bit-identically to one that was never interrupted.
//
// Everything else a Placer holds is either reconstructed from the job
// spec (design, grid, bounds, preconditioner, kernel bodies) or
// recomputed from scratch every iteration (wirelength gradients, density
// maps, fields), and is deliberately not serialized.
//
// Float64 values survive encoding/json round trips exactly (Go emits the
// shortest decimal that parses back to the same bits), so a
// JSON-encoded Checkpoint is a faithful resume point.
type Checkpoint struct {
	// Cells guards against restoring into a different (augmented) design.
	Cells int `json:"cells"`
	// Iter is the number of completed GP iterations.
	Iter         int     `json:"iter"`
	LastOverflow float64 `json:"last_overflow"`
	LastEnergy   float64 `json:"last_energy"`
	LastR        float64 `json:"last_r"`
	LambdaInit   bool    `json:"lambda_init"`
	// DGX/DGY are the cached density gradients: an early-stage resumed
	// iteration may reuse them via operator skipping (§3.1.4) instead of
	// recomputing the field.
	DGX []float64 `json:"dgx"`
	DGY []float64 `json:"dgy"`

	Sched sched.State `json:"sched"`
	Opt   optim.State `json:"opt"`
}

// Checkpoint snapshots the placer's cross-iteration state. It must be
// called at an iteration boundary — from the Options.Checkpoint hook, or
// between RunIterations calls — never concurrently with a running
// iteration. Strategies without resume support (see
// ErrStrategyNotResumable) return nil; the periodic Options.Checkpoint
// hook is never invoked for them.
func (p *Placer) Checkpoint() *Checkpoint {
	if p.lbub != nil {
		return nil
	}
	return &Checkpoint{
		Cells:        p.d.NumCells(),
		Iter:         p.iter,
		LastOverflow: p.lastOverflow,
		LastEnergy:   p.lastEnergy,
		LastR:        p.lastR,
		LambdaInit:   p.lambdaInit,
		DGX:          append([]float64(nil), p.dGX...),
		DGY:          append([]float64(nil), p.dGY...),
		Sched:        p.schd.State(),
		Opt:          p.opt.State(),
	}
}

// restore loads a checkpoint into a freshly constructed placer (the
// Options.Resume path of New). The checkpoint must come from a placer
// over the same design and options; the optimizer kind and cell count
// are validated, the rest is the caller's contract.
func (p *Placer) restore(cp *Checkpoint) error {
	n := p.d.NumCells()
	if cp.Cells != n {
		return fmt.Errorf("placer: checkpoint has %d cells, design has %d", cp.Cells, n)
	}
	if len(cp.DGX) != n || len(cp.DGY) != n {
		return fmt.Errorf("placer: checkpoint density gradient has %d/%d entries, want %d",
			len(cp.DGX), len(cp.DGY), n)
	}
	if err := p.opt.Restore(cp.Opt); err != nil {
		return fmt.Errorf("placer: restoring optimizer: %w", err)
	}
	p.schd.Restore(cp.Sched)
	copy(p.dGX, cp.DGX)
	copy(p.dGY, cp.DGY)
	p.iter = cp.Iter
	p.lastOverflow = cp.LastOverflow
	p.lastEnergy = cp.LastEnergy
	p.lastR = cp.LastR
	p.lambdaInit = cp.LambdaInit
	return nil
}
