package placer

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Strategy selects the global-placement algorithm.
type Strategy int

const (
	// StrategyNesterov is the paper's electrostatic gradient flow: WA
	// wirelength + eDensity gradients under the Nesterov/Adam optimizer
	// (the default, and the only strategy the §3.1 operator toggles and
	// checkpoint/resume apply to).
	StrategyNesterov Strategy = iota
	// StrategyLBUB is the Coloquinte-style lower/upper-bound alternation:
	// a B2B net-model least-squares solve (lower bound) alternating with a
	// rough bin-capacity legalization (upper bound), blended by anchor
	// pseudo-nets and stopped on the LB/UB gap. Structurally independent
	// of the gradient flow, it serves as the CI quality oracle, the
	// divergence fallback and the service's cheap "draft" tier.
	StrategyLBUB
)

func (s Strategy) String() string {
	if s == StrategyLBUB {
		return "lbub"
	}
	return "nesterov"
}

// StrategyNames lists the accepted strategy names in ParseStrategy order.
func StrategyNames() []string { return []string{"nesterov", "lbub"} }

// ParseStrategy maps a CLI/request strategy name to a Strategy. The empty
// string is the default (Nesterov).
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "nesterov":
		return StrategyNesterov, nil
	case "lbub":
		return StrategyLBUB, nil
	}
	return 0, fmt.Errorf("placer: unknown strategy %q (have %s)",
		name, strings.Join(StrategyNames(), ", "))
}

// ErrDiverged marks a run the gradient flow cannot recover: an iteration
// produced non-finite or exploding wirelength/overflow. Callers (the job
// scheduler in particular) match it with errors.Is and may re-run the job
// under StrategyLBUB, whose failure profile is disjoint.
var ErrDiverged = errors.New("placer: global placement diverged")

// ErrStrategyNotResumable is returned by New when Options.Resume carries a
// checkpoint but the selected strategy does not support checkpoint/resume
// (only StrategyNesterov does). A typed error — rather than a silent
// from-scratch restart — lets the caller decide between failing the job
// and dropping the checkpoint explicitly.
var ErrStrategyNotResumable = errors.New("placer: strategy does not support checkpoint resume")

// Divergence thresholds. Legitimate runs stay many orders of magnitude
// below both (die spans are ~1e4 units, HPWL ~1e9 at the largest), while
// pathological inputs — the fuzz corpora produce pin offsets up to 1e40 —
// blow past them on the first iteration without necessarily reaching Inf.
const (
	divergedHPWL     = 1e30
	divergedOverflow = 1e9
)

// diverged classifies an iteration record as unrecoverable.
func diverged(rec Record) bool {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	return bad(rec.HPWL) || bad(rec.WA) || bad(rec.Overflow) ||
		math.Abs(rec.HPWL) > divergedHPWL || rec.Overflow > divergedOverflow
}

// LBUBParams are the tunables of the LB/UB alternation strategy,
// Coloquinte-style. Distances are in bin units (multiples of the density
// grid's bin dimension) so presets transfer across die sizes.
type LBUBParams struct {
	// MaxSteps bounds the LB/UB rounds (Options.Sched.MaxIter, when set,
	// caps it further).
	MaxSteps int
	// GapTolerance stops the run once (UB-LB)/UB falls below it.
	GapTolerance float64
	// NbInitialSteps is the number of anchor-free net-model rounds before
	// the UB targets start pulling.
	NbInitialSteps int
	// InitialPenalty is the first anchor pseudo-net weight; it grows by
	// PenaltyUpdateFactor after every anchored round.
	InitialPenalty      float64
	PenaltyUpdateFactor float64
	// PenaltyCutoffDistance floors the anchor distance so the 1/dist
	// weight stays bounded near the target (bin units).
	PenaltyCutoffDistance float64
	// ApproximationDistance floors the B2B edge length so coincident pins
	// do not produce unbounded weights (bin units).
	ApproximationDistance float64
	// MaxCGIters and CGTolerance bound each axis's conjugate-gradient
	// solve.
	MaxCGIters  int
	CGTolerance float64
}

// LBUBEffort maps a Coloquinte-style effort level (1 = fastest draft,
// 9 = highest quality; 0 selects the default, 3) to a parameter preset.
// Higher effort buys more alternation rounds, a tighter gap stop, deeper
// CG solves and gentler penalty growth.
func LBUBEffort(effort int) LBUBParams {
	if effort <= 0 {
		effort = 3
	}
	if effort > 9 {
		effort = 9
	}
	e := float64(effort)
	return LBUBParams{
		MaxSteps:              20 + 10*effort,
		GapTolerance:          0.02 + 0.25/e,
		NbInitialSteps:        2,
		InitialPenalty:        0.03,
		PenaltyUpdateFactor:   1.10 + 0.30/e,
		PenaltyCutoffDistance: 1.5,
		ApproximationDistance: 0.25,
		MaxCGIters:            30 + 20*effort,
		CGTolerance:           1e-6,
	}
}
