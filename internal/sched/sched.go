// Package sched implements the parameter scheduling of the placer: the
// wirelength smoothing gamma as a function of overflow, the density weight
// lambda update driven by HPWL movement (the ePlace/DREAMPlace schedule),
// the stopping criterion, and the paper's placement-stage-aware scheduling
// (§3.2, Algorithm 1) built on the precondition weighted ratio omega.
package sched

import "math"

// The schedule's constants: the ePlace/DREAMPlace-style values the placer
// is tuned to.
const (
	// gamma = gammaBase * binSize * 10^(gammaK*overflow + gammaB): the WA
	// smoothing parameter goes from ~50 bins at overflow 1 down to ~0.5 bins
	// at overflow 0.1.
	gammaBase = 0.5
	gammaK    = 20.0 / 9
	gammaB    = -2.0 / 9
	// lambdaInit scales the initial density weight relative to the
	// gradient-norm ratio: lambda0 = lambdaInit * |gradWL|_1 / |gradD|_1
	// (the DREAMPlace-style warm start). The early stage is
	// wirelength-dominated (r = lambda|gradD|/|gradWL| ultra-small, the
	// §3.1.4 observation) while lambda ramps by muMax towards balance. This
	// requires a spread initial placement.
	lambdaInit = 1e-4
	// muMax is the lambda multiplier per update; muMin is its lower clamp
	// under HPWL degradation: growth pauses but never reverses (on small
	// designs per-iteration HPWL noise is large relative to the total and a
	// sub-1 floor stalls the ramp).
	muMax = 1.1
	muMin = 1.0
	// refDeltaHPWL is the per-iteration HPWL increase treated as "one unit"
	// of degradation when shrinking mu, as a fraction of the FIRST observed
	// HPWL. A fixed reference (as ePlace's 3.5e5 DBU constant is) keeps tiny
	// fluctuations at a collapsed intermediate state from stalling the
	// lambda ramp.
	refDeltaHPWL = 1e-2
	// stopOverflow is the target overflow to stop at.
	stopOverflow = 0.07
	// stageInterval: during the intermediate stage (0.5 < omega < 0.95) a
	// stage-aware schedule updates its parameters once per stageInterval
	// iterations (Algorithm 1).
	stageInterval = 3
	// Early-stage density-operator skipping (§3.1.4): while r =
	// lambda|gradD|/|gradWL| < skipRatio and iter < skipMaxIter, the density
	// gradient is recomputed only every skipInterval iterations.
	skipRatio    = 0.01
	skipMaxIter  = 100
	skipInterval = 20
)

// Options configures a Scheduler. Zero values select the defaults noted on
// each field.
type Options struct {
	// MinIter/MaxIter bound the GP loop (defaults 50 / 3000).
	MinIter, MaxIter int
	// StageAware enables Algorithm 1: during the intermediate stage
	// (0.5 < omega < 0.95) parameters update once per stageInterval
	// iterations.
	StageAware bool
	// SkipEnabled enables early-stage density-operator skipping (§3.1.4).
	SkipEnabled bool
}

func (o Options) withDefaults() Options {
	if o.MinIter == 0 {
		o.MinIter = 50
	}
	if o.MaxIter == 0 {
		o.MaxIter = 3000
	}
	return o
}

// OmegaFunc maps the current lambda to the precondition weighted ratio
// omega (optim.Preconditioner.Omega satisfies it).
type OmegaFunc func(lambda float64) float64

// Scheduler owns the placement parameters gamma and lambda and decides
// when to update them and when to stop.
type Scheduler struct {
	opts    Options
	omegaOf OmegaFunc
	binSize float64 // characteristic bin dimension (design units)

	Gamma  float64
	Lambda float64

	iter        int
	prevHPWL    float64
	baseHPWL    float64 // first observed HPWL: fixed mu reference scale
	initialized bool
	sinceUpdate int
}

// New creates a scheduler. binSize is the characteristic bin dimension of
// the density grid in design units; omegaOf maps lambda to omega (pass nil
// to disable stage awareness regardless of Options.StageAware).
func New(opts Options, binSize float64, omegaOf OmegaFunc) *Scheduler {
	o := opts.withDefaults()
	if omegaOf == nil {
		o.StageAware = false
		omegaOf = func(float64) float64 { return 0 }
	}
	s := &Scheduler{opts: o, omegaOf: omegaOf, binSize: binSize}
	s.Gamma = s.gammaFor(1.0) // start fully smoothed
	return s
}

// Omega returns the current placement-stage metric (§3.2).
func (s *Scheduler) Omega() float64 { return s.omegaOf(s.Lambda) }

// StageName classifies the precondition weighted ratio omega into the
// paper's three placement stages (§3.2): early (omega <= 0.5),
// intermediate (0.5 < omega < 0.95), final (omega >= 0.95).
func StageName(omega float64) string {
	switch {
	case omega <= 0.5:
		return "early"
	case omega < 0.95:
		return "intermediate"
	default:
		return "final"
	}
}

func (s *Scheduler) gammaFor(overflow float64) float64 {
	ov := math.Max(0, math.Min(1, overflow))
	return gammaBase * s.binSize * math.Pow(10, gammaK*ov+gammaB)
}

// InitLambda sets the initial density weight from the first iteration's
// gradient norms: lambda0 = lambdaInit * |gradWL| / |gradD| (the
// DREAMPlace warm start). Call once before the loop.
func (s *Scheduler) InitLambda(wlGradNorm, densGradNorm float64) {
	if densGradNorm <= 0 {
		densGradNorm = 1
	}
	s.Lambda = lambdaInit * wlGradNorm / densGradNorm
	if s.Lambda <= 0 {
		s.Lambda = lambdaInit
	}
}

// ShouldUpdateParams implements Algorithm 1: in the intermediate stage
// (0.5 < omega < 0.95) parameters update only once per stageInterval
// iterations; in every other stage they update each iteration. Without
// stage awareness it always returns true.
func (s *Scheduler) ShouldUpdateParams() bool {
	if !s.opts.StageAware {
		return true
	}
	w := s.Omega()
	if w > 0.5 && w < 0.95 {
		return s.sinceUpdate >= stageInterval-1
	}
	return true
}

// ShouldSkipDensity reports whether the density-gradient operator may be
// skipped this iteration (§3.1.4): r < skipRatio in the early stage, with
// a full recomputation every skipInterval iterations. r is the ratio
// lambda*|gradD| / |gradWL| from the previous full evaluation.
func (s *Scheduler) ShouldSkipDensity(r float64) bool {
	if !s.opts.SkipEnabled {
		return false
	}
	if s.iter >= skipMaxIter || r >= skipRatio {
		return false
	}
	return s.iter%skipInterval != 0
}

// Advance records one completed GP iteration and, when Algorithm 1 allows,
// updates gamma from the overflow and lambda from the HPWL movement.
// Returns true when the parameters were updated.
func (s *Scheduler) Advance(hpwl, overflow float64) bool {
	s.iter++
	if !s.initialized {
		s.prevHPWL = hpwl
		s.baseHPWL = hpwl
		s.initialized = true
		s.sinceUpdate = 0
		s.Gamma = s.gammaFor(overflow)
		return true
	}
	if !s.ShouldUpdateParams() {
		s.sinceUpdate++
		return false
	}
	s.sinceUpdate = 0
	s.Gamma = s.gammaFor(overflow)
	// mu = muMax^(1 - relDelta/refDeltaHPWL), clamped to [muMin, muMax]:
	// HPWL improvement (or small growth) pushes lambda up by muMax; strong
	// degradation backs off towards muMin.
	relDelta := 0.0
	if s.baseHPWL > 0 {
		relDelta = (hpwl - s.prevHPWL) / s.baseHPWL
	}
	expo := 1 - relDelta/refDeltaHPWL
	mu := math.Pow(muMax, expo)
	mu = math.Max(muMin, math.Min(muMax, mu))
	s.Lambda *= mu
	s.prevHPWL = hpwl
	return true
}

// State is the serializable mutable state of a Scheduler — the part of
// the parameter schedule a durable placement job must checkpoint to
// resume bit-identically (Options, binSize and the omega map are
// reconstructed from the job spec instead).
type State struct {
	Gamma       float64 `json:"gamma"`
	Lambda      float64 `json:"lambda"`
	Iter        int     `json:"iter"`
	PrevHPWL    float64 `json:"prev_hpwl"`
	BaseHPWL    float64 `json:"base_hpwl"`
	Initialized bool    `json:"initialized"`
	SinceUpdate int     `json:"since_update"`
}

// State snapshots the schedule's mutable state.
func (s *Scheduler) State() State {
	return State{
		Gamma:       s.Gamma,
		Lambda:      s.Lambda,
		Iter:        s.iter,
		PrevHPWL:    s.prevHPWL,
		BaseHPWL:    s.baseHPWL,
		Initialized: s.initialized,
		SinceUpdate: s.sinceUpdate,
	}
}

// Restore replaces the schedule's mutable state with a snapshot taken by
// State on a scheduler built from the same Options and design.
func (s *Scheduler) Restore(st State) {
	s.Gamma = st.Gamma
	s.Lambda = st.Lambda
	s.iter = st.Iter
	s.prevHPWL = st.PrevHPWL
	s.baseHPWL = st.BaseHPWL
	s.initialized = st.Initialized
	s.sinceUpdate = st.SinceUpdate
}

// Done reports whether global placement should stop: the overflow target
// is met after MinIter iterations, or MaxIter is exhausted.
func (s *Scheduler) Done(overflow float64) bool {
	if s.iter >= s.opts.MaxIter {
		return true
	}
	return s.iter >= s.opts.MinIter && overflow <= stopOverflow
}
