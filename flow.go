package xplace

import (
	"context"
	"time"

	"xplace/internal/detail"
	"xplace/internal/legal"
)

// LegalizerKind selects the legalization algorithm.
type LegalizerKind int

const (
	// LegalizeTetris is the greedy interval legalizer (fast).
	LegalizeTetris LegalizerKind = iota
	// LegalizeAbacus is the row-clustering legalizer (better quality).
	LegalizeAbacus
)

// DetailOptions configures detailed placement.
type DetailOptions = detail.Options

// FlowOptions configures one end-to-end flow: GP -> legalization ->
// detailed placement -> optional routability scoring. The engine it runs
// on is the Session's.
type FlowOptions struct {
	// Placement configures the GP engine (DefaultPlacement /
	// BaselinePlacement / custom).
	Placement PlacementOptions
	// Legalizer selects the legalization algorithm.
	Legalizer LegalizerKind
	// Route, when non-nil, runs the global router on the final placement
	// (the Table 4 OVFL-5 metric).
	Route *RouteOptions
	// Progress, when non-nil, receives a Snapshot after every GP
	// iteration (overrides Placement.Progress).
	Progress func(Snapshot)
}

// FlowResult carries every stage's outcome.
type FlowResult struct {
	GP *PlacementResult
	// Positions after each stage (cell centers, original design ids).
	LegalX, LegalY []float64
	FinalX, FinalY []float64
	// HPWL after each stage.
	HPWLGP, HPWLLegal, HPWLFinal float64
	// Stage wall times. GPSim additionally includes the simulated
	// kernel-launch cost (the "GP/s" column of Tables 2 and 4).
	GPTime, LGTime, DPTime time.Duration
	GPSim                  time.Duration
	// Violations is the legality-violation count of the final placement
	// (0 for a correct flow).
	Violations int
	// Route is the routability score (nil unless requested).
	Route *RouteResult
}

// RunFlow executes the full placement flow on a design with a default
// engine. It is a thin wrapper over Session.Flow on a temporary Session, so
// the engine it creates is released before returning. The design's stored
// positions are untouched; results are returned in the FlowResult.
func RunFlow(d *Design, opts FlowOptions) (*FlowResult, error) {
	s := NewSession()
	defer s.Close()
	return s.Flow(context.Background(), d, opts)
}

// Legalize runs just the legalization stage.
func Legalize(d *Design, x, y []float64, kind LegalizerKind) ([]float64, []float64, error) {
	if kind == LegalizeAbacus {
		return legal.Abacus(d, x, y)
	}
	return legal.Tetris(d, x, y)
}

// DetailedPlace runs just the detailed-placement stage on a legal
// placement.
func DetailedPlace(d *Design, x, y []float64, opts DetailOptions) ([]float64, []float64) {
	return detail.Run(d, x, y, opts)
}

// CheckLegal returns the number of legality violations of a placement.
func CheckLegal(d *Design, x, y []float64) int { return len(legal.Check(d, x, y)) }
