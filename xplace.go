// Package xplace is a pure-Go reproduction of "Xplace: An Extremely Fast
// and Extensible Global Placement Framework" (Liu, Fu, Wong, Young —
// DAC 2022): an electrostatics-based (ePlace-family) analytical global
// placer with the paper's operator-level optimizations, placement-stage-
// aware parameter scheduling, a DREAMPlace-style autograd baseline for
// comparison, and the Fourier-neural-operator extension (Xplace-NN).
//
// The GPU of the original system is modelled by a kernel-execution engine
// (worker-pool parallel kernels plus an explicit kernel-launch cost on a
// simulated clock); see DESIGN.md for the full substitution map.
//
// Quick start:
//
//	d, _ := xplace.GenerateBenchmark("adaptec1", 0.02, 1)
//	res, _ := xplace.Place(d, xplace.DefaultPlacement())
//	fmt.Println(res.HPWL)
//
// or run the full flow (global placement, legalization, detailed
// placement, optional routability scoring) with RunFlow.
package xplace

import (
	"context"
	"fmt"
	"io"
	"time"

	"xplace/internal/backend"
	"xplace/internal/benchgen"
	"xplace/internal/bookshelf"
	"xplace/internal/geom"
	"xplace/internal/kernel"
	"xplace/internal/lefdef"
	"xplace/internal/netlist"
	"xplace/internal/nn"
	"xplace/internal/placer"
	"xplace/internal/router"
	"xplace/internal/sched"
	"xplace/internal/viz"
)

// Core data-model names, re-exported for API users (internal packages are
// not importable outside this module).
type (
	// Design is a placement instance: cells, nets, pins, rows, region.
	Design = netlist.Design
	// Row is one placement row.
	Row = netlist.Row
	// CellKind classifies cells (Movable, Fixed, Filler).
	CellKind = netlist.CellKind
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
	// Engine executes placement kernels (the simulated GPU).
	Engine = kernel.Engine
	// EngineStats is an Engine accounting snapshot.
	EngineStats = kernel.Stats
	// ArenaStats is the engine buffer-arena accounting (checkout hits,
	// misses, bytes in use / pooled / peak).
	ArenaStats = kernel.ArenaStats
	// PlacementOptions configures global placement.
	PlacementOptions = placer.Options
	// PlacementResult is a global placement outcome.
	PlacementResult = placer.Result
	// Snapshot is a per-iteration progress record (PlacementOptions.Progress
	// / FlowOptions.Progress callback payload).
	Snapshot = placer.Snapshot
	// SchedOptions configures parameter scheduling.
	SchedOptions = sched.Options
	// BenchmarkSpec describes a contest design's published statistics.
	BenchmarkSpec = benchgen.Spec
	// RouteResult is a congestion-scoring outcome.
	RouteResult = router.Result
	// RouteOptions configures the global router.
	RouteOptions = router.Options
	// Model is the Fourier-neural-operator field predictor (Xplace-NN).
	Model = nn.Model
	// ModelConfig describes the FNO architecture.
	ModelConfig = nn.Config
	// TrainSample is one FNO training example.
	TrainSample = nn.Sample
	// TrainOptions configures FNO training.
	TrainOptions = nn.TrainOptions
	// FieldPredictor is the placer's neural-field hook: anything that maps
	// a density grid to a predicted Ex/Ey field (PlacementOptions.Predictor).
	// NewFieldPredictor adapts a trained Model.
	FieldPredictor = placer.FieldPredictor
	// ModelArtifactHeader is the integrity-checked header of a saved model
	// artifact (StatModel reads it without loading the weights).
	ModelArtifactHeader = nn.ArtifactHeader
	// LEFLibrary is a parsed LEF cell library.
	LEFLibrary = lefdef.Library
	// ComputeBackend is a pluggable element-type backend: which numeric
	// type kernel buffers hold and which staged kernel bodies operate on
	// them. Float64Backend() is the exact reference; Float32Backend() the
	// reduced-precision fast path. Select one per run with
	// PlacementOptions.Backend, per session with WithBackend, or process-
	// wide with the XPLACE_BACKEND environment variable.
	ComputeBackend = backend.Backend
	// Strategy selects the global-placement algorithm: StrategyNesterov is
	// the paper's electrostatic gradient flow; StrategyLBUB the
	// Coloquinte-style lower-bound/upper-bound alternation (draft-quality
	// quadratic oracle). Select per run with PlacementOptions.Strategy;
	// ParseStrategy resolves a name.
	Strategy = placer.Strategy
)

// Cell kinds.
const (
	Movable = netlist.Movable
	Fixed   = netlist.Fixed
	Filler  = netlist.Filler
)

// Placement strategies.
const (
	// StrategyNesterov is the default electrostatics-based gradient flow.
	StrategyNesterov = placer.StrategyNesterov
	// StrategyLBUB is the LB/UB alternation oracle (B2B least squares
	// against rough legalization, gap-tolerance stop).
	StrategyLBUB = placer.StrategyLBUB
)

// ParseStrategy resolves a strategy by name ("nesterov", "lbub"); the
// empty name selects the default. It is what the CLI -strategy flags map
// to.
func ParseStrategy(name string) (Strategy, error) { return placer.ParseStrategy(name) }

// Model-artifact sentinels (errors.Is-matchable through LoadModel and
// StatModel): ErrModelNotArtifact marks a stream that
// is not a model artifact at all; ErrModelVersion an artifact written by
// an incompatible schema version; ErrModelCorrupt an artifact whose frame
// parses but whose header or payload fails integrity checking (sha256
// mismatch, truncation, shape/parameter-count disagreement).
var (
	ErrModelNotArtifact = nn.ErrNotModel
	ErrModelVersion     = nn.ErrModelVersion
	ErrModelCorrupt     = nn.ErrModelCorrupt
)

// Wirelength models (the swappable gradient function of the core engine).
const (
	// WLWeightedAverage is the paper's WA model (Eq. 4/6).
	WLWeightedAverage = placer.WLWeightedAverage
	// WLLogSumExp is the classic LSE alternative.
	WLLogSumExp = placer.WLLogSumExp
)

// Float64Backend returns the exact, bit-stable reference backend — the
// float64 pool the determinism tests pin.
func Float64Backend() ComputeBackend { return backend.Float64() }

// Float32Backend returns the reduced-precision fast-path backend: float32
// element storage through the density/spectral pipeline at roughly half
// the memory traffic, with tolerance-banded (not bit-identical) results.
func Float32Backend() ComputeBackend { return backend.Float32() }

// LookupBackend resolves a backend by registry name ("float64",
// "float32"). The empty name returns the process default (the
// XPLACE_BACKEND environment variable when set, else the reference).
func LookupBackend(name string) (ComputeBackend, error) { return backend.Lookup(name) }

// NewDesign creates an empty design over the region [0,w] x [0,h].
// Populate it with AddCell/AddNet/AddPin and seal it with Finish.
func NewDesign(name string, w, h float64) *Design {
	return netlist.NewDesign(name, geom.Rect{Hx: w, Hy: h})
}

// NewEngine creates a kernel-execution engine. workers <= 0 selects
// NumCPU; launchOverhead < 0 selects the default simulated CUDA launch
// cost, 0 disables the launch-cost model.
func NewEngine(workers int, launchOverhead time.Duration) *Engine {
	return kernel.New(kernel.Options{Workers: workers, LaunchOverhead: launchOverhead})
}

// DefaultPlacement returns the paper's full Xplace configuration (all
// operator-level optimizations and stage-aware scheduling on).
func DefaultPlacement() PlacementOptions { return placer.Defaults() }

// BaselinePlacement returns the DREAMPlace-style comparator configuration
// (autograd gradients, no fusion/extraction/skipping).
func BaselinePlacement() PlacementOptions { return placer.BaselineDefaults() }

// Place runs global placement to convergence on a default engine. It is a
// thin wrapper over Session.Place on a temporary Session, so the engine it
// creates is released before returning; Session.Place is the path that
// takes a context.
func Place(d *Design, opts PlacementOptions) (*PlacementResult, error) {
	s := NewSession()
	defer s.Close()
	return s.Place(context.Background(), d, opts)
}

// GenerateBenchmark synthesizes a contest design by name (Table 1 of the
// paper; see Catalog2005/Catalog2015) at the given scale.
func GenerateBenchmark(name string, scale float64, seed int64) (*Design, error) {
	spec, ok := benchgen.FindSpec(name)
	if !ok {
		return nil, fmt.Errorf("xplace: unknown benchmark %q", name)
	}
	return benchgen.Generate(spec, scale, seed), nil
}

// Catalog2005 lists the eight ISPD 2005 contest designs.
func Catalog2005() []BenchmarkSpec { return benchgen.Catalog2005() }

// Catalog2015 lists the twenty ISPD 2015 contest designs.
func Catalog2015() []BenchmarkSpec { return benchgen.Catalog2015() }

// WriteBookshelf writes the design as bookshelf files into dir.
func WriteBookshelf(dir, base string, d *Design) error { return bookshelf.Write(dir, base, d) }

// WritePlacementPl writes a bookshelf .pl with the given center positions.
func WritePlacementPl(path string, d *Design, x, y []float64) error {
	return bookshelf.WritePl(path, d, x, y)
}

// WriteDEF writes the design as DEF with the given center positions.
func WriteDEF(w io.Writer, d *Design, x, y []float64) error { return lefdef.WriteDEF(w, d, x, y) }

// NewModel builds an untrained FNO (§3.3). DefaultModelConfig matches the
// paper's ~471k-parameter scale.
func NewModel(cfg ModelConfig) *Model { return nn.NewModel(cfg) }

// DefaultModelConfig is the paper-scale FNO architecture.
func DefaultModelConfig() ModelConfig { return nn.DefaultConfig() }

// GenerateTrainingSamples builds random density maps with numerically
// solved field labels (the paper's training-data recipe).
func GenerateTrainingSamples(n, h, w int, seed int64) []TrainSample {
	return nn.GenerateSamples(n, h, w, seed)
}

// GenerateBenchmarkTrainingSamples builds training examples from the
// synthetic contest benchmarks: perBench random placements of each named
// design are scattered onto a res x res grid and labelled with the
// numerical Poisson solve — density statistics a placer actually
// encounters, complementing the purely random maps of
// GenerateTrainingSamples. Unknown benchmark names are an error.
func GenerateBenchmarkTrainingSamples(benches []string, perBench, res int, scale float64, seed int64) ([]TrainSample, error) {
	return nn.GenerateBenchSamples(benches, perBench, res, res, scale, seed)
}

// NewFieldPredictor adapts a trained model to PlacementOptions.Predictor,
// turning the placer into Xplace-NN.
func NewFieldPredictor(m *Model) placer.FieldPredictor { return &nn.Predictor{M: m} }

// LoadModel restores a model saved with Model.Save, verifying the
// artifact's version, declared shapes and payload checksum (see the
// ErrModel* sentinels).
func LoadModel(r io.Reader) (*Model, error) { return nn.Load(r) }

// StatModel reads and validates a model artifact's header (architecture,
// training resolution, parameter count, payload checksum) without
// decoding the weights — cheap inspection for tooling like `xtrain -stat`.
func StatModel(r io.Reader) (ModelArtifactHeader, error) { return nn.Stat(r) }

// WriteSVG renders a placement as an 800-px-wide SVG (cells colored by
// kind, fences dashed). Pass nil positions for stored ones.
func WriteSVG(w io.Writer, d *Design, x, y []float64) error {
	return viz.WriteSVG(w, d, x, y)
}
