package xplace

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func TestPublicAPIBuildAndPlace(t *testing.T) {
	d := NewDesign("api", 40, 40)
	for y := 0.0; y+4 <= 40; y += 4 {
		d.Rows = append(d.Rows, Row{Y: y, X0: 0, X1: 40, Height: 4, SiteWidth: 1})
	}
	var ids []int
	for i := 0; i < 60; i++ {
		ids = append(ids, d.AddCell("c", 2, 4, float64(1+i%19*2), float64(2+(i/19)*4), Movable))
	}
	for i := 0; i+1 < len(ids); i++ {
		d.AddNet("n")
		d.AddPin(ids[i], 0, 0)
		d.AddPin(ids[i+1], 0, 0)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	opts := DefaultPlacement()
	opts.GridSize = 32
	opts.Sched.MaxIter = 120
	res, err := Place(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWL <= 0 || math.IsNaN(res.HPWL) {
		t.Errorf("HPWL = %v", res.HPWL)
	}
}

func TestGenerateBenchmarkAPI(t *testing.T) {
	d, err := GenerateBenchmark("adaptec1", 0.005, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumCells() == 0 {
		t.Fatal("empty design")
	}
	if _, err := GenerateBenchmark("not-a-design", 1, 1); err == nil {
		t.Error("want error for unknown benchmark")
	}
	if len(Catalog2005()) != 8 || len(Catalog2015()) != 20 {
		t.Error("catalog sizes wrong")
	}
}

func TestRunFlowEndToEnd(t *testing.T) {
	d, err := GenerateBenchmark("fft_1", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := FlowOptions{
		Placement: DefaultPlacement(),
		Legalizer: LegalizeTetris,
		Route:     &RouteOptions{Grid: 32, Capacity: 10},
	}
	opts.Placement.Sched.MaxIter = 500
	fr, err := RunFlow(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Violations != 0 {
		t.Errorf("final placement has %d violations", fr.Violations)
	}
	if fr.HPWLFinal > fr.HPWLLegal {
		t.Errorf("detailed placement degraded HPWL: %.0f -> %.0f", fr.HPWLLegal, fr.HPWLFinal)
	}
	if fr.Route == nil || fr.Route.Top5Overflow < 0 {
		t.Error("missing route result")
	}
	if fr.GPSim <= 0 || fr.GPTime <= 0 {
		t.Error("missing stage timings")
	}
	t.Logf("GP %.0f -> legal %.0f -> final %.0f HPWL; OVFL-5 %.2f; GP %v (sim %v) LG %v DP %v",
		fr.HPWLGP, fr.HPWLLegal, fr.HPWLFinal, fr.Route.Top5Overflow,
		fr.GPTime, fr.GPSim, fr.LGTime, fr.DPTime)
}

func TestRunFlowAbacus(t *testing.T) {
	d, err := GenerateBenchmark("pci_bridge32_a", 0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := FlowOptions{
		Placement: DefaultPlacement(),
		Legalizer: LegalizeAbacus,
	}
	opts.Placement.Sched.MaxIter = 400
	fr, err := RunFlow(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Violations != 0 {
		t.Errorf("%d violations after abacus + detail", fr.Violations)
	}
	if fr.HPWLFinal > fr.HPWLLegal {
		t.Errorf("detailed placement degraded the abacus placement: %.0f -> %.0f", fr.HPWLLegal, fr.HPWLFinal)
	}
}

func TestEngineConfiguration(t *testing.T) {
	e := NewEngine(3, 5*time.Microsecond)
	if e.Workers() != 3 || e.Stats().Overhead != 5*time.Microsecond {
		t.Error("engine options not applied")
	}
}

func TestModelAPIRoundTrip(t *testing.T) {
	cfg := ModelConfig{Width: 4, Modes: 3, Layers: 1, Seed: 1}
	m := NewModel(cfg)
	samples := GenerateTrainingSamples(3, 8, 8, 1)
	m.Train(samples, TrainOptions{Epochs: 2, LR: 1e-3})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.ParamCount() != m.ParamCount() {
		t.Error("round trip changed parameter count")
	}
	if NewFieldPredictor(m) == nil {
		t.Error("nil predictor")
	}
	if DefaultModelConfig().Layers != 4 {
		t.Error("default config wrong")
	}
}

func TestBookshelfAPIRoundTrip(t *testing.T) {
	d, err := GenerateBenchmark("fft_2", 0.005, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteBookshelf(dir, "fft_2", d); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir + "/fft_2.aux")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCells() != d.NumCells() {
		t.Errorf("cells %d != %d", got.NumCells(), d.NumCells())
	}
}
