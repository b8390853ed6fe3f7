package xplace

// Cross-module integration tests: Xplace-NN inside the placer, the
// LEF/DEF-to-placement path, and recorder-backed convergence checks.

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestXplaceNNFlowIntegration(t *testing.T) {
	// Train a tiny FNO and run it inside the placer on a real benchmark;
	// the run must converge and stay NaN-free, and quality must remain in
	// family with plain Xplace (the paper reports ~1 permille better).
	m := NewModel(ModelConfig{Width: 6, Modes: 4, Layers: 2, Seed: 1})
	m.Train(GenerateTrainingSamples(16, 32, 32, 1), TrainOptions{Epochs: 15, LR: 2e-3, Seed: 1})

	d, err := GenerateBenchmark("fft_a", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain := DefaultPlacement()
	plain.Sched.MaxIter = 500
	resPlain, err := Place(d, plain)
	if err != nil {
		t.Fatal(err)
	}
	neural := DefaultPlacement()
	neural.Sched.MaxIter = 500
	neural.Predictor = NewFieldPredictor(m)
	resNN, err := Place(d, neural)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(resNN.HPWL) || resNN.HPWL <= 0 {
		t.Fatalf("Xplace-NN HPWL = %v", resNN.HPWL)
	}
	if resNN.Overflow > 0.10 {
		t.Errorf("Xplace-NN overflow = %v", resNN.Overflow)
	}
	ratio := resNN.HPWL / resPlain.HPWL
	if ratio > 1.05 {
		t.Errorf("Xplace-NN HPWL ratio %v too far above plain Xplace", ratio)
	}
	t.Logf("HPWL: Xplace %.5g vs Xplace-NN %.5g (ratio %.4f; paper ~0.999)",
		resPlain.HPWL, resNN.HPWL, ratio)
}

func TestLEFDEFToPlacementIntegration(t *testing.T) {
	// Build an ISPD 2015-style design purely through the LEF/DEF path and
	// place it.
	lef := `
MACRO STD
  CLASS CORE ;
  SIZE 2 BY 4 ;
  PIN A
    PORT
      LAYER m1 ;
      RECT 0.4 1.6 0.8 2.4 ;
    END
  END A
END STD
`
	var def strings.Builder
	def.WriteString("VERSION 5.8 ;\nDESIGN lefflow ;\nDIEAREA ( 0 0 ) ( 48 48 ) ;\n")
	for y := 0; y+4 <= 48; y += 4 {
		def.WriteString("ROW r core 0 " + itoa(y) + " N DO 48 BY 1 STEP 1 0 ;\n")
	}
	def.WriteString("COMPONENTS 80 ;\n")
	for i := 0; i < 80; i++ {
		def.WriteString("- u" + itoa(i) + " STD + PLACED ( " +
			itoa((i*13)%46) + " " + itoa(((i*29)%11)*4) + " ) N ;\n")
	}
	def.WriteString("END COMPONENTS\nNETS 79 ;\n")
	for i := 0; i+1 < 80; i++ {
		def.WriteString("- n" + itoa(i) + " ( u" + itoa(i) + " A ) ( u" + itoa(i+1) + " A ) ;\n")
	}
	def.WriteString("END NETS\nEND DESIGN\n")

	dir := t.TempDir()
	lefPath, defPath := filepath.Join(dir, "lefflow.lef"), filepath.Join(dir, "lefflow.def")
	if err := os.WriteFile(lefPath, []byte(lef), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(defPath, []byte(def.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Load(defPath, WithLEF(lefPath))
	if err != nil {
		t.Fatal(err)
	}
	fr, err := RunFlow(d, FlowOptions{
		Placement: DefaultPlacement(),
		Legalizer: LegalizeTetris,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Violations != 0 {
		t.Errorf("%d violations placing a DEF design", fr.Violations)
	}
	if fr.HPWLFinal >= d.HPWL(nil, nil) {
		t.Errorf("placement did not improve DEF input: %.0f -> %.0f",
			d.HPWL(nil, nil), fr.HPWLFinal)
	}
	// Round-trip the placed design back out as DEF.
	var out strings.Builder
	if err := WriteDEF(&out, d, fr.FinalX, fr.FinalY); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "DESIGN lefflow ;") {
		t.Error("DEF output malformed")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func TestRecorderConvergenceTrace(t *testing.T) {
	// The recorder must show the canonical GP trajectory: overflow
	// trending down, lambda trending up, gamma trending down.
	d, err := GenerateBenchmark("pci_bridge32_b", 0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultPlacement()
	opts.Sched.MaxIter = 500
	res, err := Place(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	hist := res.Recorder.History()
	if len(hist) < 50 {
		t.Fatalf("history too short: %d", len(hist))
	}
	first, last := hist[5], hist[len(hist)-1]
	if last.Overflow >= first.Overflow {
		t.Errorf("overflow did not decrease: %.3f -> %.3f", first.Overflow, last.Overflow)
	}
	if last.Lambda <= first.Lambda {
		t.Errorf("lambda did not grow: %g -> %g", first.Lambda, last.Lambda)
	}
	if last.Gamma >= first.Gamma {
		t.Errorf("gamma did not shrink: %g -> %g", first.Gamma, last.Gamma)
	}
	if last.Omega <= first.Omega {
		t.Errorf("omega did not grow: %g -> %g", first.Omega, last.Omega)
	}
	best := hist[0].HPWL
	for _, rec := range hist {
		best = math.Min(best, rec.HPWL)
	}
	if best <= 0 {
		t.Errorf("best HPWL = %v", best)
	}
}
