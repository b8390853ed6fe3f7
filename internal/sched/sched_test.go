package sched

import (
	"math"
	"testing"
)

func linOmega(sumDeg, sumA float64) OmegaFunc {
	return func(lambda float64) float64 {
		den := sumDeg + lambda*sumA
		if den <= 0 {
			return 0
		}
		return lambda * sumA / den
	}
}

func TestDefaults(t *testing.T) {
	s := New(Options{}, 2.0, nil)
	o := s.opts
	if o.MinIter != 50 || o.MaxIter != 3000 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if o.StageAware {
		t.Error("nil omega must disable stage awareness")
	}
}

func TestGammaDecreasesWithOverflow(t *testing.T) {
	s := New(Options{}, 1.0, nil)
	s.Advance(100, 1.0)
	gHigh := s.Gamma
	s.Advance(100, 0.5)
	gMid := s.Gamma
	s.Advance(100, 0.1)
	gLow := s.Gamma
	if !(gHigh > gMid && gMid > gLow) {
		t.Errorf("gamma not monotone: %v %v %v", gHigh, gMid, gLow)
	}
	// Roughly 50 bins at overflow 1, 0.5 bins at overflow 0.1.
	if gHigh < 10 || gHigh > 200 {
		t.Errorf("gamma(1) = %v out of expected range", gHigh)
	}
	if gLow < 0.1 || gLow > 2 {
		t.Errorf("gamma(0.1) = %v out of expected range", gLow)
	}
}

func TestGammaScalesWithBinSize(t *testing.T) {
	a := New(Options{}, 1.0, nil)
	b := New(Options{}, 4.0, nil)
	if math.Abs(b.Gamma/a.Gamma-4) > 1e-9 {
		t.Errorf("gamma should scale with bin size: %v vs %v", a.Gamma, b.Gamma)
	}
}

func TestInitLambda(t *testing.T) {
	s := New(Options{}, 1.0, nil)
	s.InitLambda(2000, 10)
	want := 1e-4 * 200.0 // lambdaInit 1e-4 warm start
	if math.Abs(s.Lambda-want) > 1e-12 {
		t.Errorf("lambda0 = %v, want %v", s.Lambda, want)
	}
	// Degenerate density norm.
	s.InitLambda(5, 0)
	if s.Lambda <= 0 {
		t.Errorf("lambda0 must stay positive, got %v", s.Lambda)
	}
}

func TestLambdaGrowsOnImprovingHPWL(t *testing.T) {
	s := New(Options{}, 1.0, nil)
	s.InitLambda(1, 1)
	l0 := s.Lambda
	s.Advance(1000, 0.9) // first call initializes
	s.Advance(990, 0.9)  // HPWL improved -> mu = muMax
	if s.Lambda <= l0 {
		t.Errorf("lambda should grow: %v -> %v", l0, s.Lambda)
	}
}

func TestLambdaBacksOffOnDegradingHPWL(t *testing.T) {
	// Heavy degradation (50% >> refDeltaHPWL) drives mu to its floor
	// muMin = 1: lambda pauses instead of shrinking.
	s := New(Options{}, 1.0, nil)
	s.InitLambda(1, 1)
	s.Advance(1000, 0.9)
	l0 := s.Lambda
	s.Advance(1500, 0.9)
	if s.Lambda != l0 {
		t.Errorf("the mu floor should pause lambda: %v -> %v", l0, s.Lambda)
	}
}

func TestStageAwareSlowsIntermediateStage(t *testing.T) {
	// omega fixed in (0.5, 0.95): updates every 3rd iteration.
	s := New(Options{StageAware: true}, 1.0, func(float64) float64 { return 0.7 })
	s.InitLambda(1, 1)
	s.Advance(100, 0.5) // init
	updates := 0
	for i := 0; i < 9; i++ {
		if s.Advance(100, 0.5) {
			updates++
		}
	}
	if updates != 3 {
		t.Errorf("stage-aware updates = %d in 9 iters, want 3", updates)
	}
}

func TestStageAwareFullRateOutsideIntermediate(t *testing.T) {
	for _, w := range []float64{0.01, 0.3, 0.97} {
		s := New(Options{StageAware: true}, 1.0, func(float64) float64 { return w })
		s.Advance(100, 0.5)
		updates := 0
		for i := 0; i < 6; i++ {
			if s.Advance(100, 0.5) {
				updates++
			}
		}
		if updates != 6 {
			t.Errorf("omega=%v: updates = %d, want 6", w, updates)
		}
	}
}

func TestOmegaUsesCurrentLambda(t *testing.T) {
	s := New(Options{StageAware: true}, 1.0, linOmega(100, 10))
	s.Lambda = 0
	if s.Omega() != 0 {
		t.Errorf("omega(0) = %v", s.Omega())
	}
	s.Lambda = 10 // omega = 100/(100+100) = 0.5
	if math.Abs(s.Omega()-0.5) > 1e-12 {
		t.Errorf("omega = %v, want 0.5", s.Omega())
	}
}

func TestShouldSkipDensity(t *testing.T) {
	s := New(Options{SkipEnabled: true}, 1.0, nil)
	// Early stage, tiny r: skipped except on the full-recompute beat.
	skips := 0
	for i := 0; i < 40; i++ {
		if s.ShouldSkipDensity(0.001) {
			skips++
		}
		s.Advance(100, 0.9)
	}
	if skips < 35 {
		t.Errorf("expected most of 40 early iters skipped, got %d", skips)
	}
	// r above threshold: never skip.
	if s.ShouldSkipDensity(0.5) {
		t.Error("must not skip when r >= threshold")
	}
	// Past skipMaxIter: never skip.
	for s.iter < 100 {
		s.Advance(100, 0.9)
	}
	if s.ShouldSkipDensity(0.001) {
		t.Error("must not skip after skipMaxIter")
	}
	// Disabled entirely.
	s2 := New(Options{}, 1.0, nil)
	if s2.ShouldSkipDensity(1e-9) {
		t.Error("skipping disabled by default")
	}
}

func TestSkipRecomputesOnInterval(t *testing.T) {
	s := New(Options{SkipEnabled: true}, 1.0, nil)
	// Iteration 0, 20, 40, ... must recompute (not skip).
	for i := 0; i < 60; i++ {
		skip := s.ShouldSkipDensity(0.001)
		if i%20 == 0 && skip {
			t.Errorf("iter %d must recompute", i)
		}
		if i%20 != 0 && !skip {
			t.Errorf("iter %d should skip", i)
		}
		s.Advance(100, 0.9)
	}
}

func TestDone(t *testing.T) {
	s := New(Options{MinIter: 5, MaxIter: 10}, 1.0, nil)
	if s.Done(0.01) {
		t.Error("must not stop before MinIter")
	}
	for i := 0; i < 5; i++ {
		s.Advance(100, 0.5)
	}
	if !s.Done(0.01) {
		t.Error("should stop: overflow below target after MinIter")
	}
	if s.Done(0.5) {
		t.Error("should continue: overflow above target")
	}
	for i := 0; i < 5; i++ {
		s.Advance(100, 0.5)
	}
	if !s.Done(0.99) {
		t.Error("should stop at MaxIter regardless of overflow")
	}
}
