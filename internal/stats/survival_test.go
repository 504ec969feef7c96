package stats

import (
	"math"
	"testing"

	"repro/internal/simrand"
)

func TestFitWeibullRecoversParameters(t *testing.T) {
	rng := simrand.NewStream(101)
	for _, want := range []struct{ shape, scale float64 }{
		{0.6, 100}, // infant-mortality regime
		{1.0, 50},  // exponential
		{2.5, 30},  // wear-out
	} {
		xs := make([]float64, 8000)
		for i := range xs {
			xs[i] = rng.Weibull(want.shape, want.scale)
		}
		fit, err := FitWeibull(xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fit.Shape-want.shape) > 0.05*want.shape {
			t.Errorf("shape = %v, want %v", fit.Shape, want.shape)
		}
		if math.Abs(fit.Scale-want.scale) > 0.05*want.scale {
			t.Errorf("scale = %v, want %v", fit.Scale, want.scale)
		}
		// Analytic mean matches the sample mean.
		if sm := Mean(xs); math.Abs(fit.Mean()-sm) > 0.05*sm {
			t.Errorf("Mean() = %v, sample mean %v", fit.Mean(), sm)
		}
	}
}

func TestFitWeibullDegenerate(t *testing.T) {
	if _, err := FitWeibull([]float64{1, 2}); err == nil {
		t.Error("two samples accepted")
	}
	if _, err := FitWeibull([]float64{-1, 0, -5}); err == nil {
		t.Error("non-positive samples accepted")
	}
	if _, err := FitWeibull([]float64{3, 3, 3, 3}); err == nil {
		t.Error("constant sample accepted (shape diverges)")
	}
}

// TestWeibullHazardShape reads the hazard through the cumulative hazard
// H(t) = -ln S(t): the mean hazard H(t)/t falls over time for shape < 1
// (infant mortality) and rises for shape > 1 (wear-out).
func TestWeibullHazardShape(t *testing.T) {
	meanHazard := func(w WeibullFit, t float64) float64 { return -math.Log(w.Survival(t)) / t }
	infant := WeibullFit{Shape: 0.6, Scale: 100}
	if meanHazard(infant, 1) <= meanHazard(infant, 50) {
		t.Error("shape < 1 must have decreasing hazard (infant mortality)")
	}
	wearout := WeibullFit{Shape: 3, Scale: 100}
	if meanHazard(wearout, 1) >= meanHazard(wearout, 50) {
		t.Error("shape > 1 must have increasing hazard (wear-out)")
	}
	if s := infant.Survival(0); s != 1 {
		t.Errorf("S(0) = %v", s)
	}
	if s := infant.Survival(1e9); s > 1e-6 {
		t.Errorf("S(inf) = %v", s)
	}
}

func TestKaplanMeierNoCensoring(t *testing.T) {
	// Without censoring KM equals the empirical survival function.
	times := []float64{1, 2, 3, 4, 5}
	obs := []bool{true, true, true, true, true}
	curve := KaplanMeier(times, obs)
	if len(curve) != 5 {
		t.Fatalf("curve length %d", len(curve))
	}
	for i, p := range curve {
		want := 1 - float64(i+1)/5
		if math.Abs(p.Survival-want) > 1e-12 {
			t.Errorf("S(%v) = %v, want %v", p.Time, p.Survival, want)
		}
	}
}

func TestKaplanMeierCensoring(t *testing.T) {
	// Censored subjects leave the risk set without dropping the curve.
	times := []float64{1, 2, 2, 3}
	obs := []bool{true, false, true, true}
	curve := KaplanMeier(times, obs)
	// Events at t=1 (4 at risk), t=2 (3 at risk, 1 event + 1 censored),
	// t=3 (1 at risk).
	if len(curve) != 3 {
		t.Fatalf("curve = %+v", curve)
	}
	want := []float64{0.75, 0.75 * (1 - 1.0/3), 0}
	for i, p := range curve {
		if math.Abs(p.Survival-want[i]) > 1e-12 {
			t.Errorf("step %d: S = %v, want %v", i, p.Survival, want[i])
		}
	}
	if curve[1].AtRisk != 3 {
		t.Errorf("at-risk at t=2 is %d, want 3", curve[1].AtRisk)
	}
}

func TestKaplanMeierTies(t *testing.T) {
	times := []float64{2, 2, 2, 5}
	obs := []bool{true, true, true, false}
	curve := KaplanMeier(times, obs)
	if len(curve) != 1 || curve[0].Events != 3 {
		t.Fatalf("curve = %+v", curve)
	}
	if math.Abs(curve[0].Survival-0.25) > 1e-12 {
		t.Errorf("S(2) = %v", curve[0].Survival)
	}
}

func TestKaplanMeierEdges(t *testing.T) {
	if got := KaplanMeier(nil, nil); got != nil {
		t.Error("empty input should give nil curve")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	KaplanMeier([]float64{1}, nil)
}

func TestSurvivalAt(t *testing.T) {
	curve := []KMPoint{{Time: 2, Survival: 0.8}, {Time: 5, Survival: 0.4}}
	cases := map[float64]float64{1: 1, 2: 0.8, 3: 0.8, 5: 0.4, 10: 0.4}
	for tt, want := range cases {
		if got := SurvivalAt(curve, tt); got != want {
			t.Errorf("SurvivalAt(%v) = %v, want %v", tt, got, want)
		}
	}
}

func TestKaplanMeierAgreesWithWeibull(t *testing.T) {
	// On uncensored Weibull data the KM curve must track the fitted
	// parametric survival function.
	rng := simrand.NewStream(102)
	n := 4000
	times := make([]float64, n)
	obs := make([]bool, n)
	for i := range times {
		times[i] = rng.Weibull(1.5, 60)
		obs[i] = true
	}
	curve := KaplanMeier(times, obs)
	fit, err := FitWeibull(times)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{20, 60, 120} {
		km := SurvivalAt(curve, q)
		pm := fit.Survival(q)
		if math.Abs(km-pm) > 0.03 {
			t.Errorf("S(%v): KM %v vs Weibull %v", q, km, pm)
		}
	}
}

func TestMTBF(t *testing.T) {
	if got := MTBF(1000, 10); got != 100 {
		t.Errorf("MTBF = %v", got)
	}
	if got := MTBF(1000, 0); !math.IsInf(got, 1) {
		t.Errorf("MTBF with no failures = %v", got)
	}
}

func TestWeibullSamplerMoments(t *testing.T) {
	rng := simrand.NewStream(103)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += rng.Weibull(2, 10)
	}
	want := 10 * math.Gamma(1.5)
	if got := sum / n; math.Abs(got-want) > 0.05*want {
		t.Errorf("Weibull sample mean = %v, want %v", got, want)
	}
}
