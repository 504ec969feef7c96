package stats

import (
	"math"
	"testing"

	"repro/internal/simrand"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Errorf("N = %d", s.N)
	}
	if !almostEqual(s.Mean, 5, 1e-12) {
		t.Errorf("Mean = %v", s.Mean)
	}
	if !almostEqual(s.StdDev, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %v", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if !almostEqual(s.Median, 4.5, 1e-12) {
		t.Errorf("Median = %v", s.Median)
	}
	if got := Summarize(nil); got.N != 0 {
		t.Errorf("empty Summarize = %+v", got)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.125, 1.5},
	}
	for _, c := range cases {
		got, ok := Quantile(sorted, c.q)
		if !ok || !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, %v, want %v", c.q, got, ok, c.want)
		}
	}
	if v, ok := Quantile(nil, 0.5); ok || v != 0 {
		t.Errorf("Quantile(empty) = %v, %v, want 0, false", v, ok)
	}
}

func TestTopShareAndLorenz(t *testing.T) {
	xs := []float64{100, 1, 1, 1, 1, 1, 1, 1} // top item carries 100/107
	if got := TopShare(xs, 1); !almostEqual(got, 100.0/107, 1e-12) {
		t.Errorf("TopShare = %v", got)
	}
	if got := TopShare(xs, 100); !almostEqual(got, 1, 1e-12) {
		t.Errorf("TopShare(all) = %v", got)
	}
	if TopShare(nil, 3) != 0 || TopShare(xs, 0) != 0 {
		t.Error("TopShare degenerate cases")
	}
	lc := LorenzCurve(xs)
	if len(lc) != len(xs)+1 || lc[0] != 0 || !almostEqual(lc[len(lc)-1], 1, 1e-12) {
		t.Errorf("LorenzCurve endpoints: %v", lc)
	}
	for i := 1; i < len(lc); i++ {
		if lc[i] < lc[i-1] {
			t.Fatal("LorenzCurve not monotone")
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 9.999, 10, 50} {
		h.Add(x)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("Under/Over = %d/%d", h.Under, h.Over)
	}
	if h.Counts[0] != 2 { // 0 and 1.9
		t.Errorf("bin0 = %d", h.Counts[0])
	}
	if h.Counts[1] != 1 || h.Counts[4] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	if !almostEqual(h.BinWidth(), 2, 1e-12) || !almostEqual(h.BinCenter(0), 1, 1e-12) {
		t.Error("bin geometry wrong")
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(5, 5, 3)
}

func TestCountHistogram(t *testing.T) {
	h := NewCountHistogram([]int{0, 1, 1, 3, 3, 3})
	if h[0] != 1 || h[1] != 2 || h[3] != 3 {
		t.Errorf("counts: %v", h)
	}
	keys := h.SortedCounts()
	if len(keys) != 3 || keys[0] != 0 || keys[1] != 1 || keys[2] != 3 {
		t.Errorf("SortedCounts = %v", keys)
	}
}

func TestFitLinearExact(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	fit, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-12) || !almostEqual(fit.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %v", fit.R2)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should fail")
	}
	if _, err := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("constant x should fail")
	}
}

func TestFitLinearNoise(t *testing.T) {
	rng := simrand.NewStream(42)
	var x, y []float64
	for i := 0; i < 2000; i++ {
		xv := rng.Float64() * 10
		x = append(x, xv)
		y = append(y, 3-0.5*xv+rng.Norm(0, 0.1))
	}
	fit, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, -0.5, 0.01) || !almostEqual(fit.Intercept, 3, 0.02) {
		t.Errorf("fit = %+v", fit)
	}
	// Slope should be decisively nonzero.
	if math.Abs(fit.SlopeT()) < 10 {
		t.Errorf("SlopeT = %v", fit.SlopeT())
	}
}

func TestPearsonSpearman(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Pearson = %v", got)
	}
	yneg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, yneg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Pearson = %v", got)
	}
	// Spearman is 1 for any monotone transform.
	ymono := []float64{1, 10, 100, 1000, 10000}
	if got := Spearman(x, ymono); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Spearman = %v", got)
	}
	if got := Pearson([]float64{1, 1}, []float64{2, 3}); got != 0 {
		t.Errorf("degenerate Pearson = %v", got)
	}
}

func TestSpearmanTies(t *testing.T) {
	x := []float64{1, 2, 2, 3}
	y := []float64{1, 2, 2, 3}
	if got := Spearman(x, y); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Spearman with ties = %v", got)
	}
}

func TestFitPowerLawRecoversAlpha(t *testing.T) {
	rng := simrand.NewStream(7)
	pl := simrand.NewPowerLaw(2.5, 1, 1_000_000)
	xs := make([]int, 30000)
	for i := range xs {
		xs[i] = pl.Sample(rng)
	}
	fit, err := FitPowerLaw(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Alpha, 2.5, 0.05) {
		t.Errorf("Alpha = %v, want ~2.5", fit.Alpha)
	}
	if fit.KS > 0.02 {
		t.Errorf("KS = %v, too large for true power law", fit.KS)
	}
}

func TestFitPowerLawRejectsUniform(t *testing.T) {
	// A uniform sample should show a much larger KS distance than a
	// genuine power-law sample.
	rng := simrand.NewStream(8)
	uniform := make([]int, 5000)
	for i := range uniform {
		uniform[i] = 1 + rng.IntN(100)
	}
	fit, err := FitPowerLaw(uniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fit.KS < 0.2 {
		t.Errorf("KS = %v for uniform data, expected poor fit", fit.KS)
	}
}

func TestFitPowerLawAuto(t *testing.T) {
	rng := simrand.NewStream(9)
	pl := simrand.NewPowerLaw(2.2, 1, 100000)
	xs := make([]int, 20000)
	for i := range xs {
		xs[i] = pl.Sample(rng)
	}
	fit, err := FitPowerLawAuto(xs)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Alpha < 1.9 || fit.Alpha > 2.6 {
		t.Errorf("auto Alpha = %v", fit.Alpha)
	}
	if _, err := FitPowerLawAuto(nil); err == nil {
		t.Error("empty input should fail")
	}
}

func TestFitPowerLawInsufficient(t *testing.T) {
	if _, err := FitPowerLaw([]int{1, 2, 3}, 1); err == nil {
		t.Error("tiny sample should fail")
	}
}

func TestChiSquareUniform(t *testing.T) {
	// Perfectly uniform counts: statistic 0, p-value 1.
	cs, err := ChiSquareUniform([]int{100, 100, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Statistic != 0 || cs.PValue < 0.999 {
		t.Errorf("uniform: %+v", cs)
	}
	// Wildly non-uniform: tiny p-value.
	cs, err = ChiSquareUniform([]int{1000, 10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if cs.PValue > 1e-6 {
		t.Errorf("skewed p = %v", cs.PValue)
	}
	// Noisy uniform should usually pass at alpha = 0.001.
	rng := simrand.NewStream(10)
	counts := make([]int, 16)
	for i := 0; i < 16000; i++ {
		counts[rng.IntN(16)]++
	}
	cs, err = ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if cs.PValue < 0.001 {
		t.Errorf("noisy uniform rejected: %+v", cs)
	}
	if _, err := ChiSquareUniform([]int{5}); err == nil {
		t.Error("single cell should fail")
	}
	if _, err := ChiSquareUniform([]int{0, 0}); err == nil {
		t.Error("zero total should fail")
	}
}

func TestChiSquareSFKnownValues(t *testing.T) {
	// chi2 SF(x=df) ~ known values: SF(1;1) ~= 0.3173, SF(10;10) ~= 0.4405.
	if got := chiSquareSF(1, 1); !almostEqual(got, 0.3173, 0.001) {
		t.Errorf("SF(1;1) = %v", got)
	}
	if got := chiSquareSF(10, 10); !almostEqual(got, 0.4405, 0.001) {
		t.Errorf("SF(10;10) = %v", got)
	}
	if got := chiSquareSF(0, 5); got != 1 {
		t.Errorf("SF(0;5) = %v", got)
	}
}

func TestDeciles(t *testing.T) {
	keys := make([]float64, 100)
	vals := make([]float64, 100)
	for i := range keys {
		keys[i] = float64(i)
		vals[i] = float64(i) * 2
	}
	bins, err := Deciles(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 10 {
		t.Fatalf("bins = %d", len(bins))
	}
	for i, b := range bins {
		if b.N != 10 {
			t.Errorf("bin %d N = %d", i, b.N)
		}
		if i > 0 && b.MaxKey <= bins[i-1].MaxKey {
			t.Errorf("bin maxima not increasing: %v", bins)
		}
	}
	if bins[9].MaxKey != 99 {
		t.Errorf("last MaxKey = %v", bins[9].MaxKey)
	}
	// MeanValue of first decile (keys 0..9, vals 0..18): 9.
	if !almostEqual(bins[0].MeanValue, 9, 1e-12) {
		t.Errorf("first MeanValue = %v", bins[0].MeanValue)
	}
	// DecileSpread: ninth decile max (89) - first (9) = 80.
	if got := DecileSpread(bins); !almostEqual(got, 80, 1e-12) {
		t.Errorf("DecileSpread = %v", got)
	}
	fit, err := TrendVerdict(bins)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-9) {
		t.Errorf("trend slope = %v", fit.Slope)
	}
}

func TestDecilesInsufficient(t *testing.T) {
	if _, err := Deciles([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("should fail with < 10 points")
	}
}

func TestBootstrapCI(t *testing.T) {
	rng := simrand.NewStream(99)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Norm(50, 5)
	}
	lo, hi, ok := BootstrapCI(rng, xs, Mean, 500, 0.025)
	if !ok {
		t.Fatal("BootstrapCI not ok on a 500-sample input")
	}
	if lo > 50 || hi < 50 {
		t.Errorf("95%% CI [%v, %v] should cover 50", lo, hi)
	}
	if hi-lo > 2 {
		t.Errorf("CI too wide: [%v, %v]", lo, hi)
	}
	if lo, hi, ok := BootstrapCI(rng, nil, Mean, 10, 0.025); ok || lo != 0 || hi != 0 {
		t.Errorf("BootstrapCI(empty) = %v, %v, %v, want zeros and false", lo, hi, ok)
	}
}

func TestCountsToFloats(t *testing.T) {
	got := CountsToFloats([]int{1, 2, 3})
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("CountsToFloats = %v", got)
	}
}
