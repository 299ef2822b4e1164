package predictor

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"pstore/internal/timeseries"
)

// sineTrace builds a periodic signal with optional AR(1) transient noise.
func sineTrace(rng *rand.Rand, period, n int, base, amp, noiseFrac float64) []float64 {
	out := make([]float64, n)
	noise := 0.0
	for i := range out {
		level := base + amp*0.5*(1-math.Cos(2*math.Pi*float64(i%period)/float64(period)))
		if rng != nil {
			noise = 0.9*noise + 0.436*rng.NormFloat64()
			level *= 1 + noiseFrac*noise
		}
		out[i] = level
	}
	return out
}

func TestSPARExactOnPeriodicSignal(t *testing.T) {
	const period = 48
	trace := sineTrace(nil, period, period*10, 100, 900, 0)
	s := NewSPAR(period, 3, 5)
	if err := s.Fit(trace[:period*8]); err != nil {
		t.Fatal(err)
	}
	for _, tau := range []int{1, 5, 20} {
		history := trace[:period*9]
		got, err := s.Forecast(history, tau)
		if err != nil {
			t.Fatal(err)
		}
		want := trace[period*9-1+tau]
		if math.Abs(got-want) > 1e-6*want+1e-6 {
			t.Errorf("tau=%d: forecast %v, want %v", tau, got, want)
		}
	}
}

func TestSPARAccurateUnderNoise(t *testing.T) {
	const period = 96
	rng := rand.New(rand.NewSource(3))
	trace := sineTrace(rng, period, period*20, 200, 1800, 0.05)
	s := NewSPAR(period, 7, 10)
	if err := s.FitHorizons(trace[:period*14], 1, 4, 8); err != nil {
		t.Fatal(err)
	}
	var actual, pred []float64
	tau := 4
	for now := period * 15; now < period*20-tau; now += 7 {
		v, err := s.Forecast(trace[:now+1], tau)
		if err != nil {
			t.Fatal(err)
		}
		pred = append(pred, v)
		actual = append(actual, trace[now+tau])
	}
	mre, err := timeseries.MRE(actual, pred)
	if err != nil {
		t.Fatal(err)
	}
	if mre > 0.08 {
		t.Errorf("SPAR MRE %.3f too high on mildly noisy periodic load", mre)
	}
}

func TestSPARErrors(t *testing.T) {
	s := NewSPAR(10, 2, 3)
	if _, err := s.Forecast(make([]float64, 100), 1); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted forecast err = %v", err)
	}
	if err := s.Fit(make([]float64, 5)); !errors.Is(err, ErrShortHistory) {
		t.Errorf("short train err = %v", err)
	}
	if err := NewSPAR(0, 2, 3).Fit(make([]float64, 100)); err == nil {
		t.Error("period 0 should fail")
	}
	if err := NewSPAR(10, 0, 3).Fit(make([]float64, 100)); err == nil {
		t.Error("n=0 should fail")
	}
	if err := NewSPAR(10, 2, -1).Fit(make([]float64, 100)); err == nil {
		t.Error("m=-1 should fail")
	}
	trace := sineTrace(nil, 10, 200, 10, 100, 0)
	if err := s.Fit(trace); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Forecast(trace[:5], 1); !errors.Is(err, ErrShortHistory) {
		t.Errorf("short history forecast err = %v", err)
	}
	if _, err := s.Forecast(trace, 0); err == nil {
		t.Error("tau=0 should fail")
	}
	if err := s.FitHorizons(trace); err == nil {
		t.Error("FitHorizons with no horizons should fail")
	}
	if err := s.FitHorizons(trace, 0); err == nil {
		t.Error("FitHorizons with tau=0 should fail")
	}
}

func TestSPARCoefficients(t *testing.T) {
	const period = 24
	trace := sineTrace(nil, period, period*12, 50, 500, 0)
	s := NewSPAR(period, 2, 2)
	if err := s.Fit(trace); err != nil {
		t.Fatal(err)
	}
	a, b := s.Coefficients()
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("coefficient lengths = %d, %d; want 2, 2", len(a), len(b))
	}
	// On a purely periodic signal the periodic coefficients should sum to
	// about 1 (the model reproduces last periods' value).
	if sum := a[0] + a[1]; math.Abs(sum-1) > 0.05 {
		t.Errorf("periodic coefficients sum to %v, want ~1", sum)
	}
	// Mutating the returned slices must not affect the model.
	a[0] = 999
	v1, _ := s.Forecast(trace, 1)
	a2, _ := s.Coefficients()
	if a2[0] == 999 {
		t.Error("Coefficients returned internal slice")
	}
	_ = v1
}

func TestSPARMinHistory(t *testing.T) {
	s := NewSPAR(100, 3, 20)
	// Offset lags dominate: m + n*T = 320.
	if got := s.MinHistory(1); got != 320 {
		t.Errorf("MinHistory(1) = %d, want 320", got)
	}
	// For a model without offsets, periodic lags dominate.
	s2 := NewSPAR(100, 3, 0)
	if got := s2.MinHistory(10); got != 290 {
		t.Errorf("MinHistory(10) = %d, want 290", got)
	}
}

// benchTrace is four weeks of five-minute load for the SPAR benchmarks.
func benchTrace(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	trace := make([]float64, 28*288)
	for i := range trace {
		trace[i] = 1000 + 100*rng.NormFloat64()
	}
	return trace
}

// BenchmarkSPARFit measures fitting SPAR on four weeks of five-minute data.
func BenchmarkSPARFit(b *testing.B) {
	trace := benchTrace(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSPAR(288, 7, 6)
		if err := s.Fit(trace); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSPARForecast measures a single 36-interval forecast series.
func BenchmarkSPARForecast(b *testing.B) {
	trace := benchTrace(6)
	s := NewSPAR(288, 7, 6)
	if err := s.Fit(trace); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ForecastSeries(s, trace, 36); err != nil {
			b.Fatal(err)
		}
	}
}
