package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"pstore/internal/elastic"
	"pstore/internal/predictor"
	"pstore/internal/sim"
)

// quick returns Options for fast, seeded test runs.
func quick() Options { return Options{Quick: true, Seed: 1} }

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig4", "table1", "fig5", "fig6", "sec5",
		"fig7", "fig8", "fig9", "fig10", "table2", "fig11", "fig12", "fig13",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
		if _, ok := Title(id); !ok {
			t.Errorf("experiment %s has no title", id)
		}
	}
	if _, err := Run("nope", quick()); err == nil {
		t.Error("unknown experiment accepted")
	}
	if !strings.Contains(IDsString(), "fig9") {
		t.Error("IDs listing missing fig9")
	}
}

// IDsString joins the ids for the error-message assertion above.
func IDsString() string { return strings.Join(IDs(), ",") }

func TestFig1Shape(t *testing.T) {
	r, err := Run("fig1", quick())
	if err != nil {
		t.Fatal(err)
	}
	ratio := r.Values["peak_trough_ratio"]
	if ratio < 6 || ratio > 16 {
		t.Errorf("peak/trough ratio %.1f outside the paper's ~10x shape", ratio)
	}
	if len(r.Series["load_per_min"]) != 3*1440 {
		t.Errorf("trace length %d, want 3 days of minutes", len(r.Series["load_per_min"]))
	}
}

func TestFig2Shape(t *testing.T) {
	r, err := Run("fig2", quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["actual_machine_intervals"] <= r.Values["ideal_machine_intervals"] {
		t.Error("step allocation should cost more than the ideal fractional curve")
	}
	if r.Values["step_overhead"] > 0.5 {
		t.Errorf("integrality overhead %.2f unreasonably high", r.Values["step_overhead"])
	}
}

func TestFig4Shape(t *testing.T) {
	r, err := Run("fig4", quick())
	if err != nil {
		t.Fatal(err)
	}
	// Paper's Figure 4 milestones.
	if got := r.Values["avg_alloc_3_5"]; got != 5 {
		t.Errorf("avg alloc 3->5 = %v, want 5", got)
	}
	if got := r.Values["avg_alloc_3_9"]; got != 7.5 {
		t.Errorf("avg alloc 3->9 = %v, want 7.5", got)
	}
	if got := r.Values["avg_alloc_3_14"]; got < 10.0 || got > 10.2 {
		t.Errorf("avg alloc 3->14 = %v, want 111/11", got)
	}
	// Effective capacity rises monotonically to cap(A) in every case.
	for _, key := range []string{"3_5", "3_9", "3_14"} {
		eff := r.Series["effcap_"+key]
		prev := 0.0
		for i, v := range eff {
			if v < prev-1e-9 {
				t.Errorf("case %s: eff-cap not monotone at %d", key, i)
			}
			prev = v
		}
	}
	if eff := r.Series["effcap_3_14"]; eff[len(eff)-1] < 14-1e-9 || eff[len(eff)-1] > 14+1e-9 {
		t.Errorf("3->14 final eff-cap %v, want 14", eff[len(eff)-1])
	}
}

func TestTable1Shape(t *testing.T) {
	r, err := Run("table1", quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["rounds"] != 11 {
		t.Errorf("rounds = %v, want 11 like the paper's Table 1", r.Values["rounds"])
	}
	alloc := r.Series["round_alloc"]
	want := []float64{6, 6, 6, 9, 9, 9, 12, 12, 14, 14, 14}
	for i := range want {
		if alloc[i] != want[i] {
			t.Fatalf("allocation profile %v, want %v", alloc, want)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	r, err := Run("fig5", quick())
	if err != nil {
		t.Fatal(err)
	}
	mres := r.Series["mre_percent"]
	if len(mres) != 6 {
		t.Fatalf("MRE series has %d points, want 6", len(mres))
	}
	// Accuracy decays gracefully: the 60-minute error is larger than the
	// 10-minute error but still in the paper's usable range.
	if mres[5] < mres[0] {
		t.Errorf("MRE at tau=60 (%.2f%%) below tau=10 (%.2f%%)", mres[5], mres[0])
	}
	if mres[5] > 15 {
		t.Errorf("MRE at tau=60 = %.2f%%, paper reports ~10%%", mres[5])
	}
	if len(r.Series["day_actual"]) == 0 || len(r.Series["day_actual"]) != len(r.Series["day_predicted"]) {
		t.Error("day sample series missing or mismatched")
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := Run("fig6", quick())
	if err != nil {
		t.Fatal(err)
	}
	en := r.Series["english_mre_percent"]
	de := r.Series["german_mre_percent"]
	if len(en) != 6 || len(de) != 6 {
		t.Fatalf("MRE series lengths %d/%d, want 6", len(en), len(de))
	}
	for i := range en {
		if en[i] >= de[i] {
			t.Errorf("tau=%dh: english MRE %.2f%% not below german %.2f%%", i+1, en[i], de[i])
		}
	}
	if de[5] > 15 {
		t.Errorf("german MRE at 6h = %.2f%%, paper reports ~13%%", de[5])
	}
	if en[5] > 10 {
		t.Errorf("english MRE at 6h = %.2f%%, paper reports <10%%", en[5])
	}
}

func TestSec5Shape(t *testing.T) {
	r, err := Run("sec5", quick())
	if err != nil {
		t.Fatal(err)
	}
	spar := r.Values["mre_spar"]
	arma := r.Values["mre_arma"]
	ar := r.Values["mre_ar"]
	if spar >= arma || spar >= ar {
		t.Errorf("SPAR (%.2f%%) should beat ARMA (%.2f%%) and AR (%.2f%%)", spar, arma, ar)
	}
}

func TestFig12Shape(t *testing.T) {
	r, err := Run("fig12", quick())
	if err != nil {
		t.Fatal(err)
	}
	// P-Store Oracle never runs short; SPAR stays close (paper Figure 12).
	if r.Values["pstore-oracle_short_mid"] > 0.1 {
		t.Errorf("oracle shortfall %.3f%%, want ~0", r.Values["pstore-oracle_short_mid"])
	}
	if r.Values["pstore-spar_short_mid"] > 1.0 {
		t.Errorf("SPAR shortfall %.3f%%, want well under 1%%", r.Values["pstore-spar_short_mid"])
	}
	// Reactive violates far more at comparable or lower cost.
	if r.Values["reactive_short_mid"] < 2*r.Values["pstore-spar_short_mid"]+1 {
		t.Errorf("reactive shortfall %.2f%% should far exceed SPAR's %.2f%%",
			r.Values["reactive_short_mid"], r.Values["pstore-spar_short_mid"])
	}
	// Static pays much more for low violations than P-Store does.
	if r.Values["static_cost_mid"] < 1.2 {
		t.Errorf("static cost %.2f should be well above P-Store's 1.0", r.Values["static_cost_mid"])
	}
	// Oracle costs at most SPAR at the same buffer (less inflation).
	if r.Values["pstore-oracle_cost_mid"] > r.Values["pstore-spar_cost_mid"] {
		t.Errorf("oracle cost %.3f exceeds SPAR cost %.3f",
			r.Values["pstore-oracle_cost_mid"], r.Values["pstore-spar_cost_mid"])
	}
}

func TestFig13Shape(t *testing.T) {
	r, err := Run("fig13", quick())
	if err != nil {
		t.Fatal(err)
	}
	// Normal window: everything roughly fits.
	for _, strategy := range []string{"pstore-spar", "simple", "static"} {
		if short := r.Values["normal_"+strategy+"_short"]; short > 100 {
			t.Errorf("%s normal-window shortfall %v intervals, want near zero", strategy, short)
		}
	}
	// Black Friday: Simple collapses; P-Store absorbs most of it.
	simple := r.Values["black_friday_simple_short"]
	pstore := r.Values["black_friday_pstore-spar_short"]
	if simple < 50 {
		t.Errorf("Simple Black Friday shortfall %v, expected a collapse", simple)
	}
	if pstore*3 > simple {
		t.Errorf("P-Store Black Friday shortfall %v not well below Simple's %v", pstore, simple)
	}
}

// TestFig12PStoreIsNewPStore: the simulated P-Store of Figs. 12–13 is
// elastic.NewPStore's — the recipe serve, fig9 and fig11 run — with only the
// oracle predictor and its 5 % inflation swapped in for pstore-oracle. Over a
// week past training (one weekly refit), each strategy's simulation makes the
// same moves at the same cost as NewPStore's controller run directly.
func TestFig12PStoreIsNewPStore(t *testing.T) {
	s, err := newSimSetup(quick())
	if err != nil {
		t.Fatal(err)
	}
	s.trace = s.trace[:36*s.slotsPerDay]
	const qFrac = 0.65 / 0.8
	model := s.model
	model.Q = model.QMax * qFrac
	for _, strategy := range []string{"pstore-spar", "pstore-oracle"} {
		got, err := s.runStrategy(strategy, qFrac, quick())
		if err != nil {
			t.Fatal(err)
		}
		want, err := elastic.NewPStore(model, s.trainMin, 5, 0, elastic.SpikeRegularRate)
		if err != nil {
			t.Fatal(err)
		}
		if strategy == "pstore-oracle" {
			oracle := predictor.NewOnline(predictor.NewOracle(s.trace), 0, 0)
			if err := oracle.ObserveAll(nil); err != nil {
				t.Fatal(err)
			}
			want.Predictor, want.Inflation = oracle, 0.05
		}
		res, err := (&sim.Sim{Model: model, MaxMachines: s.maxMachines}).Run(s.trace, want, model.MachinesFor(s.trace[0]*1.2))
		if err != nil {
			t.Fatal(err)
		}
		if got.result.Moves != res.Moves || got.cost != res.Cost || got.result.Insufficient != res.Insufficient {
			t.Errorf("%s: fig12 made %d moves at cost %v (%d short), NewPStore %d at %v (%d short)",
				strategy, got.result.Moves, got.cost, got.result.Insufficient, res.Moves, res.Cost, res.Insufficient)
		}
	}
}

// BenchmarkExperiments regenerates every table and figure of the paper's
// evaluation in quick mode, one sub-benchmark per experiment id: it prints
// the rows and series the paper reports once and reports the headline
// values as metrics. `go test -run '^$' -bench 'Experiments/table1'
// -benchtime 1x` prints Table 1. EXPERIMENTS.md records the paper-vs-measured
// comparison.
func BenchmarkExperiments(b *testing.B) {
	for _, id := range IDs() {
		var printed sync.Once
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := Run(id, quick())
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					printed.Do(func() { fmt.Print(r.Text()) })
					for k, v := range r.Values {
						b.ReportMetric(v, k)
					}
				}
			}
		})
	}
}
