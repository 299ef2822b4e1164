// Capacityplanner: offline what-if planning from a historical load trace.
// It fits SPAR on four weeks of history, forecasts the next day at
// five-minute granularity, runs the paper's dynamic-programming planner on
// the forecast, and prints the reconfiguration schedule together with the
// machine-hours saved versus static peak provisioning — the cost argument
// of the paper's introduction.
package main

import (
	"fmt"
	"log"

	"pstore/internal/migration"
	"pstore/internal/planner"
	"pstore/internal/predictor"
	"pstore/internal/timeseries"
	"pstore/internal/workload"
)

func main() {
	// Four weeks of history plus the "tomorrow" we pretend not to know.
	trace, err := workload.SyntheticB2W(workload.DefaultB2WConfig(42, 29))
	if err != nil {
		log.Fatal(err)
	}
	fiveMin, err := trace.Resample(5)
	if err != nil {
		log.Fatal(err)
	}
	slotsPerDay := 24 * 60 / 5
	history := fiveMin.Values[:28*slotsPerDay]
	actualTomorrow := fiveMin.Values[28*slotsPerDay:]

	// Fit SPAR (n=7 previous days, m=6 recent five-minute offsets) and
	// forecast the whole next day.
	spar := predictor.NewSPAR(slotsPerDay, 7, 6)
	if err := spar.FitHorizons(history, 1, slotsPerDay/4, slotsPerDay/2); err != nil {
		log.Fatal(err)
	}
	forecast := make([]float64, len(actualTomorrow))
	for tau := 1; tau <= len(forecast); tau++ {
		v, err := spar.Forecast(history, tau)
		if err != nil {
			log.Fatal(err)
		}
		if v < 0 {
			v = 0
		}
		forecast[tau-1] = v * 1.15 // the paper's 15% safety inflation
	}
	// Smooth the forecast with a short moving maximum so slot-to-slot
	// wobble does not produce one-interval dips in the offline schedule.
	smoothed := make([]float64, len(forecast))
	for i := range forecast {
		lo, hi := max(i-2, 0), min(i+3, len(forecast))
		for _, v := range forecast[lo:hi] {
			if v > smoothed[i] {
				smoothed[i] = v
			}
		}
	}
	forecast = smoothed
	mre, err := timeseries.MRE(actualTomorrow, forecast)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SPAR day-ahead forecast: MRE %.1f%% against what actually happened\n", mre*100)

	// Capacity model in requests/minute per machine, the paper's discovered
	// parameters scaled to this trace: peak needs ~8.6 machines at Q-hat.
	peak := 0.0
	for _, v := range history {
		if v > peak {
			peak = v
		}
	}
	model := migration.Model{
		Q:    peak / 8.57 / 1.23, // Q = 65% of saturation, Q-hat = 80%
		QMax: peak / 8.57,
		D:    77.0 / 5, // the paper's 77-minute D in 5-minute intervals
		P:    6,
	}

	// Plan tomorrow's reconfiguration schedule.
	n0 := model.MachinesFor(forecast[0])
	pl := planner.Planner{Model: model}
	plan, err := pl.BestMoves(forecast, n0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ntomorrow's schedule (starting from %d machines):\n", n0)
	for _, mv := range plan.Moves {
		if !mv.IsReconfiguration() {
			continue
		}
		fmt.Printf("  %02d:%02d  scale %d -> %d machines\n",
			mv.Start*5/60, mv.Start*5%60, mv.From, mv.To)
	}

	staticMachines := model.MachinesFor(peak)
	staticCost := float64(staticMachines * len(forecast))
	fmt.Printf("\npredictive cost: %.0f machine-intervals\n", plan.Cost)
	fmt.Printf("static-for-peak: %.0f machine-intervals (%d machines all day)\n",
		staticCost, staticMachines)
	fmt.Printf("savings: %.0f%% — the paper reports roughly 50%% fewer servers than peak provisioning\n",
		100*(1-plan.Cost/staticCost))
}
