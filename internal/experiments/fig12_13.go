package experiments

import (
	"fmt"
	"math"

	"pstore/internal/elastic"
	"pstore/internal/migration"
	"pstore/internal/predictor"
	"pstore/internal/sim"
	"pstore/internal/workload"
)

func init() {
	register("fig12", "Cost vs % time with insufficient capacity over 4.5 months, five strategies x Q sweep", fig12)
	register("fig13", "Effective capacity timelines: a normal stretch vs Black Friday", fig13)
}

// simSetup builds the long-horizon 5-minute-interval trace (requests/min)
// and the capacity model used by the Section 8.3 simulations.
type simSetup struct {
	trace       []float64       // 5-minute intervals, requests per minute
	train       []float64       // first four weeks (same units)
	trainMin    workload.Series // first four weeks per minute, same scale
	slotsPerDay int
	model       migration.Model // D in 5-minute intervals, Q per machine (req/min)
	days        int
	bfDay       int
	maxMachines int
}

func newSimSetup(opts Options) (*simSetup, error) {
	days := 135 // 4.5 months, August to mid-December
	bfDay := 112
	if opts.Quick {
		days = 49 // seven weeks, Black Friday in week six
		bfDay = 35
	}
	cfg := workload.DefaultB2WConfig(opts.Seed+12, days)
	cfg.BlackFridayDay = bfDay
	series, err := workload.SyntheticB2W(cfg)
	if err != nil {
		return nil, err
	}
	five, err := series.Resample(5)
	if err != nil {
		return nil, err
	}
	// Paper-scale model: Q = 285 txn/s and Q-hat = 350 txn/s become
	// per-minute capacities; D = 77 minutes = 15.4 five-minute intervals;
	// 6 partitions per machine.
	model := migration.Model{Q: 285 * 60, QMax: 350 * 60, D: 77.0 / 5, P: 6}
	// Scale the trace so the normal peak needs about 8.6 machines at
	// Q-hat, like B2W's peak of ~3000 txn/s (Section 8.2) — leaving the
	// Black Friday surge to exceed the usual cluster ceiling.
	normalPeak := 0.0
	for i, v := range five.Values {
		day := i / (workload.MinutesPerDay / 5)
		if day != bfDay && v > normalPeak {
			normalPeak = v
		}
	}
	scale := 8.57 * model.QMax / normalPeak
	trace := make([]float64, five.Len())
	for i, v := range five.Values {
		trace[i] = v * scale
	}
	slotsPerDay := workload.MinutesPerDay / 5
	return &simSetup{
		trace:       trace,
		train:       trace[:28*slotsPerDay],
		trainMin:    series.Slice(0, 28*workload.MinutesPerDay).Scale(scale),
		slotsPerDay: slotsPerDay,
		model:       model,
		days:        days,
		bfDay:       bfDay,
		maxMachines: 30, // the simulation may allocate beyond the lab cluster
	}, nil
}

// simPoint is one (strategy, parameter) simulation outcome.
type simPoint struct {
	strategy  string
	param     float64
	cost      float64
	shortFrac float64
	result    *sim.Result
}

// shortfallFrac counts the fraction of intervals whose load exceeded the
// latency-risk capacity: the effective capacity rescaled from the planning
// target Q to the per-machine maximum Q-hat. (Planning to Q keeps slack;
// the SLA is only at risk past Q-hat.)
func shortfallFrac(trace []float64, res *sim.Result, model migration.Model) float64 {
	if len(trace) == 0 {
		return 0
	}
	scale := model.QMax / model.Q
	n := 0
	for i, v := range trace {
		if v > res.EffCap[i]*scale+1e-9 {
			n++
		}
	}
	return float64(n) / float64(len(trace))
}

// runStrategy simulates one strategy at one buffer setting and returns the
// outcome. qFrac sets each strategy's capacity buffer: for P-Store it is
// the planning target Q as a fraction of Q-hat (the paper varies Q between
// cost-optimal and performance-optimal settings); for the reactive strategy
// it sets the scale-out trigger; for Simple and Static it scales the
// provisioned size.
func (s *simSetup) runStrategy(strategy string, qFrac float64, opts Options) (*simPoint, error) {
	model := s.model
	model.Q = model.QMax * qFrac // Q as a fraction of Q-hat sets the buffer
	n0 := model.MachinesFor(s.trace[0] * 1.2)
	runner := &sim.Sim{Model: model, MaxMachines: s.maxMachines}

	peak := 0.0
	for _, v := range s.train {
		peak = math.Max(peak, v)
	}

	var ctrl elastic.Controller
	switch strategy {
	case "pstore-oracle", "pstore-spar":
		p, err := s.pstore(model, strategy)
		if err != nil {
			return nil, err
		}
		ctrl = p
	case "reactive":
		// Lower qFrac = earlier trigger = bigger machine buffer, but a
		// reactive system can never trigger before the load is near the
		// per-machine ceiling — that would require prediction.
		ctrl = &elastic.Reactive{
			Model:        model,
			HighFraction: 0.55 + qFrac,
			Headroom:     1.2,
		}
	case "simple":
		day := int(math.Ceil(peak * 0.65 / (qFrac * model.QMax)))
		ctrl = &elastic.Simple{
			SlotsPerDay:   s.slotsPerDay,
			MorningSlot:   7 * 12,
			NightSlot:     23 * 12,
			DayMachines:   max(day, 2),
			NightMachines: max(day/5, 1),
		}
	case "static":
		n0 = max(int(math.Ceil(peak*0.65/(qFrac*model.QMax))), 1)
		ctrl = elastic.Static{}
	default:
		return nil, fmt.Errorf("experiments: unknown strategy %q", strategy)
	}
	res, err := runner.Run(s.trace, ctrl, n0)
	if err != nil {
		return nil, fmt.Errorf("simulating %s (q=%.2f): %w", strategy, qFrac, err)
	}
	return &simPoint{
		strategy:  strategy,
		param:     qFrac,
		cost:      res.Cost,
		shortFrac: shortfallFrac(s.trace, res, model),
		result:    res,
	}, nil
}

// pstore builds the simulated P-Store over model: elastic.NewPStore trained on
// the first four weeks at the simulation's five-minute cycle, uncapped (the
// simulator caps the cluster). "pstore-oracle" swaps in the oracle predictor
// over the whole trace and a 5 % inflation.
func (s *simSetup) pstore(model migration.Model, strategy string) (*elastic.Predictive, error) {
	p, err := elastic.NewPStore(model, s.trainMin, 5, 0, elastic.SpikeRegularRate)
	if err != nil || strategy != "pstore-oracle" {
		return p, err
	}
	oracle := predictor.NewOnline(predictor.NewOracle(s.trace), 0, 0)
	if err := oracle.ObserveAll(nil); err != nil {
		return nil, err
	}
	p.Predictor, p.Inflation = oracle, 0.05
	return p, nil
}

// fig12 reproduces Figure 12: each strategy simulated over the full trace
// at several buffer settings, reporting normalized cost (log-scale x axis
// in the paper) against the percentage of time with insufficient capacity.
func fig12(opts Options) (*Result, error) {
	r := newResult("fig12", "Cost vs insufficient capacity, 4.5-month simulation")
	s, err := newSimSetup(opts)
	if err != nil {
		return nil, err
	}
	sweep := []float64{0.5, 0.575, 0.65, 0.725, 0.8}
	strategies := []string{"pstore-oracle", "pstore-spar", "reactive", "simple", "static"}

	// The paper normalizes cost to P-Store with default parameters
	// (Q = 65% of saturation = 0.8125 of Q-hat... here Q/QMax = 0.65/0.8).
	defaultPoint, err := s.runStrategy("pstore-spar", 0.65/0.8, opts)
	if err != nil {
		return nil, err
	}
	norm := defaultPoint.cost

	for _, strategy := range strategies {
		opts.logf("fig12: sweeping %s ...", strategy)
		var costs, shorts []float64
		for _, qFrac := range sweep {
			pt, err := s.runStrategy(strategy, qFrac, opts)
			if err != nil {
				return nil, err
			}
			costs = append(costs, pt.cost/norm)
			shorts = append(shorts, pt.shortFrac*100)
			r.addLine("%-14s buffer %.3f  cost %.3f (normalized)  %%time insufficient %6.3f%%  moves %d",
				strategy, qFrac, pt.cost/norm, pt.shortFrac*100, pt.result.Moves)
		}
		r.Series[strategy+"_cost"] = costs
		r.Series[strategy+"_short_pct"] = shorts
		// Summary at the middle (default-like) setting.
		r.Values[strategy+"_cost_mid"] = costs[2]
		r.Values[strategy+"_short_mid"] = shorts[2]
	}
	r.Values["default_cost"] = 1
	r.Values["default_short_pct"] = defaultPoint.shortFrac * 100
	r.addLine("paper reference: P-Store Oracle best; P-Store SPAR close behind; reactive needs a much")
	r.addLine("larger buffer (cost) to limit violations; Simple and Static dominate the cost axis")
	return r, nil
}

// fig13 reproduces Figure 13: the actual load and the effective capacity of
// P-Store (SPAR), Simple and Static over a normal four-day stretch and over
// the four days around Black Friday, where Simple collapses and P-Store
// tracks the surge.
func fig13(opts Options) (*Result, error) {
	r := newResult("fig13", "Effective capacity: normal days vs Black Friday")
	s, err := newSimSetup(opts)
	if err != nil {
		return nil, err
	}
	// P-Store runs at its default buffer; Simple and Static are sized so
	// the normal daily peak fits comfortably (the paper's green and grey
	// curves cover ordinary days — the point is what happens on Black
	// Friday).
	buffers := map[string]float64{
		"pstore-spar": 0.65 / 0.8,
		"simple":      0.55,
		"static":      0.55,
	}
	strategies := []string{"pstore-spar", "simple", "static"}
	results := map[string]*sim.Result{}
	qOf := map[string]float64{}
	for _, strategy := range strategies {
		pt, err := s.runStrategy(strategy, buffers[strategy], opts)
		if err != nil {
			return nil, err
		}
		results[strategy] = pt.result
		qOf[strategy] = buffers[strategy]
	}

	windows := []struct {
		name     string
		startDay int
	}{
		{"normal", 29},
		{"black_friday", s.bfDay - 1},
	}
	for _, w := range windows {
		lo := w.startDay * s.slotsPerDay
		hi := min(lo+4*s.slotsPerDay, len(s.trace))
		r.Series[w.name+"_load"] = s.trace[lo:hi]
		for _, strategy := range strategies {
			eff := results[strategy].EffCap[lo:hi]
			r.Series[fmt.Sprintf("%s_%s_effcap", w.name, strategy)] = eff
			scale := 1 / qOf[strategy]
			short := 0
			for i := lo; i < hi; i++ {
				if s.trace[i] > results[strategy].EffCap[i]*scale+1e-9 {
					short++
				}
			}
			r.Values[fmt.Sprintf("%s_%s_short", w.name, strategy)] = float64(short)
			r.addLine("%-13s window %-12s intervals with insufficient capacity: %4d / %d",
				strategy, w.name, short, hi-lo)
		}
	}
	r.addLine("paper reference: all three fit the normal pattern; on Black Friday the Simple schedule")
	r.addLine("collapses for most of the surge while P-Store scales with it")
	return r, nil
}
