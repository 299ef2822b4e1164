package experiments

import (
	"fmt"
	"sync"

	"pstore/internal/elastic"
	"pstore/internal/migration"
	"pstore/internal/workload"
)

func init() {
	register("fig9", "Comparison of elasticity approaches on the live engine (static-10, static-4, reactive, P-Store)", fig9)
	register("fig10", "Top-1% CDFs of 50th/95th/99th percentile latencies per approach", fig10)
	register("table2", "SLA violations and average machines allocated per approach", table2)
}

// fig9Strategy names the four approaches of Figure 9.
var fig9Strategies = []string{"static-10", "static-4", "reactive", "pstore"}

// fig9Outcome is one strategy's full run, shared by fig9/fig10/table2.
type fig9Outcome struct {
	strategy   string
	violations map[float64]int // percentile -> windows over SLO
	avgMach    float64
	topCDF     map[float64][]float64
	throughput []float64
	latency    []float64
	p99series  []float64
	machines   []float64
	reconfig   []bool
	decided    int
	failures   int
}

var (
	fig9Mu    sync.Mutex
	fig9Cache = map[string][]*fig9Outcome{}
)

// fig9Runs executes (or returns cached) runs of all four strategies.
func fig9Runs(opts Options) ([]*fig9Outcome, error) {
	key := fmt.Sprintf("q=%v/seed=%d", opts.Quick, opts.Seed)
	fig9Mu.Lock()
	if outs, ok := fig9Cache[key]; ok {
		fig9Mu.Unlock()
		return outs, nil
	}
	fig9Mu.Unlock()

	p := defaultLiveParams(opts.Quick)
	cal, err := calibrate(p, opts)
	if err != nil {
		return nil, err
	}

	// Generate the multi-week trace: train on the first four weeks, replay
	// the following day(s), like the paper's randomly chosen 3-day window
	// after a 4-week training period.
	replayDays := 3
	if opts.Quick {
		replayDays = 1
	}
	cfg := workload.DefaultB2WConfig(opts.Seed+9, 28+replayDays)
	full, err := workload.SyntheticB2W(cfg)
	if err != nil {
		return nil, err
	}
	trainMin := full.Slice(0, 28*workload.MinutesPerDay)
	replay := full.Slice(28*workload.MinutesPerDay, full.Len())

	// Size the trace so the inflated peak demands just under the full
	// 10-machine cluster at the Q target, mirroring the paper's headroom
	// at peak (Figure 9d: the capacity line stays barely above the peak).
	rateScale := chooseRateScale(replay.Max(), cal, p, 6.7)
	q, qMax := paperUnits(cal, p, rateScale)
	// D in controller intervals (controllerEveryMin trace minutes each).
	dReal := estimateD(p.loadSpec.Carts+p.loadSpec.Checkouts+p.loadSpec.Stocks, p.squallCfg)
	dIntervals := dReal.Seconds() / (p.minutePerSlot.Seconds() * float64(p.controllerEveryMin))
	model := migration.Model{Q: q, QMax: qMax, D: dIntervals, P: p.engineCfg.PartitionsPerMachine}

	var outs []*fig9Outcome
	for _, strategy := range fig9Strategies {
		opts.logf("fig9: running %s ...", strategy)
		var ctrl elastic.Controller
		machines := model.MachinesFor(replay.At(0) * 1.3)
		switch strategy {
		case "static-10":
			machines = 10
		case "static-4":
			machines = 4
		case "reactive":
			ctrl = &elastic.Reactive{Model: model, MaxMachines: p.engineCfg.MaxMachines}
		case "pstore":
			// SPAR trained on the four weeks at controller-cycle granularity.
			if ctrl, err = elastic.NewPStore(model, trainMin, p.controllerEveryMin, p.engineCfg.MaxMachines, elastic.SpikeRegularRate); err != nil {
				return nil, err
			}
		}
		lr := &liveRun{
			params:     p,
			trace:      replay,
			controller: ctrl,
			machines:   machines,
			rateScale:  rateScale,
			seed:       opts.Seed + 90,
		}
		res, err := lr.run(opts)
		if err != nil {
			return nil, fmt.Errorf("fig9 %s: %w", strategy, err)
		}
		o := &fig9Outcome{
			strategy:   strategy,
			violations: map[float64]int{},
			topCDF:     map[float64][]float64{},
			avgMach:    res.rec.AverageMachines(),
			throughput: res.rec.ThroughputSeries(),
			machines:   res.rec.MachineSeries(),
			reconfig:   res.rec.ReconfiguringWindows(),
			latency:    res.rec.PercentileSeries(50),
			p99series:  res.rec.PercentileSeries(99),
			decided:    res.decided,
			failures:   res.failures,
		}
		for _, pct := range []float64{50, 95, 99} {
			o.violations[pct] = res.rec.SLAViolations(pct, p.latencySLOms)
			o.topCDF[pct] = res.rec.TopCDF(pct, 0.01)
		}
		outs = append(outs, o)
		opts.logf("fig9: %s done (avg machines %.2f, p99 violations %d)",
			strategy, o.avgMach, o.violations[99])
	}

	fig9Mu.Lock()
	fig9Cache[key] = outs
	fig9Mu.Unlock()
	return outs, nil
}

func fig9(opts Options) (*Result, error) {
	r := newResult("fig9", "Comparison of elasticity approaches")
	outs, err := fig9Runs(opts)
	if err != nil {
		return nil, err
	}
	p := defaultLiveParams(opts.Quick)
	for _, o := range outs {
		r.addLine("%-10s avg machines %5.2f  SLA violations p50/p95/p99 = %d/%d/%d  moves decided %d",
			o.strategy, o.avgMach, o.violations[50], o.violations[95], o.violations[99], o.decided)
		r.Values[o.strategy+"_avg_machines"] = o.avgMach
		r.Values[o.strategy+"_p99_violations"] = float64(o.violations[99])
		r.Series[o.strategy+"_throughput"] = o.throughput
		r.Series[o.strategy+"_p50_latency_ms"] = o.latency
		r.Series[o.strategy+"_machines"] = o.machines
		r.Series[o.strategy+"_p99"] = o.p99series
	}
	r.addLine("SLO threshold on this substrate: %v ms per %v window (paper: 500 ms per second)",
		p.latencySLOms, p.recorderWin)
	r.addLine("paper reference (Table 2): static-10 fewest violations at 10 machines; P-Store ~half the")
	r.addLine("machines of peak with ~1/3 the violations of reactive; static-4 cheap but violates heavily")
	return r, nil
}

func fig10(opts Options) (*Result, error) {
	r := newResult("fig10", "Top-1% latency CDFs")
	outs, err := fig9Runs(opts)
	if err != nil {
		return nil, err
	}
	for _, o := range outs {
		for _, pct := range []float64{50, 95, 99} {
			cdf := o.topCDF[pct]
			r.Series[fmt.Sprintf("%s_p%.0f", o.strategy, pct)] = cdf
			if len(cdf) > 0 {
				r.addLine("%-10s p%-3.0f top-1%% range: %7.1f .. %7.1f ms (%d points)",
					o.strategy, pct, cdf[0], cdf[len(cdf)-1], len(cdf))
				r.Values[fmt.Sprintf("%s_p%.0f_worst", o.strategy, pct)] = cdf[len(cdf)-1]
			}
		}
	}
	r.addLine("paper reference: reactive worst in all three panels; static-10 best; P-Store between")
	return r, nil
}

func table2(opts Options) (*Result, error) {
	r := newResult("table2", "SLA violations and average machines allocated")
	outs, err := fig9Runs(opts)
	if err != nil {
		return nil, err
	}
	r.addLine("%-22s %8s %8s %8s %10s", "Elasticity Approach", "50th", "95th", "99th", "Machines")
	label := map[string]string{
		"static-10": "Static allocation (10)",
		"static-4":  "Static allocation (4)",
		"reactive":  "Reactive provisioning",
		"pstore":    "P-Store",
	}
	for _, o := range outs {
		r.addLine("%-22s %8d %8d %8d %10.2f",
			label[o.strategy], o.violations[50], o.violations[95], o.violations[99], o.avgMach)
		for _, pct := range []float64{50, 95, 99} {
			r.Values[fmt.Sprintf("%s_p%.0f", o.strategy, pct)] = float64(o.violations[pct])
		}
		r.Values[o.strategy+"_machines"] = o.avgMach
	}
	r.addLine("paper reference: 0/13/25 @10; 0/157/249 @4; 35/220/327 reactive @4.02; 0/37/92 P-Store @5.05")
	return r, nil
}
