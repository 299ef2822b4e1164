package experiments

import (
	"fmt"

	"pstore/internal/elastic"
	"pstore/internal/migration"
	"pstore/internal/workload"
)

func init() {
	register("fig11", "P-Store response to an unexpected load spike: migration rate R vs R x 8", fig11)
}

// fig11 reproduces Figure 11: a flash crowd the predictor has never seen
// arrives; P-Store's planner finds no feasible plan and falls back to
// emergency scaling, either at the non-disruptive rate R (slower to reach
// capacity, longer under-provisioned) or at R x 8 (reaches capacity sooner
// at the cost of migration-induced latency). The paper reports 16/101/143
// violations (50th/95th/99th) at rate R versus 22/44/51 at R x 8.
func fig11(opts Options) (*Result, error) {
	r := newResult("fig11", "Unexpected spike: rate R vs R x 8")
	p := defaultLiveParams(opts.Quick)
	cal, err := calibrate(p, opts)
	if err != nil {
		return nil, err
	}

	// Train on four ordinary weeks, then replay one day with a large
	// unforecastable spike injected mid-morning (the paper uses a real
	// spike from September 2016).
	cfg := workload.DefaultB2WConfig(opts.Seed+11, 29)
	cfg.PromosPerWeek = 0
	full, err := workload.SyntheticB2W(cfg)
	if err != nil {
		return nil, err
	}
	trainMin := full.Slice(0, 28*workload.MinutesPerDay)
	replay := full.Slice(28*workload.MinutesPerDay, full.Len())
	spike := workload.Spike{
		StartSlot:  10 * 60, // 10:00
		RampSlots:  8,
		HoldSlots:  100,
		DecaySlots: 50,
		Factor:     2.4,
	}
	replay, err = spike.Apply(replay)
	if err != nil {
		return nil, err
	}

	// The spike peak, not the diurnal peak, sizes the cluster: leave room
	// so the emergency target is reachable.
	rateScale := chooseRateScale(replay.Max(), cal, p, 7.5)
	q, qMax := paperUnits(cal, p, rateScale)
	dReal := estimateD(p.loadSpec.Carts+p.loadSpec.Checkouts+p.loadSpec.Stocks, p.squallCfg)
	dIntervals := dReal.Seconds() / (p.minutePerSlot.Seconds() * float64(p.controllerEveryMin))
	model := migration.Model{Q: q, QMax: qMax, D: dIntervals, P: p.engineCfg.PartitionsPerMachine}

	for _, policy := range []struct {
		name string
		mode elastic.SpikePolicy
	}{{"rate_R", elastic.SpikeRegularRate}, {"rate_Rx8", elastic.SpikeFastRate}} {
		opts.logf("fig11: running %s ...", policy.name)
		ctrl, err := elastic.NewPStore(model, trainMin, p.controllerEveryMin, p.engineCfg.MaxMachines, policy.mode)
		if err != nil {
			return nil, err
		}
		lr := &liveRun{
			params:     p,
			trace:      replay,
			controller: ctrl,
			machines:   model.MachinesFor(replay.At(0) * 1.3),
			rateScale:  rateScale,
			seed:       opts.Seed + 110,
		}
		res, err := lr.run(opts)
		if err != nil {
			return nil, fmt.Errorf("fig11 %s: %w", policy.name, err)
		}
		var v50, v95, v99 int
		v50 = res.rec.SLAViolations(50, p.latencySLOms)
		v95 = res.rec.SLAViolations(95, p.latencySLOms)
		v99 = res.rec.SLAViolations(99, p.latencySLOms)
		r.addLine("%-9s violations p50/p95/p99 = %d/%d/%d  (avg machines %.2f)",
			policy.name, v50, v95, v99, res.rec.AverageMachines())
		r.Values[policy.name+"_p50"] = float64(v50)
		r.Values[policy.name+"_p95"] = float64(v95)
		r.Values[policy.name+"_p99"] = float64(v99)
		r.Values[policy.name+"_total"] = float64(v50 + v95 + v99)
		r.Series[policy.name+"_p99_ms"] = res.rec.PercentileSeries(99)
		r.Series[policy.name+"_machines"] = res.rec.MachineSeries()
	}
	r.addLine("paper reference: rate R 16/101/143; rate Rx8 22/44/51 — faster migration trades")
	r.addLine("some latency during the move for far fewer total violation seconds")
	return r, nil
}
