package experiments

import (
	"context"
	"fmt"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/cluster"
	"pstore/internal/metrics"
	"pstore/internal/transport"
	"pstore/internal/workload"
)

func init() {
	register("fig7", "Single-machine saturation ramp: discovering Q and Q-hat", fig7)
	register("fig8", "Latency while reconfiguring with different chunk sizes; discovering D", fig8)
}

// fig7 reproduces Figure 7: throughput and latency on a single machine as
// the offered rate increases, locating the saturation point and deriving
// Q̂ = 80% and Q = 65% of it (Section 8.1 finds 438 txn/s, Q̂ = 350,
// Q = 285 on the paper's hardware; absolute numbers here reflect the scaled
// substrate, the shape is what matters).
func fig7(opts Options) (*Result, error) {
	r := newResult("fig7", "Single-machine saturation ramp")
	p := defaultLiveParams(opts.Quick)
	cal, steps, err := rampSingleNode(p, opts, func(s rampStep) {
		opts.logf("ramp: offered %.0f txn/s -> throughput %.0f, p50 %.1f ms", s.OfferedRate, s.Throughput, s.AvgLatency)
	})
	if err != nil {
		return nil, err
	}
	for _, s := range steps {
		r.addLine("offered %6.0f txn/s   throughput %6.0f   p50 %7.1f ms   p99 %7.1f ms",
			s.OfferedRate, s.Throughput, s.AvgLatency, s.P99)
		r.Series["offered"] = append(r.Series["offered"], s.OfferedRate)
		r.Series["throughput"] = append(r.Series["throughput"], s.Throughput)
		r.Series["p50_ms"] = append(r.Series["p50_ms"], s.AvgLatency)
		r.Series["p99_ms"] = append(r.Series["p99_ms"], s.P99)
	}
	r.Values["saturation_txns"] = cal.saturation
	r.Values["qmax_txns"] = cal.qMax
	r.Values["q_txns"] = cal.q
	r.addLine("saturation %.0f txn/s -> Q-hat = %.0f (80%%), Q = %.0f (65%%)",
		cal.saturation, cal.qMax, cal.q)
	r.addLine("paper reference: saturation 438 txn/s, Q-hat 350, Q 285 (shape: latency flat, then explodes)")
	return r, nil
}

// fig8 reproduces Figure 8: with the source machine held at Q̂, migrate half
// the database to a second machine using increasing chunk sizes; small
// chunks leave latency at the static baseline, large chunks cause tail
// latency spikes. The largest non-disruptive rate yields D (Section 8.1
// finds D = 77 minutes on the paper's hardware).
func fig8(opts Options) (*Result, error) {
	r := newResult("fig8", "Chunk size vs latency during reconfiguration")
	p := defaultLiveParams(opts.Quick)
	cal, err := calibrate(p, opts)
	if err != nil {
		return nil, err
	}

	chunkSweep := []int{0, 75, 150, 300, 600, 1200} // 0 = static baseline
	type outcome struct {
		chunk    int
		p50, p99 float64
		moveTime time.Duration
	}
	var outs []outcome
	var baselineP99 float64
	for _, chunk := range chunkSweep {
		o, err := fig8Run(p, opts, cal, chunk)
		if err != nil {
			return nil, err
		}
		outs = append(outs, outcome{chunk: chunk, p50: o.p50, p99: o.p99, moveTime: o.moveTime})
		if chunk == 0 {
			baselineP99 = o.p99
		}
	}
	for _, o := range outs {
		label := fmt.Sprintf("%d rows", o.chunk)
		if o.chunk == 0 {
			label = "static"
		}
		r.addLine("chunk %-9s p50 %7.2f ms   p99 %7.2f ms   move %8v", label, o.p50, o.p99, o.moveTime)
		r.Series["chunk_rows"] = append(r.Series["chunk_rows"], float64(o.chunk))
		r.Series["p50_ms"] = append(r.Series["p50_ms"], o.p50)
		r.Series["p99_ms"] = append(r.Series["p99_ms"], o.p99)
	}
	r.Values["baseline_p99_ms"] = baselineP99
	r.Values["largest_p99_ms"] = outs[len(outs)-1].p99
	// D from the configured non-disruptive chunk size.
	sq := p.squallCfg
	dReal := estimateD(p.loadSpec.Carts+p.loadSpec.Checkouts+p.loadSpec.Stocks, sq)
	r.Values["d_seconds"] = dReal.Seconds()
	r.Values["d_trace_minutes"] = dReal.Seconds() / p.minutePerSlot.Seconds()
	r.addLine("discovered D = %v wall (%.0f trace-minutes; paper: 77 min at 244 kB/s)",
		dReal, dReal.Seconds()/p.minutePerSlot.Seconds())
	r.addLine("paper reference: 1000 kB chunks ~ static latency; larger chunks spike the 99th percentile")
	return r, nil
}

type fig8Outcome struct {
	p50, p99 float64
	moveTime time.Duration
}

// fig8Run holds one machine at Q̂ offered load while migrating half the
// database to a second machine with the given chunk size (0 = no move).
func fig8Run(p liveParams, opts Options, cal calibration, chunkRows int) (*fig8Outcome, error) {
	cfg := p.engineCfg
	cfg.InitialMachines = 1
	nd, err := openNode(cfg, p.loadSpec)
	if err != nil {
		return nil, err
	}
	defer nd.Close()
	eng := nd.Engine

	rec, err := metrics.NewRecorder(time.Now(), p.recorderWin)
	if err != nil {
		return nil, err
	}
	eng.SetRecorder(rec)

	dur := 4 * time.Second
	if opts.Quick {
		dur = 2500 * time.Millisecond
	}
	// Offered load: Q̂ txn/s on the source machine throughout.
	slots := workload.NewSeries(time.Time{}, time.Minute, []float64{cal.qMax * dur.Seconds()})
	driver := &b2w.Driver{Eng: eng, Spec: p.loadSpec, Seed: opts.Seed + 80}

	// Ping-pong half the database between machines 1 and 2 for the whole
	// measurement window so most latency windows overlap a migration; the
	// paper equivalently measures latency throughout one long half-DB move.
	var moveTime time.Duration
	var moves int
	stopMoves := make(chan struct{})
	done := make(chan error, 1)
	if chunkRows > 0 {
		sq := p.squallCfg
		sq.ChunkRows = chunkRows
		c, err := cluster.NewRemote(cluster.Config{Squall: sq, Recorder: rec},
			transport.NewLocal(eng, nd.Recovery))
		if err != nil {
			return nil, err
		}
		if err := c.Start(context.Background()); err != nil {
			return nil, err
		}
		defer c.Stop()
		go func() {
			for to := 2; ; to = 3 - to {
				select {
				case <-stopMoves:
					done <- nil
					return
				default:
				}
				start := time.Now()
				if err := c.Reconfigure(to, 1); err != nil {
					done <- err
					return
				}
				moveTime += time.Since(start)
				moves++
			}
		}()
	} else {
		done <- nil
	}

	if _, err := driver.Run(context.Background(), slots, dur, 1); err != nil {
		return nil, err
	}
	close(stopMoves)
	if err := <-done; err != nil {
		return nil, err
	}
	eng.SetRecorder(nil)

	// Aggregate p50/p99 across windows overlapping a migration (all busy
	// windows for the static baseline).
	reconf := rec.ReconfiguringWindows()
	var p50, p99 float64
	n := 0
	for w := 0; w < rec.Windows(); w++ {
		if rec.Throughput(w) == 0 {
			continue
		}
		if chunkRows > 0 && (w >= len(reconf) || !reconf[w]) {
			continue
		}
		p50 += rec.Percentile(w, 50)
		if v := rec.Percentile(w, 99); v > p99 {
			p99 = v
		}
		n++
	}
	if n > 0 {
		p50 /= float64(n)
	}
	if moves > 0 {
		moveTime /= time.Duration(moves)
	}
	return &fig8Outcome{p50: p50, p99: p99, moveTime: moveTime}, nil
}
