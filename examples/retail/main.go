// Retail: a head-to-head of P-Store against an E-Store-like reactive
// provisioner on the live storage engine, through a compressed retail day
// that ends with an unannounced evening flash sale. Both runs use the same
// engine configuration, the same B2W transaction mix and the same trace;
// the difference is purely when each controller decides to move data.
//
// The serving stack — engine, Squall executor, recorder and the
// monitoring/decision loop — is owned by the pstore.Cluster runtime; this
// example only assembles a configuration, replays the trace and watches the
// runtime's event stream.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"pstore"
)

const (
	minutePerSlot = 10 * time.Millisecond
	cycleMinutes  = 5
)

func main() {
	// One training month plus the replayed day, with a 1.8x flash sale at
	// 19:30 that is absent from the training data.
	cfg := pstore.DefaultB2WConfig(99, 29)
	full, err := pstore.SyntheticB2W(cfg)
	if err != nil {
		log.Fatal(err)
	}
	day := full.Slice(28*24*60, full.Len())
	day, err = applyFlashSale(day)
	if err != nil {
		log.Fatal(err)
	}
	trainFive, err := full.Slice(0, 28*24*60).Resample(cycleMinutes)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("replaying one retail day (flash sale at 19:30) under two provisioning policies")
	for _, policy := range []string{"P-Store", "Reactive"} {
		v50, v99, avgMach, moves, err := runPolicy(policy, day, trainFive)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s p50 violations %2d, p99 violations %2d, avg machines %.2f, moves %d\n",
			policy, v50, v99, avgMach, moves)
	}
	fmt.Println("\nthe paper's Table 2 shows the same pattern: P-Store provisions ahead of demand and")
	fmt.Println("absorbs surprises with emergency scaling, while the reactive system migrates at peak.")
}

func applyFlashSale(day pstore.Series) (pstore.Series, error) {
	out := day.Clone()
	start := 19*60 + 30
	for i := 0; i < 120 && start+i < out.Len(); i++ {
		boost := 1.8
		if i < 10 {
			boost = 1 + 0.8*float64(i)/10
		}
		out.Values[start+i] *= boost
	}
	return out, nil
}

func runPolicy(policy string, day, trainFive pstore.Series) (v50, v99 int, avgMach float64, moves int, err error) {
	engCfg := pstore.EngineConfig{
		MaxMachines:          8,
		PartitionsPerMachine: 4,
		Buckets:              640,
		ServiceTime:          3 * time.Millisecond,
		QueueCapacity:        1 << 15,
		InitialMachines:      2,
	}

	// Capacity in paper units (requests per trace minute per machine).
	perMachine := 0.8 * float64(engCfg.PartitionsPerMachine) / engCfg.ServiceTime.Seconds()
	rateScale := 6 * perMachine * minutePerSlot.Seconds() / day.Max()
	qMax := perMachine * minutePerSlot.Seconds() / rateScale
	model := pstore.MigrationModel{Q: 0.65 / 0.8 * qMax, QMax: qMax, D: 10, P: engCfg.PartitionsPerMachine}

	var ctrl pstore.Controller
	switch policy {
	case "P-Store":
		spar := pstore.NewSPAR(trainFive.Len()/28, 7, 6)
		online := pstore.NewOnlinePredictor(spar, 0, 9*trainFive.Len()/28)
		// Rescale training history into this run's paper units.
		hist := make([]float64, trainFive.Len())
		copy(hist, trainFive.Values)
		if err := online.ObserveAll(hist); err != nil {
			return 0, 0, 0, 0, err
		}
		ctrl = &pstore.PredictiveController{
			Model: model, Predictor: online,
			Horizon: 36, Inflation: 0.15, MaxMachines: engCfg.MaxMachines,
			OnSpike: pstore.SpikeFastRate,
		}
	case "Reactive":
		ctrl = &pstore.ReactiveController{Model: model, MaxMachines: engCfg.MaxMachines}
	}

	spec := pstore.B2WLoadSpec{Carts: 2400, Checkouts: 600, Stocks: 1200, LinesPerCart: 3, Seed: 5}
	n, err := pstore.OpenNode(pstore.NodeConfig{
		Store:    engCfg,
		Register: pstore.RegisterB2W,
		Load: func(eng *pstore.Engine) error {
			return pstore.LoadB2W(eng, spec)
		},
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer n.Close()
	rec, err := pstore.NewRecorder(time.Now(), 300*time.Millisecond)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	n.Engine.SetRecorder(rec)
	clu, err := pstore.NewCluster(pstore.ClusterConfig{
		Squall:            pstore.DefaultSquallConfig(),
		Controller:        ctrl,
		Cycle:             cycleMinutes * minutePerSlot,
		RateScale:         rateScale,
		CycleTraceMinutes: cycleMinutes,
		Recorder:          rec,
	}, n)
	if err != nil {
		return 0, 0, 0, 0, err
	}

	// Watch the runtime's event stream: every move and emergency is logged
	// as it happens instead of being mined out of counters afterwards.
	events, unsubscribe := clu.Subscribe(1024)
	defer unsubscribe()
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		for e := range events {
			switch ev := e.(type) {
			case pstore.MoveStarted, pstore.EmergencyTriggered, pstore.MoveFailed:
				log.Printf("%s: %v", policy, ev)
			}
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := clu.Start(ctx); err != nil {
		return 0, 0, 0, 0, err
	}
	defer clu.Stop()

	driver := &pstore.B2WDriver{Eng: n.Engine, Spec: spec, Seed: 6}
	if _, err := driver.Run(ctx, day, minutePerSlot, rateScale); err != nil && ctx.Err() == nil {
		return 0, 0, 0, 0, err
	}
	clu.Stop() // drains in-flight moves and closes the event stream
	watch.Wait()

	const sloMs = 40
	return rec.SLAViolations(50, sloMs), rec.SLAViolations(99, sloMs),
		rec.AverageMachines(), int(clu.Stats().Moves), nil
}
