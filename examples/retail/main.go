// Retail: a head-to-head of P-Store against an E-Store-like reactive
// provisioner on the live storage engine, through a compressed retail day
// that ends with an unannounced evening flash sale. Both runs use the same
// engine configuration, the same B2W transaction mix and the same trace;
// the difference is purely when each controller decides to move data.
//
// Each run opens a node (node.Open) and runs the cluster decision loop over
// it, which owns the Squall executor and the moves; this example only
// assembles a configuration, replays the trace and watches the loop's event
// stream.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/cluster"
	"pstore/internal/elastic"
	"pstore/internal/metrics"
	"pstore/internal/migration"
	"pstore/internal/node"
	"pstore/internal/squall"
	"pstore/internal/store"
	"pstore/internal/transport"
	"pstore/internal/workload"
)

const (
	minutePerSlot = 10 * time.Millisecond
	cycleMinutes  = 5
)

func main() {
	// One training month plus the replayed day, with a 1.8x flash sale at
	// 19:30 that is absent from the training data.
	full, err := workload.SyntheticB2W(workload.DefaultB2WConfig(99, 29))
	if err != nil {
		log.Fatal(err)
	}
	train := full.Slice(0, 28*workload.MinutesPerDay)
	day := withFlashSale(full.Slice(28*workload.MinutesPerDay, full.Len()))

	fmt.Println("replaying one retail day (flash sale at 19:30) under two provisioning policies")
	for _, policy := range []string{"P-Store", "Reactive"} {
		v50, v99, avgMach, moves, err := runPolicy(policy, day, train)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s p50 violations %2d, p99 violations %2d, avg machines %.2f, moves %d\n",
			policy, v50, v99, avgMach, moves)
	}
	fmt.Println("\nthe paper's Table 2 shows the same pattern: P-Store provisions ahead of demand and")
	fmt.Println("absorbs surprises with emergency scaling, while the reactive system migrates at peak.")
}

// withFlashSale returns day with a 1.8x sale from 19:30 for two hours, ramped
// in over its first ten minutes.
func withFlashSale(day workload.Series) workload.Series {
	out := day.Clone()
	start := 19*60 + 30
	for i := 0; i < 120 && start+i < out.Len(); i++ {
		boost := 1.8
		if i < 10 {
			boost = 1 + 0.8*float64(i)/10
		}
		out.Values[start+i] *= boost
	}
	return out
}

func runPolicy(policy string, day, train workload.Series) (v50, v99 int, avgMach float64, moves int, err error) {
	engCfg := store.Config{
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
	model := migration.Model{Q: 0.65 / 0.8 * qMax, QMax: qMax, D: 10, P: engCfg.PartitionsPerMachine}

	var ctrl elastic.Controller
	switch policy {
	case "P-Store":
		if ctrl, err = elastic.NewPStore(model, train, cycleMinutes, engCfg.MaxMachines, elastic.SpikeFastRate); err != nil {
			return 0, 0, 0, 0, err
		}
	case "Reactive":
		ctrl = &elastic.Reactive{Model: model, MaxMachines: engCfg.MaxMachines}
	}

	spec := b2w.LoadSpec{Carts: 2400, Checkouts: 600, Stocks: 1200, LinesPerCart: 3, Seed: 5}
	n, err := node.Open(node.Config{
		Store:    engCfg,
		Register: b2w.Register,
		Load:     func(eng *store.Engine) error { return b2w.Load(eng, spec) },
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer n.Close()
	rec, err := metrics.NewRecorder(time.Now(), 300*time.Millisecond)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	n.Engine.SetRecorder(rec)
	clu, err := cluster.NewRemote(cluster.Config{
		Squall:     squall.DefaultConfig(),
		Controller: ctrl,
		Cycle:      cycleMinutes * minutePerSlot,
		RateScale:  rateScale * cycleMinutes,
		Recorder:   rec,
	}, transport.NewLocal(n.Engine, n.Recovery))
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
			case cluster.MoveStarted, cluster.EmergencyTriggered, cluster.MoveFailed:
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

	driver := &b2w.Driver{Eng: n.Engine, Spec: spec, Seed: 6}
	if _, err := driver.Run(ctx, day, minutePerSlot, rateScale); err != nil && ctx.Err() == nil {
		return 0, 0, 0, 0, err
	}
	clu.Stop() // drains in-flight moves and closes the event stream
	watch.Wait()

	const sloMs = 40
	return rec.SLAViolations(50, sloMs), rec.SLAViolations(99, sloMs),
		rec.AverageMachines(), int(clu.Stats().Moves), nil
}
