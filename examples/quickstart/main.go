// Quickstart: open a node running the B2W retail benchmark, and let P-Store
// scale it through one compressed day of diurnal load — the core loop of the
// paper: SPAR forecasts the load, the planner picks the moves and Squall
// migrates the data live while the day replays.
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

const cycleMinutes = 5 // the controller observes the load once per five trace-minutes

func main() {
	// 1. A small cluster: up to 5 machines, 4 partitions each, loaded with
	// the B2W dataset. node.Open assembles the engine, its recovery manager
	// and the server that could front it, and loads the data.
	engCfg := store.Config{
		MaxMachines:          5,
		PartitionsPerMachine: 4,
		Buckets:              400,
		ServiceTime:          3 * time.Millisecond,
		QueueCapacity:        1 << 14,
		InitialMachines:      1,
	}
	spec := b2w.LoadSpec{Carts: 2000, Checkouts: 500, Stocks: 1000, LinesPerCart: 3, Seed: 1}
	n, err := node.Open(node.Config{
		Store:    engCfg,
		Register: b2w.Register,
		Load:     func(eng *store.Engine) error { return b2w.Load(eng, spec) },
	})
	if err != nil {
		log.Fatal(err)
	}
	defer n.Close()
	fmt.Printf("loaded %d rows across %d machines\n", n.Engine.TotalRows(), n.Engine.ActiveMachines())

	// 2. Four weeks of retail load to train on, then the day to replay,
	// compressed so one trace-minute lasts 8 ms: the day takes about 12 s.
	full, err := workload.SyntheticB2W(workload.DefaultB2WConfig(7, 29))
	if err != nil {
		log.Fatal(err)
	}
	train := full.Slice(0, 28*workload.MinutesPerDay)
	day := full.Slice(28*workload.MinutesPerDay, full.Len())
	const minutePerSlot = 8 * time.Millisecond
	// Scale the day so its peak needs ~4 of our 5 machines.
	perMachine := 0.8 * float64(engCfg.PartitionsPerMachine) / engCfg.ServiceTime.Seconds()
	rateScale := 4 * perMachine * minutePerSlot.Seconds() / day.Max()

	// 3. P-Store's controller as the paper runs it: SPAR trained on the four
	// weeks, a 36-interval horizon, predictions inflated by 15 %. The model
	// is in the trace's units, requests per trace-minute.
	model := migration.Model{
		Q:    0.65 * perMachine * minutePerSlot.Seconds() / rateScale,
		QMax: 0.8 * perMachine * minutePerSlot.Seconds() / rateScale,
		D:    4, // full-DB migration time, in 5-minute planning intervals
		P:    engCfg.PartitionsPerMachine,
	}
	ctrl, err := elastic.NewPStore(model, train, cycleMinutes, engCfg.MaxMachines, elastic.SpikeRegularRate)
	if err != nil {
		log.Fatal(err)
	}

	// 4. The decision loop: every cycle it measures the load, asks the
	// controller, and runs the moves through its Squall executor.
	rec, err := metrics.NewRecorder(time.Now(), 300*time.Millisecond)
	if err != nil {
		log.Fatal(err)
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
		log.Fatal(err)
	}
	events, unsubscribe := clu.Subscribe(1024)
	defer unsubscribe()
	start := time.Now()
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		var load float64
		for e := range events {
			switch ev := e.(type) {
			case cluster.LoadObserved:
				load = ev.Load
			case cluster.MoveStarted:
				fmt.Printf("t+%5.1fs  load %7.0f req/min -> reconfigure %d -> %d machines\n",
					ev.Time.Sub(start).Seconds(), load, ev.From, ev.To)
			case cluster.MoveFailed, cluster.EmergencyTriggered:
				fmt.Printf("t+%5.1fs  %v\n", e.When().Sub(start).Seconds(), ev)
			}
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := clu.Start(ctx); err != nil {
		log.Fatal(err)
	}
	defer clu.Stop()

	// 5. Replay the day.
	driver := &b2w.Driver{Eng: n.Engine, Spec: spec, Seed: 2}
	stats, err := driver.Run(ctx, day, minutePerSlot, rateScale)
	if err != nil {
		log.Fatal(err)
	}
	clu.Stop() // drains the move in flight and closes the event stream
	watch.Wait()
	counters := n.Engine.Counters()
	fmt.Printf("\nday replayed: %d transactions executed (%d business errors), %d completed OK\n",
		stats.Executed, stats.Failed, counters.Completed)
	fmt.Printf("final cluster size: %d machines (avg %.2f), %d rows intact (%d forwarded mid-move), %d moves\n",
		n.Engine.ActiveMachines(), rec.AverageMachines(), n.Engine.TotalRows(), counters.Forwarded, clu.Stats().Moves)
}
