package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pstore/internal/client"
	"pstore/internal/migration"
	"pstore/internal/planner"
	"pstore/internal/predictor"
	"pstore/internal/store"
	"pstore/internal/wal"
	"pstore/internal/wire"
	"pstore/internal/workload"
)

// The ladder sends one closed-loop, single-client sample of the mix to five
// spawned configurations, each adding one layer to the one before. The
// difference between adjacent medians is that layer's share of a request's
// time, taken entirely from outside the processes.
//
//	r0  one node, no -data-dir      engine + HTTP
//	r1  r0 + -data-dir              + local WAL append and fsync
//	r2  two nodes, non-owner asked  + one forward hop
//	r3  r2 + async followers        + WAL shipping in the background
//	r4  r3 + -sync-commit           + follower durability before the ack
const ladderRequests = 200

// nodeServiceTime is what `pstore serve -node` hard-codes per transaction.
const nodeServiceTime = 3 * time.Millisecond

// measureLadder sets the four hop metrics and returns r0's median in ms,
// from which measureProbes derives server.http_hop_us.
func measureLadder(ctx context.Context, e *env, seed int64, set func(string, float64)) (r0Ms float64, err error) {
	sample, err := schedule(constantRate(2*ladderRequests, 1), time.Second, seed, false)
	if err != nil {
		return 0, err
	}
	sample = sample[:min(len(sample), ladderRequests)]
	oracle, err := newOracle()
	if err != nil {
		return 0, err
	}
	defer oracle.Stop()

	rungs := []struct {
		kind    string
		nodes   int
		durable bool
	}{{stackPlain, 1, false}, {stackPlain, 1, true}, {stackPlain, 2, true}, {stackAsync, 2, true}, {stackSync, 2, true}}
	p50 := make([]float64, len(rungs))
	for i, rung := range rungs {
		dir := filepath.Join(e.workDir, fmt.Sprintf("ladder-r%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
		st, err := startStack(e.bin, dir, filepath.Join(e.outDir, fmt.Sprintf("ladder-r%d", i)), rung.kind, 4, rung.nodes, rung.durable)
		if err != nil {
			return 0, err
		}
		setCurrentStack(st)
		p50[i], err = closedLoop(ctx, st, sample, func(key string) int {
			if rung.nodes == 1 {
				return 0
			}
			// Ask the node that does not host the key's machine.
			owner := oracle.MachineOfPartition(oracle.PartitionOfKey(key)) % rung.nodes
			return 1 - owner
		})
		st.stop()
		os.RemoveAll(dir)
		if err != nil {
			return 0, fmt.Errorf("r%d: %w", i, err)
		}
	}
	set("wal.durable_hop_us", 1000*(p50[1]-p50[0]))
	set("transport.forward_hop_us", 1000*(p50[2]-p50[1]))
	set("transport.ship_async_us", 1000*(p50[3]-p50[2]))
	set("transport.sync_barrier_us", 1000*(p50[4]-p50[3]))
	return p50[0], nil
}

// closedLoop sends the sample one request at a time over one connection per
// node and returns the median latency in ms.
func closedLoop(ctx context.Context, st *stack, sample []*request, nodeFor func(key string) int) (float64, error) {
	clients := make([]*client.Client, len(st.nodes))
	for i, n := range st.nodes {
		c, err := client.New(client.Config{Addr: n.url, MaxInFlight: 1, Deadline: time.Second})
		if err != nil {
			return 0, err
		}
		defer c.Close()
		clients[i] = c
	}
	lat := make([]float64, 0, len(sample))
	for _, r := range sample {
		t0 := time.Now()
		_, err := clients[nodeFor(r.key)].Execute(ctx, r.txn, r.key, r.raw)
		if s := statusOfError(err); s != statusOK && s != statusBusiness {
			return 0, fmt.Errorf("%s %s: %v", r.txn, r.key, err)
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	return median(lat), nil
}

// measureProbes times calls into each layer's public functions in this
// process, on the run's own requests. r0Ms is the ladder's first rung: what
// it spends beyond the service time and the engine's own execution is HTTP.
func measureProbes(e *env, r0Ms float64, reqs []*request, set func(string, float64)) error {
	sample := reqs[:min(len(reqs), 2000)]
	probeWire(sample, set)
	execNs, err := probeStore(sample, set)
	if err != nil {
		return err
	}
	set("server.http_hop_us", 1000*(r0Ms-ms(nodeServiceTime))-execNs/1000)
	if err := probeWAL(e, sample, set); err != nil {
		return err
	}
	return probePlanning(e, set)
}

// perOp runs f n times and returns the mean nanoseconds per call.
func perOp(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// probeWire times the JSON codec of wire.Request/Response and the batch
// framing on the sample's requests.
func probeWire(sample []*request, set func(string, float64)) {
	n := len(sample)
	encoded := make([][]byte, n)
	bytesTotal := 0
	set("wire.encode_req_ns", perOp(n, func(i int) {
		r := sample[i]
		encoded[i], _ = json.Marshal(wire.Request{Txn: r.txn, Key: r.key, Args: r.raw})
	}))
	for _, b := range encoded {
		bytesTotal += len(b)
	}
	set("wire.req_bytes", float64(bytesTotal)/float64(n))
	set("wire.decode_req_ns", perOp(n, func(i int) {
		var req wire.Request
		_ = json.Unmarshal(encoded[i], &req)
	}))
	set("wire.encode_resp_ns", perOp(n, func(i int) {
		_, _ = json.Marshal(wire.Response{Status: statusOK, Value: sample[i].raw})
	}))
	var buf bytes.Buffer
	set("wire.frame_roundtrip_ns", perOp(n, func(i int) {
		buf.Reset()
		_ = wire.WriteFrame(&buf, encoded[i])
		_, _ = wire.ReadFrame(&buf)
	}))
}

// probeStore executes the sample on an in-process engine with the nodes'
// geometry and no service time, one client, and reports time and heap
// allocations per transaction. It also times the dataset load.
func probeStore(sample []*request, set func(string, float64)) (execNs float64, err error) {
	t0 := time.Now()
	eng, err := newOracle()
	if err != nil {
		return 0, err
	}
	defer eng.Stop()
	set("b2w.load_ms", ms(time.Since(t0)))
	ids := make([]store.TxnID, len(sample))
	for i, r := range sample {
		id, ok := eng.Handle(r.txn)
		if !ok {
			return 0, fmt.Errorf("probe: %s is not registered", r.txn)
		}
		ids[i] = id
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	execNs = perOp(len(sample), func(i int) {
		_, _ = eng.ExecuteID(ids[i], sample[i].key, sample[i].args) // business errors are results too
	})
	runtime.ReadMemStats(&after)
	set("store.exec_ns", execNs)
	set("store.allocs_per_txn", float64(after.Mallocs-before.Mallocs)/float64(len(sample)))
	return execNs, nil
}

// probeWAL appends the sample to a real on-disk log under the work
// directory, with one appender and with eight, and reports the time per
// durable append and how many records share one fsync.
func probeWAL(e *env, sample []*request, set func(string, float64)) error {
	for _, appenders := range []int{1, 8} {
		dir := filepath.Join(e.workDir, fmt.Sprintf("probe-wal-%d", appenders))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		log, _, err := wal.Open(wal.Config{Dir: dir,
			Geometry: wal.Geometry{Buckets: 640, MaxMachines: 4, PartitionsPerMachine: 4}})
		if err != nil {
			return err
		}
		n := min(len(sample), 400)
		errs := make(chan error, appenders)
		var wg sync.WaitGroup
		t0 := time.Now()
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				for i := a; i < n; i += appenders {
					r := sample[i]
					rec := wal.Record{Bucket: i % 640, LSN: uint64(i/640 + 1), Txn: r.txn, Key: r.key, Args: r.args}
					if err := log.Append(rec); err != nil {
						errs <- err
						return
					}
				}
			}(a)
		}
		wg.Wait()
		// Per-appender latency: each appender made n/appenders durable appends.
		perAppend := float64(time.Since(t0).Microseconds()) / (float64(n) / float64(appenders))
		stats := log.Stats()
		closeErr := log.Close()
		os.RemoveAll(dir)
		select {
		case err := <-errs:
			return fmt.Errorf("wal probe: %w", err)
		default:
		}
		if closeErr != nil {
			return closeErr
		}
		set(fmt.Sprintf("wal.append_us_%d", appenders), perAppend)
		if appenders == 8 {
			set("wal.records_per_fsync", float64(stats.Appends)/float64(stats.Syncs))
		}
	}
	return nil
}

// probePlanning times the paper's own components on the fixed trace: trace
// generation, the SPAR fit, one forecast, the planner over the replay day's
// 288 decisions, and the migration schedule. Forecast error and plan cost
// are deterministic functions of the trace and repeat exactly.
func probePlanning(e *env, set func(string, float64)) error {
	t0 := time.Now()
	if _, err := workload.SyntheticB2W(workload.DefaultB2WConfig(traceSeed, trainDays+1)); err != nil {
		return err
	}
	set("workload.gen_ms", ms(time.Since(t0)))

	period := workload.MinutesPerDay / cycleMinutes
	spar := predictor.NewSPAR(period, 7, 6)
	t0 = time.Now()
	if err := spar.Fit(e.day.train); err != nil {
		return err
	}
	set("predictor.fit_ms", ms(time.Since(t0)))

	day, err := e.day.day.Resample(cycleMinutes)
	if err != nil {
		return err
	}
	online := predictor.NewOnline(predictor.NewSPAR(period, 7, 6), 0, 9*period)
	if err := online.ObserveAll(e.day.train); err != nil {
		return err
	}
	const horizon, tau = 36, 12
	// D as at the default run length, so the numbers do not depend on -seconds.
	cycle := time.Duration(defaultSeconds) * time.Second * cycleMinutes / workload.MinutesPerDay
	pl := planner.Planner{MaxMachines: 4, Model: migration.Model{Q: modelQ, QMax: modelQMax, P: 4,
		D: migrationDSeconds / cycle.Seconds()}}
	var forecastUs, planMs []float64
	relErr, relN, cost := 0.0, 0, 0.0
	machines := 1
	for i, actual := range day.Values {
		if err := online.Observe(actual); err != nil {
			return err
		}
		t0 = time.Now()
		forecast, err := online.Forecast(horizon)
		if err != nil {
			return err
		}
		forecastUs = append(forecastUs, float64(time.Since(t0).Nanoseconds())/1000)
		if i+tau < len(day.Values) {
			relErr += math.Abs(forecast[tau-1]-day.Values[i+tau]) / day.Values[i+tau]
			relN++
		}
		load := append([]float64{actual * 1.15}, predictor.Inflate(forecast, 0.15)...)
		t0 = time.Now()
		plan, err := pl.BestMoves(load, machines)
		planMs = append(planMs, ms(time.Since(t0)))
		if err == nil {
			cost += plan.Cost
			if mv, ok := plan.FirstReconfiguration(); ok && mv.Start == 0 {
				machines = mv.To
			}
		} else {
			machines = min(pl.Model.MachinesFor(actual*1.15), 4) // infeasible: jump, as the emergency path does
		}
	}
	set("predictor.forecast_us", median(forecastUs))
	set("predictor.mre_pct", 100*relErr/float64(relN))
	set("planner.plan_ms", median(planMs))
	set("planner.plan_cost", cost/float64(len(day.Values)))

	var sched *migration.Schedule
	set("migration.schedule_us", perOp(200, func(int) { sched, err = migration.BuildSchedule(1, 4, 4) })/1000)
	if err != nil {
		return err
	}
	set("migration.rounds", float64(len(sched.Rounds)))
	return nil
}
