package main

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// metricDef names one metric; the tables below are the code's half of
// BENCHMARK.json (a test checks the two agree).
type metricDef struct {
	name string
	unit string
}

// endToEnd metrics are what a user of the deployed stack sees. Every one is
// emitted for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"goodput_tps", "1/s"},
	{"slo_ok_pct", "%"},
	{"avg_machines", "machines"},
}

// perLayer metrics explain the end-to-end ones. They come from the spans of
// the traced run, from counters polled outside the processes, from the
// ladder of spawned configurations and from in-process probes (layers.go).
var perLayer = []metricDef{
	{"gen.sched_late_p99_ms", "ms"}, {"gen.conn_wait_p50_ms", "ms"},
	{"gen.batch_size_p50", "count"}, {"gen.trace_overhead_pct", "%"},
	{"gen.p90_ms", "ms"}, {"gen.p99_ms", "ms"}, {"gen.retried", "count"},
	{"client.call_p50_ms", "ms"}, {"client.read_p50_ms", "ms"},
	{"client.write_p50_ms", "ms"}, {"client.transport_errors", "count"},
	{"wire.encode_req_ns", "ns"}, {"wire.decode_req_ns", "ns"}, {"wire.encode_resp_ns", "ns"},
	{"wire.frame_roundtrip_ns", "ns"}, {"wire.req_bytes", "bytes"},
	{"server.http_hop_us", "us"}, {"server.status_429", "count"}, {"server.status_5xx", "count"},
	{"transport.forward_share", "ratio"}, {"transport.forward_hop_us", "us"},
	{"transport.ship_async_us", "us"}, {"transport.sync_barrier_us", "us"},
	{"transport.ship_lag_rec_max", "count"},
	{"store.exec_ns", "ns"}, {"store.allocs_per_txn", "count"},
	{"store.queue_sojourn_max_ms", "ms"}, {"store.completed", "count"}, {"store.errored", "count"},
	{"b2w.load_ms", "ms"}, {"b2w.business_error_pct", "%"},
	{"wal.durable_hop_us", "us"}, {"wal.append_us_1", "us"}, {"wal.append_us_8", "us"},
	{"wal.records_per_fsync", "ratio"}, {"wal.bytes_per_txn", "bytes"},
	{"recovery.checkpoint_ms", "ms"}, {"recovery.cold_start_ms", "ms"}, {"recovery.replayed", "count"},
	{"workload.gen_ms", "ms"}, {"workload.arrivals", "count"},
	{"predictor.fit_ms", "ms"}, {"predictor.forecast_us", "us"}, {"predictor.mre_pct", "%"},
	{"planner.plan_ms", "ms"}, {"planner.plan_cost", "machines"},
	{"migration.schedule_us", "us"}, {"migration.rounds", "count"},
	{"elastic.decisions", "count"}, {"elastic.moves", "count"}, {"elastic.fallbacks", "count"},
	{"elastic.machine_share_of_peak", "ratio"},
	{"squall.chunks_moved", "count"}, {"squall.retries", "count"}, {"squall.aborts", "count"},
	{"squall.rows_per_s", "1/s"},
	{"cluster.move_ms_p50", "ms"}, {"cluster.move_failed", "count"},
	{"cluster.sla_violation_windows", "count"}, {"cluster.p99_in_move_ms", "ms"},
	{"cluster.recovery_ms", "ms"}, {"cluster.detect_ms", "ms"},
	{"cluster.promote_ms", "ms"}, {"cluster.rejoin_ms", "ms"},
}

// put stores one metric under its table unit; an unknown name is a bug.
func put(into map[string]metric, table []metricDef, name string, value float64) {
	for _, d := range table {
		if d.name == name {
			if math.IsNaN(value) || math.IsInf(value, 0) {
				value = 0
			}
			into[name] = metric{Value: value, Unit: d.unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

// latenciesMs returns the sorted latencies, in ms from the intended send
// time, of the requests keep selects.
func latenciesMs(reqs []*request, keep func(*request) bool) []float64 {
	var out []float64
	for _, r := range reqs {
		if keep(r) {
			out = append(out, ms(r.latency()))
		}
	}
	sort.Float64s(out)
	return out
}

// percentileOrLower is percentile for the metrics that explain and do not
// gate: where the sample is too small for p, it reads the highest rank that
// still has ten samples beyond it, and 0 where there is none.
func percentileOrLower(sorted []float64, p float64) float64 {
	if v, err := percentile(sorted, p); err == nil {
		return v
	}
	if len(sorted) < 11 {
		return 0
	}
	return sorted[len(sorted)-11]
}

// summarize turns the observation into the result's counts and metrics.
func summarize(res *result, obs *observation, trace bool) {
	reqs := obs.reqs
	res.Attempted = len(reqs)
	within := 0
	res.Statuses, res.Refusals = map[string]int{}, map[string]int{}
	for _, r := range reqs {
		res.Statuses[statusName(r.status)]++
		for _, status := range r.refused {
			res.Refusals[statusName(status)]++
		}
		if r.attempts > 1 {
			res.Retried++
		}
		switch {
		case !r.correct():
			res.Failed++
		case r.status == statusBusiness:
			res.BusinessErrors++
		}
		if r.correct() && ms(r.latency()) <= sloMs {
			within++
		}
	}
	if float64(res.Failed) > maxFailedShare*float64(res.Attempted) {
		res.problem("%d of %d requests failed (limit %g %%)", res.Failed, res.Attempted, 100*maxFailedShare)
	}
	lat := latenciesMs(reqs, (*request).correct)
	res.Samples = len(lat)
	p50, err := percentile(lat, 50)
	if err != nil {
		res.problem("p50_ms: %v", err)
	}
	res.P90Ms, res.P99Ms = percentileOrLower(lat, 90), percentileOrLower(lat, 99)
	elapsed := obs.end.Sub(obs.start).Seconds()
	avg, visited := machineTime(obs.w.machines, obs.moves, obs.start, obs.end)
	res.MachineCounts, res.Moves = visited, len(obs.moves)
	res.RecoveryMs = recoveryMs(obs)

	res.Metrics = map[string]metric{}
	put(res.Metrics, endToEnd, "setup_s", median(obs.setups))
	put(res.Metrics, endToEnd, "p50_ms", p50)
	put(res.Metrics, endToEnd, "goodput_tps", float64(within)/elapsed)
	put(res.Metrics, endToEnd, "slo_ok_pct", 100*float64(within)/float64(res.Attempted))
	put(res.Metrics, endToEnd, "avg_machines", avg)
	if trace {
		res.Layers = map[string]metric{}
		runLayers(res, obs, avg)
	}
}

// statusName names a reply class for the result's histogram.
func statusName(status int) string {
	switch status {
	case statusTransport:
		return "transport"
	case statusDeadline:
		return "deadline"
	case statusOK:
		return "ok"
	case statusBusiness:
		return "business"
	}
	return strconv.Itoa(status)
}

// recoveryMs is the time from the injected fault to the first later correct
// reply for a key the dead node owned; 0 when no fault was injected (or no
// such reply ever came, which the failed-request counts make visible).
func recoveryMs(obs *observation) float64 {
	if obs.killedAt == 0 {
		return 0
	}
	eng, err := newOracle()
	if err != nil {
		return 0
	}
	defer eng.Stop()
	first := time.Duration(0)
	for _, r := range obs.reqs {
		// Machine m lives on node m mod 2; the fault kills node 0.
		onDeadNode := eng.MachineOfPartition(eng.PartitionOfKey(r.key))%2 == 0
		if onDeadNode && r.correct() && r.due > obs.killedAt && (first == 0 || r.done < first) {
			first = r.done
		}
	}
	if first == 0 {
		return 0
	}
	return ms(first - obs.killedAt)
}

// runLayers fills the per-layer metrics that come from this run's spans,
// counters and events; the ladder and the probes (layers.go) add the rest.
func runLayers(res *result, obs *observation, avgMachines float64) {
	l := res.Layers
	set := func(name string, v float64) { put(l, perLayer, name, v) }

	var late, wait, batch, call, reads, writes []float64
	for _, r := range obs.reqs {
		if !r.traced {
			continue
		}
		late = append(late, ms(r.queued-r.due))
		wait = append(wait, ms(r.sent-r.queued))
		batch = append(batch, float64(r.batch))
		c := ms(r.done - r.sent)
		call = append(call, c)
		if r.write {
			writes = append(writes, c)
		} else {
			reads = append(reads, c)
		}
	}
	for _, s := range [][]float64{late, wait, batch, call, reads, writes} {
		sort.Float64s(s)
	}
	set("gen.sched_late_p99_ms", percentileOrLower(late, 99))
	set("gen.conn_wait_p50_ms", percentileOrLower(wait, 50))
	set("gen.batch_size_p50", percentileOrLower(batch, 50))
	traced := percentileOrLower(latenciesMs(obs.reqs, func(r *request) bool { return r.correct() && r.traced }), 50)
	untraced := percentileOrLower(latenciesMs(obs.reqs, func(r *request) bool { return r.correct() && !r.traced }), 50)
	set("gen.trace_overhead_pct", 100*(traced-untraced)/untraced)
	set("gen.p90_ms", res.P90Ms)
	set("gen.p99_ms", res.P99Ms)
	set("gen.retried", float64(res.Retried))
	set("client.call_p50_ms", percentileOrLower(call, 50))
	set("client.read_p50_ms", percentileOrLower(reads, 50))
	set("client.write_p50_ms", percentileOrLower(writes, 50))

	counts := map[int]int{} // attempts that brought no correct reply, by status
	for _, r := range obs.reqs {
		for _, status := range r.refused {
			counts[status]++
		}
	}
	set("client.transport_errors", float64(counts[statusTransport]))
	set("server.status_429", float64(counts[429]))
	set("server.status_5xx", float64(counts[500]+counts[503]+counts[504]))
	set("b2w.business_error_pct", 100*float64(res.BusinessErrors)/float64(res.Attempted))
	set("workload.arrivals", float64(res.Attempted))

	set("transport.forward_share", float64(obs.exit.forwarded)/float64(res.Attempted))
	set("transport.ship_lag_rec_max", float64(obs.lagMax))
	var completed, errored, sojourn int64
	for _, s := range obs.post {
		completed += s.Counters.Completed
		errored += s.Counters.Errored
		sojourn = max(sojourn, s.MaxSojournNs)
	}
	for _, s := range obs.pre {
		completed -= s.Counters.Completed
		errored -= s.Counters.Errored
	}
	set("store.completed", float64(completed))
	set("store.errored", float64(errored))
	set("store.queue_sojourn_max_ms", ms(time.Duration(sojourn)))
	set("wal.bytes_per_txn", float64(obs.postDisk-obs.preDisk)/float64(completed+errored))
	set("recovery.checkpoint_ms", obs.checkpointMs)
	set("recovery.cold_start_ms", obs.restart.coldStartMs)
	set("recovery.replayed", float64(obs.restart.replayed))

	var decisions, fallbacks, chunks, retried, rows int64
	if obs.coord != nil {
		cs := obs.coord.cluster.Stats()
		decisions, fallbacks = cs.Decisions, cs.Emergencies
		chunks, retried, rows = obs.coord.topo.chunks.Load(), obs.coord.topo.retried.Load(), obs.coord.topo.rows.Load()
	}
	var moveMs []float64
	moveSeconds, failedMoves := 0.0, 0
	for _, m := range obs.moves {
		if m.end.IsZero() {
			continue
		}
		moveSeconds += m.end.Sub(m.start).Seconds()
		if m.failed {
			failedMoves++
			continue
		}
		moveMs = append(moveMs, ms(m.end.Sub(m.start)))
	}
	set("elastic.decisions", float64(decisions))
	set("elastic.moves", float64(len(obs.moves)))
	set("elastic.fallbacks", float64(fallbacks))
	set("elastic.machine_share_of_peak", avgMachines/math.Ceil(obs.w.tps/modelQ))
	set("squall.chunks_moved", float64(chunks))
	set("squall.retries", float64(retried))
	set("squall.aborts", float64(failedMoves))
	set("squall.rows_per_s", float64(rows)/moveSeconds)
	set("cluster.move_ms_p50", median(moveMs))
	set("cluster.move_failed", float64(failedMoves))
	set("cluster.sla_violation_windows", float64(violationWindows(obs.reqs)))
	set("cluster.p99_in_move_ms", percentileOrLower(latenciesMs(obs.reqs, func(r *request) bool {
		return r.correct() && inMove(obs.moves, obs.start.Add(r.due))
	}), 99))
	set("cluster.recovery_ms", res.RecoveryMs)
	set("cluster.detect_ms", obs.failover.DetectMs)
	set("cluster.promote_ms", obs.failover.PromoteMs)
	set("cluster.rejoin_ms", obs.failover.RejoinMs)
}

// violationWindows counts the one-second windows (by intended send time)
// whose 99th-percentile latency exceeds the limit, a failed request counting
// as beyond it — Table 2's SLA-violation count.
func violationWindows(reqs []*request) int {
	windows := map[int][]float64{}
	for _, r := range reqs {
		v := math.Inf(1)
		if r.correct() {
			v = ms(r.latency())
		}
		w := int(r.due / time.Second)
		windows[w] = append(windows[w], v)
	}
	n := 0
	for _, lat := range windows {
		sort.Float64s(lat)
		if lat[nearestRank(len(lat), 99)] > sloMs {
			n++
		}
	}
	return n
}
