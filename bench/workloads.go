package main

import (
	"fmt"
	"time"

	"pstore/internal/workload"
)

// workloadSpec is one named workload: a stack, a traffic shape and the
// reason it exists. The reasons are repeated in BENCHMARK.json.
type workloadSpec struct {
	name     string
	stack    string
	machines int     // the nodes' -machines
	tps      float64 // constant rate, or the diurnal day's peak minute
	diurnal  bool    // replay the trace day under the live controller
	writes   bool    // mutating procedures only, bench-unique stock-transaction keys
	entry    []int   // node ids the senders connect to
	killAt   float64 // share of the run after which node 0 is SIGKILLed; 0 = never
}

var workloads = []workloadSpec{
	{name: "diurnal_predictive", stack: stackPlain, machines: 1, tps: diurnalPeakTps, diurnal: true, entry: []int{0, 1}},
	{name: "steady_mixed", stack: stackAsync, machines: 4, tps: 600, entry: []int{0, 1}},
	{name: "steady_writes_sync", stack: stackSync, machines: 4, tps: 60, writes: true, entry: []int{0, 1}},
	{name: "failover_sync", stack: stackSync, machines: 4, tps: 100, writes: true, entry: []int{1}, killAt: 1.0 / 3},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// The diurnal day. The trace is generated once from a fixed seed so that
// every run replays the same day — as the paper replays one recorded day —
// and -seed varies only the Poisson arrival times, transactions and keys.
// With the day itself reseeded per run, a promotion spike or a quiet day
// would move avg_machines by more than any code change could.
const (
	traceSeed      = 1
	trainDays      = 28
	cycleMinutes   = 5    // controller cycle, in trace minutes
	diurnalPeakTps = 1800 // the day's peak minute; the trough is about a tenth

	// Capacity model per machine: 4 partitions ÷ 3 ms service time = 1 333
	// tps at saturation; Q̂ is 80 % of that and Q is 65 %.
	modelQ    = 867.0
	modelQMax = 1067.0

	// migrationDSeconds is D of the paper's migration model: the wall time
	// to move the whole 4 200-row database once with one sender/receiver
	// pair at Squall's default throttle, over the wire between two node
	// processes. Measured once when this benchmark was written (an idle
	// 1 -> 2 machine move took 0.30 s in five of five tries, and
	// T(1,2) = D/8; the 2 -> 1 move back took 0.69 s, which the symmetric
	// model does not know) and frozen, so that a change to migration speed
	// shows as latency during moves and not as a silently different plan.
	migrationDSeconds = 2.4
)

// diurnalDay is the trace the diurnal workload replays, in requests per
// second: train holds days 1-28 at the controller's 5-minute granularity,
// day holds day 29 per minute.
type diurnalDay struct {
	train []float64
	day   workload.Series
}

func loadDiurnalDay() (diurnalDay, error) {
	full, err := workload.SyntheticB2W(workload.DefaultB2WConfig(traceSeed, trainDays+1))
	if err != nil {
		return diurnalDay{}, err
	}
	split := trainDays * workload.MinutesPerDay
	day := full.Slice(split, full.Len())
	scaled := full.Scale(diurnalPeakTps / day.Max())
	train, err := scaled.Slice(0, split).Resample(cycleMinutes)
	if err != nil {
		return diurnalDay{}, err
	}
	return diurnalDay{train: train.Values, day: scaled.Slice(split, full.Len())}, nil
}

// traffic builds the run's requests for a workload lasting the given whole
// seconds.
func (w workloadSpec) traffic(seed int64, seconds int, day diurnalDay) ([]*request, error) {
	if w.diurnal {
		slot := time.Duration(seconds) * time.Second / workload.MinutesPerDay
		return schedule(day.day, slot, seed, false)
	}
	return schedule(constantRate(w.tps, seconds), time.Second, seed, w.writes)
}
