package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstore/internal/wire"
)

// stallingExecutor answers at once, except that its first call blocks for
// stall — a server that froze with requests queued behind it.
type stallingExecutor struct {
	stall time.Duration
	once  sync.Once
}

func (s *stallingExecutor) wait() { s.once.Do(func() { time.Sleep(s.stall) }) }

func (s *stallingExecutor) Execute(context.Context, string, string, any) (json.RawMessage, error) {
	s.wait()
	return nil, nil
}

func (s *stallingExecutor) ExecuteBatch(_ context.Context, reqs []wire.Request) ([]wire.Response, error) {
	s.wait()
	out := make([]wire.Response, len(reqs))
	for i := range out {
		out[i].Status = statusOK
	}
	return out, nil
}

// A request that was due while the connection was stalled must report the
// time it spent waiting for it: latency runs from the intended send time,
// not from the moment the request finally went out.
func TestLatencyCountsFromIntendedSendTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var reqs []*request
	for i := 0; i < 30; i++ {
		reqs = append(reqs, &request{id: i, due: time.Duration(i) * 10 * time.Millisecond, txn: "GetCart", key: "k"})
	}
	generate(context.Background(), time.Now(), reqs, []sender{{ex: &stallingExecutor{stall: stall}}}, nil)
	behind := 0
	for _, r := range reqs {
		if !r.correct() {
			t.Fatalf("request %d: status %d", r.id, r.status)
		}
		if r.due >= stall {
			continue
		}
		behind++
		if queued := stall - r.due; r.latency() < queued-5*time.Millisecond {
			t.Errorf("request due at %v reports %v, but it waited %v behind the stall", r.due, r.latency(), queued)
		}
	}
	if behind < 15 {
		t.Fatalf("only %d requests were due during the stall", behind)
	}
}

// refusingExecutor fails its first calls and answers the later ones.
type refusingExecutor struct {
	refuse atomic.Int64 // calls still to fail
}

func (e *refusingExecutor) Execute(context.Context, string, string, any) (json.RawMessage, error) {
	if e.refuse.Add(-1) >= 0 {
		return nil, errors.New("connection refused")
	}
	return nil, nil
}

func (e *refusingExecutor) ExecuteBatch(_ context.Context, reqs []wire.Request) ([]wire.Response, error) {
	if e.refuse.Add(-1) >= 0 {
		return nil, errors.New("connection refused")
	}
	out := make([]wire.Response, len(reqs))
	for i := range out {
		out[i].Status = statusOK
	}
	return out, nil
}

// An attempt that fails is made again after a back-off, the wait counts as
// latency, and a cancelled run ends although nothing was ever answered.
func TestFailedAttemptIsSentAgain(t *testing.T) {
	var reqs []*request
	for i := 0; i < 20; i++ {
		reqs = append(reqs, &request{id: i, due: time.Duration(i) * time.Millisecond, txn: "GetCart", key: "k"})
	}
	ex := &refusingExecutor{}
	ex.refuse.Store(3)
	generate(context.Background(), time.Now(), reqs, []sender{{ex: ex}}, nil)
	retried := 0
	for _, r := range reqs {
		if !r.correct() {
			t.Fatalf("request %d ended with status %d after %d attempts", r.id, r.status, r.attempts)
		}
		if r.attempts > 1 {
			retried++
			if len(r.refused) != r.attempts-1 || r.latency() < retryBackoff {
				t.Errorf("request %d: %d attempts, refusals %v, latency %v", r.id, r.attempts, r.refused, r.latency())
			}
		}
	}
	if retried == 0 {
		t.Error("three calls were refused and no request was sent twice")
	}

	ex.refuse.Store(1 << 40)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		generate(ctx, time.Now(), reqs, []sender{{ex: ex}}, nil)
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("the generator kept retrying after its context was cancelled")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	values := make([]float64, 999)
	for i := range values {
		values[i] = float64(i + 1)
	}
	if _, err := percentile(values, 99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and was not refused")
	}
	values = append(values, 1000)
	v, err := percentile(values, 99)
	if err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if v, err := percentile(values[:5], 50); err != nil || v != 3 {
		t.Errorf("p50 of 1..5 = %v, %v; want 3", v, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("a percentile of nothing was not refused")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	for i, pair := range [][2]float64{{q1, 3.5}, {q2, 13.5}, {q3, 31}} {
		if math.Abs(pair[0]-pair[1]) > 1e-9 {
			t.Errorf("quartile %d = %v, want %v", i+1, pair[0], pair[1])
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: 30..40 counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 2, Name: "a.child", Start: 10, End: 15},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 100 - (50 + 10), 2: 25, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	r := &request{id: 7, due: 5, queued: 6, sent: 9, done: 20, status: statusOK}
	rs := requestSpans(r, 1)
	if got := selfTimes(rs)[rs[0].ID]; got != 0 {
		t.Errorf("a request's children cover it exactly; root self time = %d", got)
	}
}

func TestMachineTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	moves := []move{
		{from: 1, to: 3, start: at(2), end: at(4)}, // scale-out: 3 machines from its start
		{from: 3, to: 2, start: at(6), end: at(8)}, // scale-in: 3 machines until its end
	}
	avg, visited := machineTime(1, moves, at(0), at(10))
	if want := (2*1 + 6*3 + 2*2) / 10.0; math.Abs(avg-want) > 1e-9 {
		t.Errorf("avg machines = %v, want %v", avg, want)
	}
	if len(visited) != 3 {
		t.Errorf("visited %v, want three counts", visited)
	}
}

func TestJudge(t *testing.T) {
	a := spread{Median: 10, SpreadPct: 2}
	for _, c := range []struct {
		b      spread
		lower  bool
		bound  float64
		label  string
		change float64
	}{
		{spread{Median: 10.5, SpreadPct: 2}, true, 0.10, "ok", 0.05},
		{spread{Median: 12, SpreadPct: 2}, true, 0.10, "worse", 0.2},
		{spread{Median: 8, SpreadPct: 2}, false, 0.10, "worse", 0.2},
		{spread{Median: 12, SpreadPct: 15}, true, 0.10, "unresolved", 0.2},
	} {
		label, change := judge(a, c.b, c.lower, c.bound)
		if label != c.label || math.Abs(change-c.change) > 1e-9 {
			t.Errorf("judge(%v) = %s %+.2f, want %s %+.2f", c.b, label, change, c.label, c.change)
		}
	}
}

// BENCHMARK.json and the code must name the same workloads and metrics.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars) does not match the code's %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the code", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || !name.MatchString(m.Name) {
			t.Errorf("end-to-end metric %d: %s [%s] does not match the code's %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the file, %d in the code", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !name.MatchString(m.Name) {
			t.Errorf("per-layer metric %d: %s [%s] does not match the code's %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// Every table entry is emitted: summarize fills all of them from an
// observation, and put panics on a name outside the tables.
func TestSummarizeEmitsEveryTableMetric(t *testing.T) {
	start := time.Now()
	obs := &observation{w: workloads[1], setups: []float64{1, 2, 3}, start: start, end: start.Add(time.Second)}
	for i := 0; i < 40; i++ {
		obs.reqs = append(obs.reqs, &request{id: i, due: time.Duration(i) * time.Millisecond,
			done: time.Duration(i+5) * time.Millisecond, status: statusOK, traced: i%2 == 1})
	}
	res := &result{Correct: true}
	summarize(res, obs, true)
	for _, d := range endToEnd {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("end-to-end metric %s was not emitted", d.name)
		}
	}
	// The ladder and the probes add the rest; runWorkload refuses a traced
	// run that leaves any table entry unmeasured.
	for _, name := range []string{"gen.sched_late_p99_ms", "client.call_p50_ms", "cluster.recovery_ms", "elastic.machine_share_of_peak"} {
		if _, ok := res.Layers[name]; !ok {
			t.Errorf("per-layer metric %s was not emitted", name)
		}
	}
	if got := res.Metrics["setup_s"].Value; got != 2 {
		t.Errorf("setup_s = %v, want the median 2", got)
	}
}

// A two-second open-loop run against one spawned node process: the whole
// path — build, spawn, readiness, generator, teardown — in miniature.
func TestSmokeOneNode(t *testing.T) {
	if err := os.Chdir(".."); err != nil { // the harness runs from the repository root
		t.Fatal(err)
	}
	defer os.Chdir("bench")
	dir := t.TempDir()
	bin, err := buildPstore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := startStack(bin, filepath.Join(dir, "data"), filepath.Join(dir, "logs"), stackPlain, 4, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.stop()
	reqs, err := schedule(constantRate(100, 2), time.Second, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	senders, closeSenders, err := newSenders([]string{st.nodes[0].url})
	if err != nil {
		t.Fatal(err)
	}
	defer closeSenders()
	generate(context.Background(), time.Now(), reqs, senders, nil)
	correct := 0
	for _, r := range reqs {
		if r.correct() {
			correct++
		}
	}
	if len(reqs) < 100 || correct < len(reqs)/2 { // lenient: the test may share the machine with the whole suite
		t.Fatalf("%d of %d requests were answered correctly", correct, len(reqs))
	}
	status, err := nodeStatus(st.nodes[0])
	if err != nil || status.WALError != "" || status.TotalRows == 0 {
		t.Fatalf("node status after the run: %+v, %v", status, err)
	}
	st.stop()
	if sum := readExitSummaries(st); sum.requests < int64(correct) {
		t.Errorf("the node's exit summary counts %d requests, the generator saw %d answered", sum.requests, correct)
	}
}
