package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/client"
	"pstore/internal/store"
	"pstore/internal/wire"
)

// setupRounds is how many times a run sets its stack up: the first rounds
// are torn down again, the last one serves the timed run, and setup_s is the
// median of all of them, which is steadier than any single bring-up.
const setupRounds = 5

// maxFailedShare is the share of failed requests above which a workload is
// reported incorrect. A request fails only when retryBudget passes without a
// correct reply, so any failure at all means something is broken, not slow;
// the share leaves room for a handful on a machine that froze.
const maxFailedShare = 0.02

// env is what one harness invocation shares across its runs.
type env struct {
	bin     string // the built ./cmd/pstore
	workDir string // data directories (removed after each run)
	outDir  string // logs and span files (kept)
	day     diurnalDay
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload       string            `json:"workload"`
	Seed           int64             `json:"seed"`
	Seconds        int               `json:"seconds"`
	Correct        bool              `json:"correct"`
	Problems       []string          `json:"problems,omitempty"`
	Attempted      int               `json:"attempted"`
	Failed         int               `json:"failed"`
	BusinessErrors int               `json:"business_errors"`
	Retried        int               `json:"retried"`  // requests that needed more than one attempt
	Statuses       map[string]int    `json:"statuses"` // final reply class -> requests
	Refusals       map[string]int    `json:"refusals"` // reply class -> attempts that brought no correct reply
	Samples        int               `json:"samples"`  // correct replies behind the latency percentiles
	SloMs          float64           `json:"slo_ms"`
	P90Ms          float64           `json:"p90_ms"`
	P99Ms          float64           `json:"p99_ms"`
	RecoveryMs     float64           `json:"recovery_ms"`
	AckedLost      int               `json:"acked_lost"`
	MachineCounts  []int             `json:"machine_counts"`
	Moves          int               `json:"moves"`
	Metrics        map[string]metric `json:"metrics"`
	Layers         map[string]metric `json:"per_layer,omitempty"`
}

func (r *result) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// observation is what the run leaves behind for the metrics: the requests
// with their outcomes, the spans, and everything polled from outside.
type observation struct {
	w        workloadSpec
	setups   []float64
	reqs     []*request
	spans    []span
	start    time.Time
	end      time.Time
	killedAt time.Duration // 0 = no fault injected
	moves    []move
	coord    *coordinator
	failover failoverOutcome
	pre      []wire.NodeStatus
	post     []wire.NodeStatus // the current primary of every node slot
	preDisk  int64
	postDisk int64
	lagMax   int64
	// checkpointMs times POST /v1/node/checkpoint on node 0's loaded
	// primary after the run (traced runs only).
	checkpointMs float64
	exit         exitSummary
	restart      restartSummary
}

// runWorkload sets the stack up, replays the workload's traffic for the
// given seconds, audits the outcome and tears everything down.
func runWorkload(ctx context.Context, e *env, w workloadSpec, seed int64, seconds int, trace bool) (*result, error) {
	reqs, err := w.traffic(seed, seconds, e.day)
	if err != nil {
		return nil, err
	}
	runDir := filepath.Join(e.workDir, w.name)
	logDir := filepath.Join(e.outDir, w.name)
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	obs := &observation{w: w, reqs: reqs}
	var st *stack
	for i := 0; i < setupRounds; i++ {
		if st != nil {
			st.stop()
		}
		t0 := time.Now()
		st, err = startStack(e.bin, filepath.Join(runDir, fmt.Sprintf("setup%d", i)), logDir, w.stack, w.machines, 2, true)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		obs.setups = append(obs.setups, time.Since(t0).Seconds())
		setCurrentStack(st)
	}
	defer st.stop()

	if obs.pre, err = primaryStatuses(st.nodes); err != nil {
		return nil, err
	}
	obs.preDisk = dataBytes(st)

	var targets []string
	for _, id := range w.entry {
		targets = append(targets, st.nodes[id].url)
	}
	senders, closeSenders, err := newSenders(targets)
	if err != nil {
		return nil, err
	}
	defer closeSenders()

	var watcher *proc
	var watching time.Time
	if w.killAt > 0 {
		if watcher, err = startFailoverWatch(ctx, st); err != nil {
			return nil, err
		}
		watching = time.Now()
	}
	if w.diurnal {
		if obs.coord, err = startCoordinator(ctx, st, e.day, seconds); err != nil {
			return nil, err
		}
	}

	pollCtx, stopPoll := context.WithCancel(ctx)
	var poll sync.WaitGroup
	poll.Add(1)
	go func() {
		defer poll.Done()
		obs.lagMax = pollShipLag(pollCtx, st)
	}()

	var tracedAt func(time.Duration) bool
	if trace {
		// Odd seconds are traced and even ones are not, so one run yields
		// both the spans and the cost of recording them.
		tracedAt = func(due time.Duration) bool { return int(due/time.Second)%2 == 1 }
	}
	obs.start = time.Now()
	killed := make(chan struct{})
	var killer *time.Timer
	if w.killAt > 0 {
		at := time.Duration(w.killAt * float64(seconds) * float64(time.Second))
		killer = time.AfterFunc(at, func() {
			defer close(killed)
			obs.killedAt = time.Since(obs.start)
			st.nodes[0].kill()
		})
	}
	obs.spans = generate(ctx, obs.start, reqs, senders, tracedAt)
	obs.end = time.Now()
	if killer != nil && !killer.Stop() {
		<-killed
	}
	stopPoll()
	poll.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if obs.coord != nil {
		obs.moves = obs.coord.stop()
	}

	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Correct: true, SloMs: sloMs}
	primaries := st.nodes
	if watcher != nil {
		if obs.failover, err = awaitFailover(watcher); err != nil {
			res.problem("failover: %v", err)
		} else {
			// coord counts detection from the start of its watch; the fault
			// came later.
			obs.failover.DetectMs -= ms(obs.start.Add(obs.killedAt).Sub(watching))
			// Node 0's slot is now served by its promoted follower, whose
			// counters start from its own life, not from node 0's.
			obs.pre[0].Counters = store.Counters{}
			primaries = []*proc{st.followers[0], st.nodes[1]}
			res.AckedLost = auditAcked(ctx, res, reqs, st.followers[0].url)
		}
	}
	if obs.post, err = primaryStatuses(primaries); err != nil {
		res.problem("post-run status: %v", err)
	}
	obs.postDisk = dataBytes(st)
	checkStack(res, st, obs)
	if trace {
		var rows wire.NodeRows
		t0 := time.Now()
		if err := postJSON(primaries[0].url+wire.PathNodeCheckpoint, &rows); err != nil {
			res.problem("checkpoint: %v", err)
		}
		obs.checkpointMs = ms(time.Since(t0))
	}

	st.stop()
	obs.exit = readExitSummaries(st)
	obs.restart = readRestart(st)
	summarize(res, obs, trace)
	if trace {
		if err := writeSpans(filepath.Join(e.outDir, "trace-"+w.name+".json"), obs.spans); err != nil {
			return nil, err
		}
		set := func(name string, v float64) { put(res.Layers, perLayer, name, v) }
		r0Ms, err := measureLadder(ctx, e, seed, set)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		if err := measureProbes(e, r0Ms, reqs, set); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		for _, d := range perLayer {
			if _, ok := res.Layers[d.name]; !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
			}
		}
	}
	return res, nil
}

// primaryStatuses reads /v1/node/status from each process.
func primaryStatuses(procs []*proc) ([]wire.NodeStatus, error) {
	out := make([]wire.NodeStatus, len(procs))
	for i, p := range procs {
		st, err := nodeStatus(p)
		if err != nil {
			return nil, fmt.Errorf("%s status: %w", p.name, err)
		}
		out[i] = st
	}
	return out, nil
}

// dataBytes sizes the primaries' data directories.
func dataBytes(st *stack) int64 {
	var n int64
	for _, p := range st.nodes {
		n += dirBytes(p.dataDir)
	}
	return n
}

// pollShipLag samples, ten times a second, how many records each follower's
// applied cursor trails its primary's durable cursor, and returns the worst.
// Cursors in different segments are compared by the primary's record count
// in its current segment, a lower bound.
func pollShipLag(ctx context.Context, st *stack) int64 {
	var worst int64
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return worst
		case <-tick.C:
		}
		for i, f := range st.followers {
			ps, perr := replStatus(st.nodes[i])
			fs, ferr := replStatus(f)
			if perr != nil || ferr != nil || fs.Role != "replica" {
				continue // a killed primary or a promoted follower has no lag to report
			}
			lag := int64(ps.Durable.Rec)
			if ps.Durable.Seg == fs.Applied.Seg {
				lag -= int64(fs.Applied.Rec)
			}
			worst = max(worst, lag)
		}
	}
}

// startFailoverWatch runs `pstore coord -failover 0` against the stack: it
// probes node 0 every 50 ms, declares it dead after 20 misses, promotes its
// follower, restarts the node from its own data directory and rejoins it as
// a follower. The call returns once coord reports that it is watching.
func startFailoverWatch(ctx context.Context, st *stack) (*proc, error) {
	n0 := st.nodes[0]
	quoted := []string{"exec", shellQuote(st.bin)}
	for _, a := range n0.args {
		quoted = append(quoted, shellQuote(a))
	}
	restartLog := filepath.Join(st.logDir, "n0-restart")
	quoted = append(quoted, ">"+shellQuote(restartLog+".out"), "2>"+shellQuote(restartLog+".err"))
	p, err := st.start("coord", []string{"coord",
		"-peers", st.nodes[0].url + "," + st.nodes[1].url,
		"-failover", "0", "-probe", "50ms", "-fail-after", "20",
		"-promote", st.followers[0].url,
		"-restart-cmd", strings.Join(quoted, " ")})
	if err != nil {
		return nil, err
	}
	st.extra = append(st.extra, p)
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		if b, _ := os.ReadFile(p.errPath); strings.Contains(string(b), "coord: watching node") {
			return p, nil
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("coord exited before watching (see %s)", p.errPath)
		case <-wctx.Done():
			return nil, fmt.Errorf("coord never started watching: %w", wctx.Err())
		case <-time.After(pollEvery):
		}
	}
}

func shellQuote(s string) string { return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'" }

// failoverOutcome is coord's machine-readable "failover-outcome" line.
type failoverOutcome struct {
	Action    string  `json:"action"`
	DetectMs  float64 `json:"detect_ms"`
	PromoteMs float64 `json:"promote_ms"`
	RestartMs float64 `json:"restart_ms"`
	RejoinMs  float64 `json:"rejoin_ms"`
}

// awaitFailover waits for coord to finish its recovery action and parses the
// outcome it printed.
func awaitFailover(p *proc) (failoverOutcome, error) {
	var out failoverOutcome
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		return out, fmt.Errorf("coord still running 30 s after the run (see %s)", p.errPath)
	}
	b, err := os.ReadFile(p.outPath)
	if err != nil {
		return out, err
	}
	const marker = "coord: failover-outcome "
	i := strings.Index(string(b), marker)
	if i < 0 {
		return out, fmt.Errorf("coord printed no failover-outcome (see %s)", p.errPath)
	}
	line, _, _ := strings.Cut(string(b[i+len(marker):]), "\n")
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		return out, fmt.Errorf("parsing failover-outcome %q: %w", line, err)
	}
	return out, nil
}

// auditAcked reads back, from the promoted node, every bench-unique stock
// transaction whose creation the generator saw acknowledged, and returns how
// many are missing. Under -sync-commit that number must be zero.
func auditAcked(ctx context.Context, res *result, reqs []*request, url string) int {
	var gets []wire.Request
	for _, r := range reqs {
		if r.unique && r.status == statusOK {
			gets = append(gets, wire.Request{Txn: b2w.TxnGetStockTransaction, Key: r.key})
		}
	}
	c, err := client.New(client.Config{Addr: url, MaxInFlight: 1, Deadline: 10 * time.Second})
	if err != nil {
		res.problem("acked audit: %v", err)
		return 0
	}
	defer c.Close()
	lost := 0
	for len(gets) > 0 {
		n := min(len(gets), maxBatch)
		resps, err := c.ExecuteBatch(ctx, gets[:n])
		if err != nil {
			res.problem("acked audit: %v", err)
			return lost
		}
		for i, resp := range resps {
			if resp.Status != statusOK || len(resp.Value) == 0 || string(resp.Value) == "null" {
				lost++
				res.problem("acked_lost: %s was acknowledged but is gone (status %d %s)", gets[i].Key, resp.Status, resp.Error)
			}
		}
		gets = gets[n:]
	}
	return lost
}

// checkStack runs the correctness checks that read node state from outside.
func checkStack(res *result, st *stack, obs *observation) {
	for i, s := range obs.post {
		if s.WALError != "" {
			res.problem("node %d reports wal_error: %s", i, s.WALError)
		}
	}
	if obs.w.diurnal {
		if err := checkAgreement(st); err != nil {
			res.problem("%v", err)
		}
	}
	if len(obs.post) == 0 {
		return
	}
	before, after := 0, 0
	for _, s := range obs.pre {
		before += s.TotalRows
	}
	for _, s := range obs.post {
		after += s.TotalRows
	}
	want, slack, err := expectedRowDelta(obs.reqs)
	if err != nil {
		res.problem("row oracle: %v", err)
		return
	}
	if got := after - before; got < want-slack || got > want+slack {
		res.problem("total_rows moved by %d over the run, the run's own inserts and deletes account for %d (±%d)", got, want, slack)
	}
}

// newOracle is an in-process engine with the nodes' geometry and dataset,
// all four machines active and no service time. It answers which partition
// a key hashes to and replays requests for the row audit.
func newOracle() (*store.Engine, error) {
	eng, err := store.NewEngine(store.Config{MaxMachines: 4, PartitionsPerMachine: 4,
		Buckets: 640, QueueCapacity: 1 << 10, InitialMachines: 4})
	if err != nil {
		return nil, err
	}
	if err := b2w.Register(eng); err != nil {
		return nil, err
	}
	eng.Start()
	if err := b2w.Load(eng, nodeSpec); err != nil {
		eng.Stop()
		return nil, err
	}
	return eng, nil
}

// expectedRowDelta replays the run's correctly answered requests, in reply
// order, through the oracle and returns by how many rows the dataset should
// have changed. A failed request has an unknown outcome, a request that was
// sent more than once may have run more than once, and two requests that
// overlapped in time on one key may have run in either order; each such
// request that can create or delete a row widens the slack by one.
func expectedRowDelta(reqs []*request) (delta, slack int, err error) {
	eng, err := newOracle()
	if err != nil {
		return 0, 0, err
	}
	defer eng.Stop()
	before := eng.TotalRows()
	order := append([]*request(nil), reqs...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].done < order[j].done })
	lastDone := map[string]time.Duration{}
	for _, r := range order {
		if !rowChanging[r.txn] {
			continue
		}
		if !r.correct() {
			slack++
			continue
		}
		if prev, ok := lastDone[r.key]; r.attempts > 1 || (ok && r.sent < prev) {
			slack++ // an earlier attempt may have run too
		}
		lastDone[r.key] = r.done
		// A business error leaves the rows as they were, here as there.
		_, _ = eng.Execute(r.txn, r.key, r.args)
	}
	return eng.TotalRows() - before, slack, nil
}

// rowChanging lists the procedures that can create or delete a row.
var rowChanging = map[string]bool{
	b2w.TxnAddLineToCart: true, b2w.TxnDeleteCart: true, b2w.TxnCreateStockTransaction: true,
	b2w.TxnCreateCheckout: true, b2w.TxnDeleteCheckout: true,
}

// exitSummary is what the nodes print when they stop: the transactions that
// arrived (one per single request, one per batch frame) and how many of them
// were relayed to the hosting peer.
type exitSummary struct {
	requests  int64
	forwarded int64
}

var wireLine = regexp.MustCompile(`^wire: (\d+) requests in (\d+) frames .* (\d+) forwarded`)

// readExitSummaries parses the "wire: … forwarded" line every primary prints
// on a graceful stop. A node that was SIGKILLed printed none.
func readExitSummaries(st *stack) exitSummary {
	var sum exitSummary
	paths := []string{filepath.Join(st.logDir, "n0-restart.out")}
	for _, p := range append(append([]*proc(nil), st.nodes...), st.followers...) {
		paths = append(paths, p.outPath)
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if m := wireLine.FindStringSubmatch(sc.Text()); m != nil {
				single, _ := strconv.ParseInt(m[1], 10, 64)
				frames, _ := strconv.ParseInt(m[2], 10, 64)
				fw, _ := strconv.ParseInt(m[3], 10, 64)
				sum.requests += single + frames
				sum.forwarded += fw
			}
		}
		f.Close()
	}
	return sum
}

// restartSummary is the restarted node's cold-start log line.
type restartSummary struct {
	coldStartMs float64
	replayed    int
}

var coldStartLine = regexp.MustCompile(`cold start rebuilt .* (\d+) commands replayed, .* in ([0-9.]+[a-zµ]+)`)

func readRestart(st *stack) restartSummary {
	var out restartSummary
	b, err := os.ReadFile(filepath.Join(st.logDir, "n0-restart.err"))
	if err != nil {
		return out
	}
	if m := coldStartLine.FindSubmatch(b); m != nil {
		out.replayed, _ = strconv.Atoi(string(m[1]))
		if d, err := time.ParseDuration(string(m[2])); err == nil {
			out.coldStartMs = ms(d)
		}
	}
	return out
}

// writeSpans writes the traced run's spans as one JSON document.
func writeSpans(path string, spans []span) error {
	self := selfTimes(spans)
	type spanOut struct {
		span
		SelfNs time.Duration `json:"self_ns"`
	}
	out := make([]spanOut, len(spans))
	for i, s := range spans {
		out[i] = spanOut{span: s, SelfNs: self[s.ID]}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
