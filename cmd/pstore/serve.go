package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/cluster"
	"pstore/internal/elastic"
	"pstore/internal/faults"
	"pstore/internal/metrics"
	"pstore/internal/migration"
	"pstore/internal/node"
	"pstore/internal/recovery"
	"pstore/internal/server"
	"pstore/internal/squall"
	"pstore/internal/store"
	"pstore/internal/transport"
	"pstore/internal/workload"
)

// serveInfo is the trace contract a listening server publishes at /v1/info:
// everything a separate driver process needs to regenerate the exact same
// replay (series, pacing, key pools) without sharing any files with the
// server. Both serve and drive derive their workload from these fields, so
// the two processes stay in lockstep by construction.
type serveInfo struct {
	Seed         int64   `json:"seed"`
	Days         int     `json:"days"`
	MinuteMs     float64 `json:"minute_ms"`
	RateScale    float64 `json:"rate_scale"`
	DeadlineMs   float64 `json:"deadline_ms"`
	Carts        int     `json:"carts"`
	Checkouts    int     `json:"checkouts"`
	Stocks       int     `json:"stocks"`
	LinesPerCart int     `json:"lines_per_cart"`
	// The armed fault schedule and overload plane, as their canonical spec
	// strings, so a driver (or an operator with curl) can see exactly what
	// a server is running without access to its command line.
	Faults   string `json:"faults,omitempty"`
	Overload string `json:"overload,omitempty"`
	// Node identity in multi-process mode; Nodes is 0 on a single-process
	// server.
	Node  int `json:"node,omitempty"`
	Nodes int `json:"nodes,omitempty"`
}

// infoFunc is a /v1/info payload encoded when a driver asks for it.
type infoFunc func() ([]byte, error)

func (f infoFunc) MarshalJSON() ([]byte, error) { return f() }

// capacityScale is the one derivation of a machine's capacity both serve modes
// size their trace by: Q-hat, 80 % of its partitions' raw service rate, and
// the rate scale that makes the replay's peak minute demand ~3/4 of maxM such
// machines.
func capacityScale(cfg store.Config, maxM int, minute time.Duration, peak float64) (perMachine, rateScale float64) {
	perMachine = 0.8 * float64(cfg.PartitionsPerMachine) / cfg.ServiceTime.Seconds()
	return perMachine, 0.75 * float64(maxM) * perMachine * minute.Seconds() / peak
}

func runServe(args []string) error {
	fs := newFlagSet("serve")
	days := fs.Int("days", 1, "days to replay after the 28-day training window")
	policy := fs.String("controller", "pstore", "provisioning controller: pstore, reactive, static")
	initial := fs.Int("machines", 2, "initial machine count")
	maxM := fs.Int("max", 8, "maximum machine count")
	minute := fs.Duration("minute", 10*time.Millisecond, "wall time per trace minute")
	cycleMin := fs.Int("cycle", 5, "controller cycle in trace minutes")
	seed := fs.Int64("seed", 1, "random seed")
	sloMs := fs.Float64("slo", 40, "latency SLO in ms on this substrate")
	faultSpec := fs.String("faults", "", "fault schedule, e.g. seed=42,chunk-drop=0.05,crash=1@8+6; single-process: chunk keys (chunk-drop, chunk-slow, slow-delay, stall, stall-delay, crash-pair=F:T, crash-part=N) and crash keys (crash-rate, crash-downtime, crash=M@T[+D] in controller cycles); with -node: ship keys only (ship-drop, ship-dup, ship-reorder, ship-delay, ship-delay-for, ship-partition, heal-after)")
	ckptEvery := fs.Int("checkpoint-every", 0, "checkpoint the recovery command log every N controller cycles (0 = 10 when crash faults are armed)")
	dataDir := fs.String("data-dir", "", "durable storage directory: command log becomes an on-disk WAL with checkpoint images; an existing directory cold-starts the engine from disk instead of loading fresh data")
	deadline := fs.Duration("deadline", 0, "per-request deadline arming admission control and queue-deadline enforcement (0 = off)")
	overloadSpec := fs.String("overload", "", "overload-plane spec, e.g. deadline=50ms,target=5ms,interval=100ms (shorthand: -deadline)")
	listen := fs.String("listen", "", "serve remote clients on this address (host:port) instead of driving the trace in-process")
	serveFor := fs.Duration("serve-for", 0, "with -listen: stop after this long (0 = until SIGINT/SIGTERM or POST /v1/shutdown)")
	quiet := fs.Bool("quiet", false, "suppress the live event log")
	nodeID := fs.Int("node", -1, "run as node N of a multi-process cluster (requires -nodes and -listen; migration and crashes are driven by pstore coord)")
	nodes := fs.Int("nodes", 0, "total node count in multi-process mode")
	peerList := fs.String("peers", "", "comma-separated node base URLs in node-id order, for forwarding transactions to the hosting node")
	replicaOf := fs.String("replica-of", "", "node mode: start as a warm follower of the primary at this base URL — sync a snapshot, apply its shipped WAL, refuse client transactions until promoted via /v1/repl/promote")
	advertise := fs.String("advertise", "", "node mode: base URL the primary and peers use to reach this process (default derives from -listen)")
	syncCommit := fs.Bool("sync-commit", false, "node mode: acknowledge a transaction only after its WAL record is durable on the follower too (RPO zero for acked transactions; adds one ship round trip to commit latency)")
	followerCkpt := fs.Int("follower-checkpoint-every", 0, "node mode: as a replica, checkpoint the local WAL every N accepted records so a promotion starts from a compact log (0 = off)")
	if helped, err := parseFlags(fs, args); helped || err != nil {
		return err
	}
	if *days < 1 || *initial < 1 || *maxM < *initial || *cycleMin < 1 || *minute <= 0 {
		return errors.New("invalid sizing flags")
	}
	nodeMode := *nodeID >= 0
	if !nodeMode && (*replicaOf != "" || *syncCommit || *followerCkpt != 0) {
		return errors.New("-replica-of, -sync-commit and -follower-checkpoint-every require node mode (-node)")
	}
	if *followerCkpt < 0 {
		return errors.New("-follower-checkpoint-every must be non-negative")
	}
	sched, err := faults.Parse(*faultSpec)
	if err != nil {
		return err
	}
	var peers []string
	if nodeMode {
		if err := sched.Only(faults.ShipPlane); err != nil {
			return fmt.Errorf("%w: serve -node injects ship faults only; chunk, link and crash faults belong to pstore coord", err)
		}
		switch {
		case *nodes < 1:
			return errors.New("-node requires -nodes >= 1")
		case *nodeID >= *nodes:
			return fmt.Errorf("-node %d out of range for -nodes %d", *nodeID, *nodes)
		case *listen == "":
			return errors.New("-node requires -listen")
		}
		if *peerList != "" {
			peers = strings.Split(*peerList, ",")
			if len(peers) != *nodes {
				return fmt.Errorf("-peers lists %d URLs, want %d (one per node, in node-id order)", len(peers), *nodes)
			}
		}
	}

	olCfg, err := store.ParseOverload(*overloadSpec)
	if err != nil {
		return err
	}
	if *deadline < 0 {
		return fmt.Errorf("negative -deadline %v", *deadline)
	}
	if *deadline > 0 {
		olCfg.Deadline = *deadline
	}
	engCfg := deployedEngine(*maxM, *initial)
	engCfg.Overload = olCfg
	spec := deployedDataset(*seed)
	info := serveInfo{
		Seed: *seed, Days: *days,
		MinuteMs:     float64(*minute) / float64(time.Millisecond),
		DeadlineMs:   float64(olCfg.Deadline) / float64(time.Millisecond),
		Carts:        spec.Carts,
		Checkouts:    spec.Checkouts,
		Stocks:       spec.Stocks,
		LinesPerCart: spec.LinesPerCart,
	}
	if olCfg.Enabled() {
		info.Overload = olCfg.String()
		fmt.Fprintf(os.Stderr, "serve: overload plane armed: %s\n", olCfg)
	}
	// Both modes open a node: one of -nodes hosting its share of the machines,
	// or the only one, hosting all of them.
	ncfg := node.Config{
		Store:    engCfg,
		Register: b2w.Register,
		Load:     func(eng *store.Engine) error { return b2w.Load(eng, spec) },
		Recovery: recovery.Config{DataDir: *dataDir},
	}
	if nodeMode {
		ncfg.ID, ncfg.Nodes, ncfg.Peers = *nodeID, *nodes, peers
		ncfg.ReplicaOf, ncfg.Advertise = *replicaOf, advertiseURL(*advertise, *listen)
		ncfg.SyncCommit, ncfg.FollowerCheckpointEvery = *syncCommit, *followerCkpt
		if sched.Arms(faults.ShipPlane) {
			ncfg.Faults = sched
			fmt.Fprintf(os.Stderr, "serve: ship-fault schedule armed: %s\n", sched)
		}
		if *syncCommit {
			fmt.Fprintf(os.Stderr, "serve: synchronous commit armed: acks wait for follower durability once a follower syncs\n")
		}
		info.Node, info.Nodes = *nodeID, *nodes
		// The trace contract is the one single-process serve publishes, so a
		// drive process pointed at any node replays the same workload. Only a
		// driver reads it, so the month of trace behind its rate scale is
		// generated on the first request, not at every start.
		ncfg.Info = infoFunc(sync.OnceValues(func() ([]byte, error) {
			full, err := workload.SyntheticB2W(workload.DefaultB2WConfig(*seed, 28+*days))
			if err != nil {
				return nil, err
			}
			_, info.RateScale = capacityScale(engCfg, *maxM, *minute, full.Slice(28*workload.MinutesPerDay, full.Len()).Max())
			return json.Marshal(info)
		}))
		return runServeNode(ncfg, *listen, *serveFor)
	}

	// Training month plus the replayed day(s).
	full, err := workload.SyntheticB2W(workload.DefaultB2WConfig(*seed, 28+*days))
	if err != nil {
		return err
	}
	train := full.Slice(0, 28*workload.MinutesPerDay)
	replay := full.Slice(28*workload.MinutesPerDay, full.Len())
	perMachine, rateScale := capacityScale(engCfg, *maxM, *minute, replay.Max())
	qMax := perMachine * minute.Seconds() / rateScale
	model := migration.Model{Q: 0.65 / 0.8 * qMax, QMax: qMax, D: 10, P: engCfg.PartitionsPerMachine}

	var ctrl elastic.Controller
	switch *policy {
	case "pstore":
		if ctrl, err = elastic.NewPStore(model, train, *cycleMin, *maxM, elastic.SpikeFastRate); err != nil {
			return err
		}
	case "reactive":
		ctrl = &elastic.Reactive{Model: model, MaxMachines: *maxM}
	case "static":
		ctrl = nil
	default:
		return fmt.Errorf("unknown controller %q", *policy)
	}

	if len(sched.Events) > 0 {
		info.Faults = sched.String()
		fmt.Fprintf(os.Stderr, "serve: fault schedule armed: %s\n", sched)
	}
	info.RateScale = rateScale
	ncfg.Info = info
	n, err := node.Open(ncfg)
	if err != nil {
		return err
	}
	defer n.Close()
	rec, err := metrics.NewRecorder(time.Now(), 300*time.Millisecond)
	if err != nil {
		return err
	}
	n.Engine.SetRecorder(rec)
	c, err := cluster.NewRemote(cluster.Config{
		Squall:            squall.DefaultConfig(),
		Controller:        ctrl,
		Cycle:             time.Duration(*cycleMin) * *minute,
		RateScale:         rateScale,
		CycleTraceMinutes: float64(*cycleMin),
		Recorder:          rec,
		Faults:            sched,
		CheckpointEvery:   *ckptEvery,
	}, transport.NewLocal(n.Engine, n.Recovery))
	if err != nil {
		return err
	}

	events, unsubscribe := c.Subscribe(4096)
	defer unsubscribe()
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		for e := range events {
			switch e.(type) {
			case cluster.LoadObserved:
				// Per-cycle observations are too chatty for the log.
			default:
				if !*quiet {
					fmt.Fprintf(os.Stderr, "serve: %v\n", e)
				}
			}
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		return err
	}
	defer c.Stop()
	start := time.Now()

	var stats b2w.Stats
	if *listen != "" {
		err = serveListening(ctx, n, *listen, *serveFor)
	} else {
		driver := &b2w.Driver{Eng: n.Engine, Spec: spec, Seed: *seed + 1}
		fmt.Fprintf(os.Stderr, "serve: replaying %d day(s) (1 trace minute = %v) under %q on up to %d machines\n",
			*days, *minute, *policy, *maxM)
		stats, err = driver.Run(ctx, replay, *minute, rateScale)
	}
	c.Stop()
	watch.Wait()
	_ = n.Close() // everything acknowledged is already in the log; its latched error is printed below
	if err != nil && ctx.Err() == nil {
		return err
	}

	cs := c.Stats()
	var sc *server.Counters
	if *listen != "" {
		counters := n.Server.Counters()
		sc = &counters
		fmt.Printf("wire: %d requests in %d frames (%d streams): %d ok, %d txn-errors, %d bad-requests, %d internal\n",
			sc.Requests, sc.Frames, sc.Streams, sc.OK, sc.TxnErrors, sc.BadRequests, sc.Internal)
		ec := n.Engine.Counters()
		fmt.Printf("served %d transactions (%d failed) in %v\n",
			ec.Completed, ec.Errored, time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Printf("served %d transactions (%d failed) in %v\n",
			stats.Executed, stats.Failed, time.Since(start).Round(time.Millisecond))
	}
	printRefusedSummary(n.Engine, stats.Shed, sc, olCfg.Enabled())
	fmt.Printf("SLA violations (>%g ms): p50 %d, p95 %d, p99 %d\n",
		*sloMs, rec.SLAViolations(50, *sloMs), rec.SLAViolations(95, *sloMs), rec.SLAViolations(99, *sloMs))
	fmt.Printf("machines: avg %.2f (initial %d, max %d)\n", rec.AverageMachines(), *initial, *maxM)
	fmt.Printf("controller: %d decisions, %d moves (%d emergency), %d failures\n",
		cs.Decisions, cs.Moves, cs.Emergencies, cs.Failures)
	fmt.Printf("migration: %d chunk retries, %d aborts, %d chunks rolled back\n",
		cs.Migration.Retries, cs.Migration.Aborts, cs.Migration.RollbackChunks)
	printRecoverySummary(n.Recovery)
	if sched.Arms(faults.ChunkPlane) {
		fst := sched.Stats()
		fmt.Printf("faults: %d chunk sends offered, %d dropped, %d crashed, %d slowed, %d stalled\n",
			fst.Offered[faults.ChunkPlane], fst.Fired[faults.ChunkDrop], fst.Fired[faults.CrashPair]+fst.Fired[faults.CrashPart],
			fst.Fired[faults.ChunkSlow], fst.Fired[faults.Stall])
	}
	return nil
}

// serveListening serves an opened single-process node on addr to remote
// clients until waitServing returns.
func serveListening(ctx context.Context, n *node.Node, addr string, serveFor time.Duration) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	n.Serve(l)
	return waitServing(ctx, n.Server, l.Addr(), serveFor)
}

// advertiseURL derives the base URL peers use to reach a node: the explicit
// -advertise flag, or the listen address with a loopback host filled in when
// it only names a port.
func advertiseURL(advertise, listen string) string {
	switch {
	case advertise != "":
		return advertise
	case strings.HasPrefix(listen, ":"):
		return "http://127.0.0.1" + listen
	}
	return "http://" + listen
}

// printRecoverySummary prints a serve summary's recovery line, if there was
// recovery work, and a durable log's size and any error it latched.
func printRecoverySummary(rm *recovery.Manager) {
	if rs := rm.Stats(); rs.Crashes > 0 || rs.Checkpoints > 1 {
		fmt.Printf("recovery: %d crashes, %d recoveries, %d commands replayed (max lag %d), downtime %v, %d checkpoints\n",
			rs.Crashes, rs.Recoveries, rs.ReplayedCommands, rs.MaxReplayLag,
			rs.Downtime.Round(time.Millisecond), rs.Checkpoints)
	}
	if rm.Durable() {
		fmt.Printf("durable log: %d records retained, %s on disk\n", rm.LogSize(), node.ByteCount(rm.LogBytes()))
		if err := rm.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "serve: WARNING: durable log latched an error: %v\n", err)
		}
	}
}

// printRefusedSummary prints one refused-work total across the whole stack:
// the driver's in-flight cap (clientShed) and the engine's
// admission/shed/deadline defenses, with the wire front end's view of the
// same refusals (429, 504, 503) alongside when a server ran.
func printRefusedSummary(eng *store.Engine, clientShed int64, sc *server.Counters, armed bool) {
	ec := eng.Counters()
	refused := ec.Rejected + ec.Shed + ec.DeadlineExceeded + clientShed
	if refused == 0 && !armed && (sc == nil || sc.Rejected429 == 0) {
		return
	}
	line := fmt.Sprintf("refused: %d total (%d rejected, %d shed, %d deadline-exceeded, %d client-shed",
		refused, ec.Rejected, ec.Shed, ec.DeadlineExceeded, clientShed)
	if sc != nil {
		line += fmt.Sprintf("; wire: %d as 429, %d as 504, %d as 503", sc.Rejected429, sc.Deadline504, sc.Down503)
	}
	fmt.Printf("%s), worst queue delay %v\n", line, eng.MaxQueueSojourn().Round(time.Millisecond))
}

// waitServing blocks while srv serves on addr: until a signal, the optional
// -serve-for timer or a client's shutdown request, which it reports on stderr,
// or the failure that ended the server (server.Failed), which it returns.
func waitServing(ctx context.Context, srv *server.Server, addr net.Addr, serveFor time.Duration) error {
	sigCtx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	var timer <-chan time.Time
	if serveFor > 0 {
		t := time.NewTimer(serveFor)
		defer t.Stop()
		timer = t.C
	}
	fmt.Fprintf(os.Stderr, "serve: listening on %s (POST %s to stop)\n", addr, "/v1/shutdown")
	var reason string
	select {
	case err := <-srv.Failed():
		return err
	case <-sigCtx.Done():
		reason = "signal"
	case <-timer:
		reason = "serve-for elapsed"
	case <-srv.ShutdownRequested():
		reason = "client shutdown request"
	}
	fmt.Fprintf(os.Stderr, "serve: shutting down (%s)\n", reason)
	return nil
}

// deployedEngine is the engine shape of every node `pstore serve` opens — one
// of -nodes, or the single-process one — and of the coordinator's oracle, whose
// fingerprint CI compares with a 2-node run's: four partitions a machine, 640
// buckets, 3 ms of service time. The caller adds what differs (overload
// plane, hosted machines).
func deployedEngine(maxMachines, initial int) store.Config {
	return store.Config{
		MaxMachines:          maxMachines,
		PartitionsPerMachine: 4,
		Buckets:              640,
		ServiceTime:          3 * time.Millisecond,
		QueueCapacity:        1 << 15,
		InitialMachines:      initial,
	}
}

// deployedDataset sizes the B2W dataset the same three load.
func deployedDataset(seed int64) b2w.LoadSpec {
	return b2w.LoadSpec{Carts: 2400, Checkouts: 600, Stocks: 1200, LinesPerCart: 3, Seed: seed}
}
