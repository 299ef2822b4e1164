package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/cluster"
	"pstore/internal/elastic"
	"pstore/internal/faults"
	"pstore/internal/metrics"
	"pstore/internal/migration"
	"pstore/internal/predictor"
	"pstore/internal/server"
	"pstore/internal/squall"
	"pstore/internal/store"
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
	// The armed chaos planes, as their canonical spec strings, so a driver
	// (or an operator with curl) can see exactly what a server is running
	// without access to its command line.
	Faults   string `json:"faults,omitempty"`
	Crash    string `json:"crash,omitempty"`
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
	faultSpec := fs.String("faults", "", "fault-injection spec, e.g. seed=42,chunk-drop=0.05 (keys: seed, chunk-drop, chunk-slow, slow-delay, stall, stall-delay, crash-pair=F:T, crash-part=N)")
	crashSpec := fs.String("crash", "", "machine-crash schedule, e.g. seed=42,rate=0.02,downtime=4,at=1@10+5 (keys: seed, rate, downtime, at=M@T[+D] in controller cycles)")
	ckptEvery := fs.Int("checkpoint-every", 0, "checkpoint the recovery command log every N controller cycles (0 = 10 when -crash is set)")
	dataDir := fs.String("data-dir", "", "durable storage directory: command log becomes an on-disk WAL with checkpoint images; an existing directory cold-starts the engine from disk instead of loading fresh data")
	deadline := fs.Duration("deadline", 0, "per-request deadline arming admission control and queue-deadline enforcement (0 = off)")
	overloadSpec := fs.String("overload", "", "overload-plane spec, e.g. deadline=50ms,target=5ms,interval=100ms,track=true (shorthand: -deadline)")
	listen := fs.String("listen", "", "serve remote clients on this address (host:port) instead of driving the trace in-process")
	serveFor := fs.Duration("serve-for", 0, "with -listen: stop after this long (0 = until SIGINT/SIGTERM or POST /v1/shutdown)")
	quiet := fs.Bool("quiet", false, "suppress the live event log")
	node := fs.Int("node", -1, "run as node N of a multi-process cluster (requires -nodes and -listen; migration and crashes are driven by pstore coord)")
	nodes := fs.Int("nodes", 0, "total node count in multi-process mode")
	peerList := fs.String("peers", "", "comma-separated node base URLs in node-id order, for forwarding transactions to the hosting node")
	replicaOf := fs.String("replica-of", "", "node mode: start as a warm follower of the primary at this base URL — sync a snapshot, apply its shipped WAL, refuse client transactions until promoted via /v1/repl/promote")
	advertise := fs.String("advertise", "", "node mode: base URL the primary and peers use to reach this process (default derives from -listen)")
	shipFaults := fs.String("ship-faults", "", "replication-stream fault spec applied by this node's WAL shipper, e.g. seed=42,ship-drop=0.05,ship-dup=0.1,ship-reorder=0.05,ship-delay=0.1,ship-partition=0.02,heal-after=500ms")
	syncCommit := fs.Bool("sync-commit", false, "node mode: acknowledge a transaction only after its WAL record is durable on the follower too (RPO zero for acked transactions; adds one ship round trip to commit latency)")
	followerCkpt := fs.Int("follower-checkpoint-every", 0, "node mode: as a replica, checkpoint the local WAL every N accepted records so a promotion starts from a compact log (0 = off)")
	if helped, err := parseFlags(fs, args); helped || err != nil {
		return err
	}
	if *days < 1 || *initial < 1 || *maxM < *initial || *cycleMin < 1 || *minute <= 0 {
		return errors.New("invalid sizing flags")
	}
	if *node < 0 && (*replicaOf != "" || *shipFaults != "" || *syncCommit || *followerCkpt != 0) {
		return errors.New("-replica-of, -ship-faults, -sync-commit and -follower-checkpoint-every require node mode (-node)")
	}
	if *followerCkpt < 0 {
		return errors.New("-follower-checkpoint-every must be non-negative")
	}
	if *node >= 0 {
		if *faultSpec != "" || *crashSpec != "" {
			return errors.New("-faults and -crash are coordinator-side in multi-process mode; pass them to pstore coord")
		}
		return runServeNode(serveNodeConfig{
			node: *node, nodes: *nodes, peers: *peerList,
			days: *days, minute: *minute, seed: *seed,
			initial: *initial, maxM: *maxM,
			deadline: *deadline, overloadSpec: *overloadSpec,
			listen: *listen, serveFor: *serveFor,
			dataDir:   *dataDir,
			replicaOf: *replicaOf, advertise: *advertise, shipFaults: *shipFaults,
			syncCommit: *syncCommit, followerCkptEvery: *followerCkpt,
		})
	}

	// Training month plus the replayed day(s).
	full, err := workload.SyntheticB2W(workload.DefaultB2WConfig(*seed, 28+*days))
	if err != nil {
		return err
	}
	train := full.Slice(0, 28*workload.MinutesPerDay)
	replay := full.Slice(28*workload.MinutesPerDay, full.Len())

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
	if olCfg.Enabled() {
		fmt.Fprintf(os.Stderr, "serve: overload plane armed: %s\n", olCfg)
	}
	perMachine, rateScale := capacityScale(engCfg, *maxM, *minute, replay.Max())
	qMax := perMachine * minute.Seconds() / rateScale
	model := migration.Model{Q: 0.65 / 0.8 * qMax, QMax: qMax, D: 10, P: engCfg.PartitionsPerMachine}

	var ctrl elastic.Controller
	switch *policy {
	case "pstore":
		cycleTrain, err := train.Resample(*cycleMin)
		if err != nil {
			return err
		}
		period := workload.MinutesPerDay / *cycleMin
		spar := predictor.NewSPAR(period, 7, 6)
		online := predictor.NewOnline(spar, 0, 9*period)
		if err := online.ObserveAll(cycleTrain.Values); err != nil {
			return err
		}
		ctrl = &elastic.Predictive{
			Model: model, Predictor: online,
			Horizon: 36, Inflation: 0.15, ScaleInConfirm: 6,
			MaxMachines: *maxM, OnSpike: elastic.SpikeFastRate,
		}
	case "reactive":
		ctrl = &elastic.Reactive{Model: model, MaxMachines: *maxM}
	case "static":
		ctrl = nil
	default:
		return fmt.Errorf("unknown controller %q", *policy)
	}

	var inj *faults.Injector
	var faultsStr, crashStr string
	if *faultSpec != "" {
		fcfg, err := faults.Parse(*faultSpec)
		if err != nil {
			return err
		}
		if inj, err = faults.New(fcfg); err != nil {
			return err
		}
		faultsStr = fcfg.String()
		fmt.Fprintf(os.Stderr, "serve: fault plane armed: %s\n", fcfg)
	}
	var crash *faults.CrashSchedule
	if *crashSpec != "" {
		cs, err := faults.ParseCrash(*crashSpec)
		if err != nil {
			return err
		}
		crash = &cs
		crashStr = cs.String()
		fmt.Fprintf(os.Stderr, "serve: crash plane armed: %s\n", cs)
	}

	spec := deployedDataset(*seed)
	clusterCfg := cluster.Config{
		Engine:            engCfg,
		Squall:            squall.DefaultConfig(),
		Controller:        ctrl,
		Cycle:             time.Duration(*cycleMin) * *minute,
		RateScale:         rateScale,
		CycleTraceMinutes: float64(*cycleMin),
		RecorderWindow:    300 * time.Millisecond,
		Bootstrap: func(eng *store.Engine) error {
			return b2w.Load(eng, spec)
		},
		Crash:           crash,
		CheckpointEvery: *ckptEvery,
		DataDir:         *dataDir,
	}
	if inj != nil {
		clusterCfg.FaultInjector = inj
	}
	c, err := cluster.New(clusterCfg)
	if err != nil {
		return err
	}
	if err := b2w.Register(c.Engine()); err != nil {
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
	if cs := c.ColdStart(); cs != nil {
		fmt.Fprintf(os.Stderr, "serve: cold start from %s: %d machines / %d partitions rebuilt, %d images + %d replayed commands, %s of log scanned in %v\n",
			*dataDir, cs.Machines, cs.Partitions, cs.Snapshots, cs.Replayed,
			byteCount(cs.LogBytes), cs.Duration.Round(time.Millisecond))
	}
	start := time.Now()

	var stats b2w.Stats
	var srvCounters *server.Counters
	if *listen != "" {
		info := serveInfo{
			Seed: *seed, Days: *days,
			MinuteMs:     float64(*minute) / float64(time.Millisecond),
			RateScale:    rateScale,
			DeadlineMs:   float64(olCfg.Deadline) / float64(time.Millisecond),
			Carts:        spec.Carts,
			Checkouts:    spec.Checkouts,
			Stocks:       spec.Stocks,
			LinesPerCart: spec.LinesPerCart,
			Faults:       faultsStr,
			Crash:        crashStr,
		}
		if olCfg.Enabled() {
			info.Overload = olCfg.String()
		}
		scfg := server.Config{
			Engine:          c.Engine(),
			Recorder:        c.Recorder(),
			DefaultDeadline: time.Duration(info.DeadlineMs * float64(time.Millisecond)),
			Info:            info,
		}
		sc, err := serveWire(ctx, scfg, *listen, *serveFor)
		if err != nil {
			c.Stop()
			watch.Wait()
			return err
		}
		srvCounters = &sc
	} else {
		driver := &b2w.Driver{Eng: c.Engine(), Spec: spec, Seed: *seed + 1, Recorder: c.Recorder()}
		fmt.Fprintf(os.Stderr, "serve: replaying %d day(s) (1 trace minute = %v) under %q on up to %d machines\n",
			*days, *minute, *policy, *maxM)
		stats, err = driver.Run(ctx, replay, *minute, rateScale)
	}
	c.Stop()
	watch.Wait()
	if err != nil && ctx.Err() == nil {
		return err
	}

	rec := c.Recorder()
	cs := c.Stats()
	if srvCounters != nil {
		sc := *srvCounters
		fmt.Printf("wire: %d requests in %d frames (%d streams): %d ok, %d txn-errors, %d bad-requests, %d internal\n",
			sc.Requests, sc.Frames, sc.Streams, sc.OK, sc.TxnErrors, sc.BadRequests, sc.Internal)
		ec := c.Engine().Counters()
		fmt.Printf("served %d transactions (%d failed) in %v\n",
			ec.Completed, ec.Errored, time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Printf("served %d transactions (%d failed) in %v\n",
			stats.Executed, stats.Failed, time.Since(start).Round(time.Millisecond))
	}
	printRefusedSummary(rec, c.Engine(), srvCounters, olCfg.Enabled())
	fmt.Printf("SLA violations (>%g ms): p50 %d, p95 %d, p99 %d\n",
		*sloMs, rec.SLAViolations(50, *sloMs), rec.SLAViolations(95, *sloMs), rec.SLAViolations(99, *sloMs))
	fmt.Printf("machines: avg %.2f (initial %d, max %d)\n", rec.AverageMachines(), *initial, *maxM)
	fmt.Printf("controller: %d decisions, %d moves (%d emergency), %d failures\n",
		cs.Decisions, cs.Moves, cs.Emergencies, cs.Failures)
	mc := rec.MigrationCounters()
	fmt.Printf("migration: %d chunk retries, %d aborts, %d chunks rolled back\n",
		mc.Retries, mc.Aborts, mc.RollbackChunks)
	if rm := c.Recovery(); rm != nil {
		rs := rm.Stats()
		fmt.Printf("recovery: %d crashes, %d recoveries, %d commands replayed (max lag %d), downtime %v, %d checkpoints\n",
			rs.Crashes, rs.Recoveries, rs.ReplayedCommands, rs.MaxReplayLag,
			rs.Downtime.Round(time.Millisecond), rs.Checkpoints)
		if *dataDir != "" {
			fmt.Printf("durable log: %d records retained, %s on disk\n", rm.LogSize(), byteCount(rm.LogBytes()))
			if err := rm.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "serve: WARNING: durable log failed mid-run: %v\n", err)
			}
		}
	}
	if inj != nil {
		ist := inj.Stats()
		fmt.Printf("faults: %d chunk sends offered, %d dropped, %d crashed, %d slowed, %d stalled\n",
			ist.Offered, ist.Drops, ist.Crashes, ist.Slows, ist.Stalls)
	}
	return nil
}

// byteCount renders a byte total human-readably for summaries.
func byteCount(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// printRefusedSummary prints one refused-work total across the whole stack:
// the driver/client in-flight caps and the engine's admission/shed/deadline
// defenses, with the wire front end's 429 view reported alongside (wire
// rejections are engine refusals that left as HTTP 429s, so they are a view
// of the same work, not an addition to it).
func printRefusedSummary(rec *metrics.Recorder, eng *store.Engine, sc *server.Counters, armed bool) {
	oc := rec.OverloadCounters()
	if oc.Refused() == 0 && oc.WireRejected == 0 && !armed {
		return
	}
	line := fmt.Sprintf("refused: %d total (%d rejected, %d shed, %d deadline-exceeded, %d client-shed",
		oc.Refused(), oc.Rejected, oc.Shed, oc.DeadlineExceeded, oc.ClientShed)
	if sc != nil {
		line += fmt.Sprintf("; wire: %d as 429, %d as 504, %d as 503", sc.Rejected429, sc.Deadline504, sc.Down503)
	} else if oc.WireRejected > 0 {
		line += fmt.Sprintf("; %d as wire 429", oc.WireRejected)
	}
	fmt.Printf("%s), worst queue delay %v\n", line, eng.MaxQueueSojourn().Round(time.Millisecond))
}

// serveWire runs the network front end over the given server configuration
// until a signal, the optional -serve-for timer, or a client's shutdown
// request.
func serveWire(ctx context.Context, scfg server.Config, addr string, serveFor time.Duration) (server.Counters, error) {
	return serveWireWith(ctx, scfg, addr, serveFor, nil)
}

// serveWireWith is serveWire with a hook invoked once the listener is up,
// with the running server — the replica bootstrap needs the server handle
// (to install the sync snapshot) while Serve is already accepting.
func serveWireWith(ctx context.Context, scfg server.Config, addr string, serveFor time.Duration, started func(*server.Server)) (server.Counters, error) {
	srv, err := server.New(scfg)
	if err != nil {
		return server.Counters{}, err
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return server.Counters{}, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	if started != nil {
		started(srv)
	}

	sigCtx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	var timer <-chan time.Time
	if serveFor > 0 {
		t := time.NewTimer(serveFor)
		defer t.Stop()
		timer = t.C
	}
	fmt.Fprintf(os.Stderr, "serve: listening on %s (POST %s to stop)\n", l.Addr(), "/v1/shutdown")
	var reason string
	select {
	case err := <-serveErr:
		return srv.Counters(), err
	case <-sigCtx.Done():
		reason = "signal"
	case <-timer:
		reason = "serve-for elapsed"
	case <-srv.ShutdownRequested():
		reason = "client shutdown request"
	}
	fmt.Fprintf(os.Stderr, "serve: shutting down (%s)\n", reason)
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return srv.Counters(), err
	}
	return srv.Counters(), nil
}

// deployedEngine is the engine shape of everything `pstore serve` starts — the
// single-process cluster, a node, and the coordinator's oracle, whose
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
