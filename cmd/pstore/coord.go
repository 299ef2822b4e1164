package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/cluster"
	"pstore/internal/faults"
	"pstore/internal/node"
	"pstore/internal/squall"
	"pstore/internal/store"
	"pstore/internal/transport"
	"pstore/internal/wire"
)

// runCoord is the migration coordinator: it executes a scripted sequence of
// Squall reconfigurations — optionally under one -faults schedule of chunk
// faults, network faults and mid-script machine crashes — against either a
// multi-process cluster of pstore serve -node processes (-peers) or a
// single-process engine loaded with the same dataset (no -peers; the
// reference oracle). Both modes run the identical decision sequence, so the
// printed fingerprint over the step outcomes and the final placement must
// match between them — that is the shared-nothing refactor's parity
// contract, checked in CI.
func runCoord(args []string) error {
	fs := newFlagSet("coord")
	peerList := fs.String("peers", "", "comma-separated node base URLs in node-id order (empty = run the single-process oracle)")
	maxM := fs.Int("max", 8, "maximum machine count (must match the nodes' -max)")
	initial := fs.Int("machines", 2, "initial machine count (must match the nodes' -machines)")
	seed := fs.Int64("seed", 1, "b2w dataset seed (single-process mode; must match the nodes' -seed)")
	migrate := fs.String("migrate", "", "comma-separated machine-count targets executed in order, e.g. 4,1 (required)")
	rate := fs.Float64("rate", 1, "migration rate factor")
	faultSpec := fs.String("faults", "", "fault schedule: chunk, crash and (with -peers) link faults, e.g. seed=42,chunk-drop=0.15,link-dup=0.25,crash=1@2; crash=M@S crashes machine M before migrate step S (1-based), restores it after the step and re-runs the step")
	connectWait := fs.Duration("connect-wait", 30*time.Second, "how long to wait for every node to answer health checks")
	shutdownNodes := fs.Bool("shutdown-nodes", false, "ask every node to shut down after the script completes")
	failover := fs.Int("failover", -1, "watch node N for failure and run one recovery action (-promote or -restart-cmd) when it fires; -migrate, -faults, -rate, -shutdown-nodes, -max, -machines and -seed do not apply")
	probe := fs.Duration("probe", 100*time.Millisecond, "failover health-probe period")
	failAfter := fs.Int("fail-after", 3, "consecutive failed probes that declare the watched node dead")
	promoteURL := fs.String("promote", "", "failover action: promote the warm follower at this base URL and rewire the survivors to it (with -restart-cmd: then restart the dead node and rejoin it as the promoted node's follower)")
	restartCmd := fs.String("restart-cmd", "", "failover action: shell command that cold-restarts the dead node from its own -data-dir")
	failoverWait := fs.Duration("failover-wait", 2*time.Minute, "give up if the watched node has not failed after this long")
	if helped, err := parseFlags(fs, args); helped || err != nil {
		return err
	}
	// Each mode refuses the flags only the other one reads, before any node
	// is contacted.
	mode, foreign := "-migrate", []string{"failover", "probe", "fail-after", "promote", "restart-cmd", "failover-wait"}
	if *failover >= 0 {
		mode, foreign = "-failover", []string{"migrate", "faults", "rate", "shutdown-nodes", "max", "machines", "seed"}
	}
	var misplaced []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(foreign, f.Name) {
			misplaced = append(misplaced, "-"+f.Name)
		}
	})
	if len(misplaced) > 0 {
		return fmt.Errorf("%s does not take %s", mode, strings.Join(misplaced, ", "))
	}
	if *failover >= 0 {
		if *peerList == "" {
			return errors.New("-failover needs a multi-process cluster (-peers)")
		}
		if *probe <= 0 {
			return fmt.Errorf("-probe %v: want a positive period", *probe)
		}
		if *failAfter <= 0 {
			return fmt.Errorf("-fail-after %d: want at least 1", *failAfter)
		}
		return runCoordFailover(coordFailoverConfig{
			peers: *peerList, watch: *failover,
			probe: *probe, failAfter: *failAfter, wait: *failoverWait,
			promoteURL: *promoteURL, restartCmd: *restartCmd,
			connectWait: *connectWait,
		})
	}
	if *migrate == "" {
		return errors.New("-migrate is required")
	}
	if !(*rate > 0) || math.IsInf(*rate, 1) {
		return fmt.Errorf("-rate %v: want a finite factor above 0", *rate)
	}
	var steps []int
	for i, s := range strings.Split(*migrate, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("bad -migrate step %q", s)
		}
		if n < 1 || n > *maxM {
			return fmt.Errorf("-migrate step %d: target %d outside [1, -max %d]", i+1, n, *maxM)
		}
		steps = append(steps, n)
	}
	sched, err := faults.Parse(*faultSpec)
	if err != nil {
		return err
	}
	planes := []faults.Plane{faults.ChunkPlane, faults.CrashPlane}
	if *peerList != "" {
		planes = append(planes, faults.LinkPlane)
	}
	if err := sched.Only(planes...); err != nil {
		return fmt.Errorf("%w: coord injects chunk, crash and, with -peers, link faults; ship faults belong to serve -node", err)
	}
	for _, e := range sched.Events {
		if e.Kind == faults.PinnedCrash && (e.Tick < 1 || e.Tick > len(steps) || e.A >= *maxM) {
			return fmt.Errorf("-faults %s: want a machine below -max %d and one of the %d migrate steps", e, *maxM, len(steps))
		}
	}

	var topo transport.Topology
	var remote *transport.Remote
	if *peerList == "" {
		// The oracle is one node hosting every machine, loaded with the
		// dataset the nodes load; its recovery manager runs the crash script.
		n, err := node.Open(node.Config{
			Store:    deployedEngine(*maxM, *initial),
			Register: b2w.Register,
			Load:     func(eng *store.Engine) error { return b2w.Load(eng, deployedDataset(*seed)) },
		})
		if err != nil {
			return err
		}
		defer n.Close()
		topo = transport.NewLocal(n.Engine, n.Recovery)
		log.Printf("single-process oracle, %d rows on %d machines",
			topo.TotalRows(), topo.ActiveMachines())
	} else {
		urls := strings.Split(*peerList, ",")
		peers := make([]*transport.Peer, len(urls))
		for i, u := range urls {
			peers[i] = transport.NewPeer(strings.TrimSpace(u))
		}
		ctx, cancel := context.WithTimeout(context.Background(), *connectWait+5*time.Second)
		defer cancel()
		for i, p := range peers {
			if err := p.WaitHealthy(ctx, *connectWait); err != nil {
				return fmt.Errorf("node %d: %w", i, err)
			}
			st, err := p.Status(ctx)
			if err != nil {
				return fmt.Errorf("node %d status: %w", i, err)
			}
			if st.WALError != "" {
				// The node answers but has latched a durable-log failure:
				// treating it as healthy would migrate data onto a machine
				// that cannot promise durability.
				return fmt.Errorf("node %d reports a failed WAL: %s", i, st.WALError)
			}
		}
		r, err := transport.NewRemote(context.Background(), peers)
		if err != nil {
			return err
		}
		remote = r
		topo = r
		log.Printf("%d nodes, %d rows on %d machines",
			len(peers), topo.TotalRows(), topo.ActiveMachines())
	}

	if len(sched.Events) > 0 {
		if sched.Arms(faults.ChunkPlane) {
			topo.SetFaultInjector(sched)
		}
		if sched.Arms(faults.LinkPlane) {
			remote.SetNetInjector(sched)
		}
		log.Printf("fault schedule armed: %s", sched)
	}

	// The cluster executes every step, and its Stop closes the topology. The
	// chunk and link faults stay armed on the topology above, and coord
	// sequences the crashes itself: the cluster would refuse link faults and
	// fire crash=M@S by cycle, not by step.
	clu, err := cluster.NewRemote(cluster.Config{Squall: squall.DefaultConfig()}, topo)
	if err != nil {
		return err
	}
	if err := clu.Start(context.Background()); err != nil {
		return err
	}
	defer clu.Stop()

	// The fingerprint folds in every step's outcome class and the final
	// placement; single-process and multi-process runs of the same script
	// must print the same value.
	fp := fnv.New64a()
	for i, target := range steps {
		// A crash's tick is the 1-based step it precedes.
		crashes := sched.CrashesAt(i+1, *maxM)
		for _, c := range crashes {
			if err := topo.Crash(c.Machine); err != nil {
				return fmt.Errorf("step %d: crashing machine %d: %w", i+1, c.Machine, err)
			}
			outcome := fmt.Sprintf("crash machine %d", c.Machine)
			fmt.Printf("coord: step %d: %s (down: %v)\n", i+1, outcome, topo.DownMachines())
			fp.Write([]byte(outcome))
		}
		from := topo.ActiveMachines()
		outcome := coordStep(topo, clu, target, *rate)
		fmt.Printf("coord: step %d: %d -> %d machines: %s\n", i+1, from, target, outcome)
		fp.Write([]byte(outcome))
		if len(crashes) == 0 {
			continue
		}
		for _, c := range crashes {
			st, err := topo.Restore(c.Machine)
			if err != nil {
				return fmt.Errorf("step %d: restoring machine %d: %w", i+1, c.Machine, err)
			}
			fmt.Printf("coord: step %d: restored machine %d (%d snapshots, %d replayed)\n",
				i+1, c.Machine, st.Snapshots, st.Replayed)
			fp.Write([]byte(fmt.Sprintf("restore machine %d", c.Machine)))
		}
		outcome = coordStep(topo, clu, target, *rate)
		fmt.Printf("coord: step %d (retry): -> %d machines: %s\n", i+1, target, outcome)
		fp.Write([]byte(outcome))
	}

	st := clu.Stats().Migration
	fmt.Printf("coord: migration: %d chunks moved, %d retries, %d aborts, %d chunks rolled back\n",
		st.ChunksMoved, st.Retries, st.Aborts, st.RollbackChunks)
	fst := sched.Stats()
	if sched.Arms(faults.ChunkPlane) {
		fmt.Printf("coord: faults: %d offered, %d dropped, %d crashed, %d slowed, %d stalled\n",
			fst.Offered[faults.ChunkPlane], fst.Fired[faults.ChunkDrop], fst.Fired[faults.CrashPair]+fst.Fired[faults.CrashPart],
			fst.Fired[faults.ChunkSlow], fst.Fired[faults.Stall])
	}
	if sched.Arms(faults.LinkPlane) {
		fmt.Printf("coord: net faults: %d links, %d dropped, %d duplicated, %d reordered, %d slowed\n",
			fst.Offered[faults.LinkPlane], fst.Fired[faults.LinkDrop], fst.Fired[faults.LinkDup],
			fst.Fired[faults.LinkReorder], fst.Fired[faults.LinkSlow])
	}
	for _, b := range topo.Plan() {
		var buf [4]byte
		binary.BigEndian.PutUint32(buf[:], uint32(b))
		fp.Write(buf[:])
	}
	rows := topo.TotalRows()
	log.Printf("script done: %d machines, %d rows", topo.ActiveMachines(), rows)
	fmt.Printf("coord: fingerprint %016x rows %d machines %d\n", fp.Sum64(), rows, topo.ActiveMachines())
	if remote != nil {
		if n := remote.FlipErrors(); n > 0 {
			return fmt.Errorf("%d ownership-flip broadcasts failed; node plans may have diverged", n)
		}
	}
	if *shutdownNodes && remote != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for i, p := range remote.Peers() {
			if err := p.Shutdown(ctx); err != nil {
				return fmt.Errorf("shutting down node %d: %w", i, err)
			}
		}
		log.Print("node shutdown requested")
	}
	return nil
}

// coordFailoverConfig carries the coord flags for a failover watch.
type coordFailoverConfig struct {
	peers       string
	watch       int
	probe       time.Duration
	failAfter   int
	wait        time.Duration
	promoteURL  string
	restartCmd  string
	connectWait time.Duration
}

// coordFailoverOutcome is the machine-readable summary a failover watch
// prints as one JSON line ("coord: failover-outcome {...}") after its
// recovery action completes, so scripts and CI assert on structure instead
// of scraping prose. Millisecond fields are zero when the action skipped
// that stage.
type coordFailoverOutcome struct {
	// Action is "promote", "restart", or "promote+rejoin" (both flags
	// given: promote the follower, then restart the dead node and fold it
	// back in as a follower of the promoted one).
	Action string `json:"action"`
	// Node is the watched (failed) node id.
	Node int `json:"node"`
	// Epoch is the promoted node's epoch after the failover (promote paths).
	Epoch     uint64  `json:"epoch,omitempty"`
	DetectMs  float64 `json:"detect_ms"`
	PromoteMs float64 `json:"promote_ms,omitempty"`
	// Drained is the apply backlog, in command records, the follower had
	// acknowledged and still had to execute before it could be promoted;
	// PromoteMs includes executing it.
	Drained   int     `json:"drained"`
	RestartMs float64 `json:"restart_ms,omitempty"`
	RejoinMs  float64 `json:"rejoin_ms,omitempty"`
}

// runCoordFailover is the coordinator's failure-detection loop: probe one
// node's health endpoint until a deterministic number of consecutive
// probes fail, then run one recovery action — promote the dead node's warm
// follower (fenced under a fresh epoch, survivors rewired), cold-restart
// the process from its own data directory, or both in sequence: promote,
// restart the zombie, and rejoin it as the new primary's follower.
func runCoordFailover(cfg coordFailoverConfig) error {
	urls := strings.Split(cfg.peers, ",")
	if cfg.watch >= len(urls) {
		return fmt.Errorf("-failover %d out of range for %d peers", cfg.watch, len(urls))
	}
	if cfg.promoteURL == "" && cfg.restartCmd == "" {
		return errors.New("-failover needs a recovery action: -promote, -restart-cmd, or both")
	}
	peers := make([]*transport.Peer, len(urls))
	for i, u := range urls {
		peers[i] = transport.NewPeer(strings.TrimSpace(u))
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.wait+cfg.connectWait)
	defer cancel()
	log.Printf("watching node %d (%s): probe %v, dead after %d failures",
		cfg.watch, peers[cfg.watch].Addr(), cfg.probe, cfg.failAfter)
	det, err := cluster.DetectFailure(ctx, peers[cfg.watch], cluster.DetectorConfig{
		Probe: cfg.probe, FailAfter: cfg.failAfter,
	})
	if err != nil {
		return fmt.Errorf("failure detection: %w", err)
	}
	out := coordFailoverOutcome{
		Node:     cfg.watch,
		DetectMs: float64(det.Microseconds()) / 1000,
	}
	fmt.Printf("coord: node %d declared dead after %v\n", cfg.watch, det.Round(time.Millisecond))

	// The recovery actions run on their own clock: detection may have eaten
	// most of the watch budget, and a restart + rejoin legitimately takes a
	// while on a large log.
	actx, acancel := context.WithTimeout(context.Background(), cfg.connectWait+5*time.Minute)
	defer acancel()

	if cfg.promoteURL == "" {
		out.Action = "restart"
		start := time.Now()
		if err := cluster.RestartNode(actx, peers[cfg.watch], cfg.restartCmd, cfg.connectWait); err != nil {
			return err
		}
		out.RestartMs = float64(time.Since(start).Microseconds()) / 1000
		fmt.Printf("coord: node %d restarted and healthy in %v\n", cfg.watch, time.Since(start).Round(time.Millisecond))
		return printFailoverOutcome(out)
	}

	replica := transport.NewPeer(strings.TrimSpace(cfg.promoteURL))
	survivors := make(map[int]*transport.Peer)
	for i, p := range peers {
		if i != cfg.watch {
			survivors[i] = p
		}
	}
	out.Action = "promote"
	start := time.Now()
	st, err := cluster.Promote(actx, cluster.PromoteConfig{
		Replica:    replica,
		ReplicaURL: replica.Addr(),
		FailedNode: cfg.watch,
		Survivors:  survivors,
	})
	if err != nil {
		return err
	}
	out.Epoch = st.Epoch
	out.PromoteMs = float64(time.Since(start).Microseconds()) / 1000
	out.Drained = st.Drained
	fmt.Printf("coord: follower %s promoted to %s at epoch %d in %v (apply backlog of %d records drained, %d survivors rewired)\n",
		replica.Addr(), st.Role, st.Epoch, time.Since(start).Round(time.Millisecond), st.Drained, len(survivors))

	if cfg.restartCmd != "" {
		out.Action = "promote+rejoin"
		start = time.Now()
		if err := cluster.RestartNode(actx, peers[cfg.watch], cfg.restartCmd, cfg.connectWait); err != nil {
			return err
		}
		out.RestartMs = float64(time.Since(start).Microseconds()) / 1000
		fmt.Printf("coord: node %d restarted and healthy in %v\n", cfg.watch, time.Since(start).Round(time.Millisecond))
		start = time.Now()
		zst, err := cluster.Rejoin(actx, cluster.RejoinConfig{
			Zombie:     peers[cfg.watch],
			Primary:    replica,
			PrimaryURL: replica.Addr(),
		})
		if err != nil {
			return err
		}
		out.RejoinMs = float64(time.Since(start).Microseconds()) / 1000
		fmt.Printf("coord: node %d rejoined as %s of %s at epoch %d in %v (applied segment %d record %d)\n",
			cfg.watch, zst.Role, replica.Addr(), zst.Epoch, time.Since(start).Round(time.Millisecond),
			zst.Applied.Seg, zst.Applied.Rec)
	}
	return printFailoverOutcome(out)
}

// printFailoverOutcome emits the one-line JSON summary of a failover watch.
func printFailoverOutcome(out coordFailoverOutcome) error {
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("coord: failover-outcome %s\n", b)
	return nil
}

// coordStep runs one reconfiguration and classifies its outcome exactly the
// way the parity test suites do: ok, a rolled-back abort, or an upfront
// refusal — with the wire code, so the class (and the fingerprint) is
// identical whether the cause crossed a network or not.
func coordStep(topo transport.Topology, clu *cluster.Cluster, target int, rate float64) string {
	if topo.ActiveMachines() == target {
		return "no-op"
	}
	err := clu.Reconfigure(target, rate)
	if err == nil {
		return "ok"
	}
	var me *squall.MoveError
	if errors.As(err, &me) {
		if !me.RolledBack {
			return fmt.Sprintf("abort without rollback (%s)", wire.CodeOf(me.Cause))
		}
		return fmt.Sprintf("abort (%s)", wire.CodeOf(me.Cause))
	}
	return fmt.Sprintf("refused (%s)", wire.CodeOf(err))
}
