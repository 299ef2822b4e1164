package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/cluster"
	"pstore/internal/faults"
	"pstore/internal/recovery"
	"pstore/internal/squall"
	"pstore/internal/store"
	"pstore/internal/transport"
	"pstore/internal/wire"
)

// runCoord is the migration coordinator: it executes a scripted sequence of
// Squall reconfigurations — optionally under chunk faults, network faults and
// a mid-script machine crash — against either a multi-process cluster of
// pstore serve -node processes (-peers) or a single-process engine loaded
// with the same dataset (no -peers; the reference oracle). Both modes run
// the identical decision sequence, so the printed fingerprint over the step
// outcomes and the final placement must match between them — that is the
// shared-nothing refactor's parity contract, checked in CI.
func runCoord(args []string) error {
	fs := newFlagSet("coord")
	peerList := fs.String("peers", "", "comma-separated node base URLs in node-id order (empty = run the single-process oracle)")
	maxM := fs.Int("max", 8, "maximum machine count (must match the nodes' -max)")
	initial := fs.Int("machines", 2, "initial machine count (must match the nodes' -machines)")
	seed := fs.Int64("seed", 1, "b2w dataset seed (single-process mode; must match the nodes' -seed)")
	migrate := fs.String("migrate", "", "comma-separated machine-count targets executed in order, e.g. 4,1 (required)")
	rate := fs.Float64("rate", 1, "migration rate factor")
	faultSpec := fs.String("faults", "", "chunk fault spec, e.g. seed=42,chunk-drop=0.5")
	netSpec := fs.String("net-faults", "", "network fault spec, e.g. seed=7,link-drop=0.1,link-dup=0.5 (multi-process only)")
	crashMachine := fs.Int("crash-machine", -1, "machine to crash before -crash-step (restored and the step re-run after the first attempt)")
	crashStep := fs.Int("crash-step", 0, "1-based index into -migrate before which -crash-machine crashes")
	connectWait := fs.Duration("connect-wait", 30*time.Second, "how long to wait for every node to answer health checks")
	shutdownNodes := fs.Bool("shutdown-nodes", false, "ask every node to shut down after the script completes")
	failover := fs.Int("failover", -1, "watch node N for failure and run one recovery action (-promote or -restart-cmd) when it fires; -migrate becomes optional")
	probe := fs.Duration("probe", 100*time.Millisecond, "failover health-probe period")
	failAfter := fs.Int("fail-after", 3, "consecutive failed probes that declare the watched node dead")
	promoteURL := fs.String("promote", "", "failover action: promote the warm follower at this base URL and rewire the survivors to it (with -restart-cmd: then restart the dead node and rejoin it as the promoted node's follower)")
	restartCmd := fs.String("restart-cmd", "", "failover action: shell command that cold-restarts the dead node from its own -data-dir")
	failoverWait := fs.Duration("failover-wait", 2*time.Minute, "give up if the watched node has not failed after this long")
	if helped, err := parseFlags(fs, args); helped || err != nil {
		return err
	}
	if *failover >= 0 {
		if *peerList == "" {
			return errors.New("-failover needs a multi-process cluster (-peers)")
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
	var steps []int
	for _, s := range strings.Split(*migrate, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -migrate step %q", s)
		}
		steps = append(steps, n)
	}
	if (*crashMachine >= 0) != (*crashStep >= 1) {
		return errors.New("-crash-machine and -crash-step must be set together")
	}
	if *crashStep > len(steps) {
		return fmt.Errorf("-crash-step %d exceeds the %d migrate steps", *crashStep, len(steps))
	}

	var topo transport.Topology
	var remote *transport.Remote
	if *peerList == "" {
		local, err := coordLocalTopology(*maxM, *initial, *seed)
		if err != nil {
			return err
		}
		topo = local
		defer local.Engine.Stop()
		fmt.Fprintf(os.Stderr, "coord: single-process oracle, %d rows on %d machines\n",
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
		defer r.Close()
		remote = r
		topo = r
		fmt.Fprintf(os.Stderr, "coord: %d nodes, %d rows on %d machines\n",
			len(peers), topo.TotalRows(), topo.ActiveMachines())
	}

	var inj *faults.Injector
	if *faultSpec != "" {
		fcfg, err := faults.Parse(*faultSpec)
		if err != nil {
			return err
		}
		if inj, err = faults.New(fcfg); err != nil {
			return err
		}
		topo.SetFaultInjector(inj)
		fmt.Fprintf(os.Stderr, "coord: fault plane armed: %s\n", fcfg)
	}
	var net *faults.NetInjector
	if *netSpec != "" {
		if remote == nil {
			return errors.New("-net-faults needs a multi-process cluster: network faults have no single-process equivalent")
		}
		ncfg, err := faults.ParseNet(*netSpec)
		if err != nil {
			return err
		}
		if net, err = faults.NewNet(ncfg); err != nil {
			return err
		}
		remote.SetNetInjector(net)
		fmt.Fprintf(os.Stderr, "coord: network fault plane armed: %s\n", ncfg)
	}

	sqCfg := squall.DefaultConfig()
	ex, err := squall.NewExecutor(topo, sqCfg)
	if err != nil {
		return err
	}

	// The fingerprint folds in every step's outcome class and the final
	// placement; single-process and multi-process runs of the same script
	// must print the same value.
	fp := fnv.New64a()
	for i, target := range steps {
		if *crashMachine >= 0 && *crashStep == i+1 {
			if err := topo.Crash(*crashMachine); err != nil {
				return fmt.Errorf("step %d: crashing machine %d: %w", i+1, *crashMachine, err)
			}
			outcome := fmt.Sprintf("crash machine %d", *crashMachine)
			fmt.Printf("coord: step %d: %s (down: %v)\n", i+1, outcome, topo.DownMachines())
			fp.Write([]byte(outcome))
		}
		from := topo.ActiveMachines()
		outcome := coordStep(topo, ex, target, *rate)
		fmt.Printf("coord: step %d: %d -> %d machines: %s\n", i+1, from, target, outcome)
		fp.Write([]byte(outcome))
		if *crashMachine >= 0 && *crashStep == i+1 {
			st, err := topo.Restore(*crashMachine)
			if err != nil {
				return fmt.Errorf("step %d: restoring machine %d: %w", i+1, *crashMachine, err)
			}
			fmt.Printf("coord: step %d: restored machine %d (%d snapshots, %d replayed)\n",
				i+1, *crashMachine, st.Snapshots, st.Replayed)
			fp.Write([]byte(fmt.Sprintf("restore machine %d", *crashMachine)))
			outcome = coordStep(topo, ex, target, *rate)
			fmt.Printf("coord: step %d (retry): -> %d machines: %s\n", i+1, target, outcome)
			fp.Write([]byte(outcome))
		}
	}

	st := ex.Stats()
	fmt.Printf("coord: migration: %d chunks moved, %d retries, %d aborts, %d chunks rolled back\n",
		st.ChunksMoved, st.Retries, st.Aborts, st.RollbackChunks)
	if inj != nil {
		ist := inj.Stats()
		fmt.Printf("coord: faults: %d offered, %d dropped, %d crashed, %d slowed, %d stalled\n",
			ist.Offered, ist.Drops, ist.Crashes, ist.Slows, ist.Stalls)
	}
	if net != nil {
		nst := net.Stats()
		fmt.Printf("coord: net faults: %d links, %d dropped, %d duplicated, %d reordered, %d slowed\n",
			nst.Offered, nst.Drops, nst.Dups, nst.Reorders, nst.Slows)
	}
	for _, b := range topo.Plan() {
		var buf [4]byte
		binary.BigEndian.PutUint32(buf[:], uint32(b))
		fp.Write(buf[:])
	}
	rows := topo.TotalRows()
	fmt.Fprintf(os.Stderr, "coord: script done: %d machines, %d rows\n", topo.ActiveMachines(), rows)
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
		fmt.Fprintln(os.Stderr, "coord: node shutdown requested")
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
	fmt.Fprintf(os.Stderr, "coord: watching node %d (%s): probe %v, dead after %d failures\n",
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
func coordStep(topo transport.Topology, ex *squall.Executor, target int, rate float64) string {
	from := topo.ActiveMachines()
	if from == target {
		return "no-op"
	}
	err := ex.Reconfigure(from, target, rate)
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

// coordLocalTopology builds the single-process oracle: one engine hosting
// every machine, loaded with the b2w dataset the nodes load, wrapped with an
// in-process recovery manager so the crash script works identically.
func coordLocalTopology(maxM, initial int, seed int64) (*transport.Local, error) {
	eng, err := store.NewEngine(deployedEngine(maxM, initial))
	if err != nil {
		return nil, err
	}
	if err := b2w.Register(eng); err != nil {
		return nil, err
	}
	rm := recovery.NewManager(eng)
	eng.Start()
	if err := b2w.Load(eng, deployedDataset(seed)); err != nil {
		eng.Stop()
		return nil, err
	}
	if _, err := rm.Checkpoint(); err != nil {
		eng.Stop()
		return nil, err
	}
	return transport.NewLocal(eng, rm), nil
}
