package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/faults"
	"pstore/internal/recovery"
	"pstore/internal/server"
	"pstore/internal/store"
	"pstore/internal/transport"
	"pstore/internal/wire"
	"pstore/internal/workload"
)

// serveNodeConfig carries the serve flags that apply in node mode.
type serveNodeConfig struct {
	node, nodes   int
	peers         string
	days          int
	minute        time.Duration
	seed          int64
	initial, maxM int
	deadline      time.Duration
	overloadSpec  string
	listen        string
	serveFor      time.Duration
	dataDir       string
	replicaOf     string
	advertise     string
	shipFaults    string
	// syncCommit holds every transaction ack until the follower has durably
	// appended its WAL record; followerCkptEvery makes a replica checkpoint
	// its own log every N accepted records.
	syncCommit        bool
	followerCkptEvery int
}

// advertiseURL derives the base URL peers use to reach this process: the
// explicit -advertise flag, or the listen address with a loopback host
// filled in when it only names a port.
func (cfg *serveNodeConfig) advertiseURL() string {
	if cfg.advertise != "" {
		return cfg.advertise
	}
	addr := cfg.listen
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	if !strings.HasPrefix(addr, "http://") {
		addr = "http://" + addr
	}
	return addr
}

// runServeNode runs one partition-group node of a multi-process cluster: an
// engine hosting machines m where m % nodes == node, behind a front end that
// serves both the transaction plane (forwarding keys it does not host to the
// hosting peer) and the node plane (extract/install/flip, crash/restore)
// that pstore coord drives. Every node loads the same deterministic dataset
// and keeps only its share, so the union across nodes is exactly the
// single-process dataset.
func runServeNode(cfg serveNodeConfig) error {
	if cfg.nodes < 1 {
		return errors.New("-node requires -nodes >= 1")
	}
	if cfg.node >= cfg.nodes {
		return fmt.Errorf("-node %d out of range for -nodes %d", cfg.node, cfg.nodes)
	}
	if cfg.listen == "" {
		return errors.New("-node requires -listen")
	}
	var peers []string
	if cfg.peers != "" {
		peers = strings.Split(cfg.peers, ",")
		if len(peers) != cfg.nodes {
			return fmt.Errorf("-peers lists %d URLs, want %d (one per node, in node-id order)", len(peers), cfg.nodes)
		}
	}

	olCfg, err := store.ParseOverload(cfg.overloadSpec)
	if err != nil {
		return err
	}
	if cfg.deadline < 0 {
		return fmt.Errorf("negative -deadline %v", cfg.deadline)
	}
	if cfg.deadline > 0 {
		olCfg.Deadline = cfg.deadline
	}
	engCfg := deployedEngine(cfg.maxM, cfg.initial)
	if cfg.replicaOf == "" {
		// A replica executes only its primary's shipped records; admission
		// control or CoDel shedding there would fork the replicated history,
		// so its overload plane stays disarmed regardless of flags.
		engCfg.Overload = olCfg
	}
	for m := 0; m < cfg.maxM; m++ {
		if m%cfg.nodes == cfg.node {
			engCfg.HostedMachines = append(engCfg.HostedMachines, m)
		}
	}
	eng, err := store.NewEngine(engCfg)
	if err != nil {
		return err
	}
	if err := b2w.Register(eng); err != nil {
		return err
	}
	// The recovery manager attaches before Start so the coordinator's crash
	// plane works from the first transaction on; the bulk load is not logged
	// but lands as its first image set. With -data-dir the log is the on-disk
	// WAL and a restart of this node cold-starts from the directory instead
	// of reloading the dataset.
	rm, err := recovery.New(eng, recovery.Config{DataDir: cfg.dataDir})
	if err != nil {
		return err
	}
	defer rm.Close()
	eng.Start()
	defer eng.Stop()

	spec := deployedDataset(cfg.seed)
	if cfg.replicaOf != "" {
		if rm.HasColdState() {
			return fmt.Errorf("replica mode needs a fresh -data-dir; %s already has state (cold-restart it as a primary instead)", cfg.dataDir)
		}
		fmt.Fprintf(os.Stderr, "serve: node %d/%d hosting machines %v as warm replica of %s\n",
			cfg.node, cfg.nodes, engCfg.HostedMachines, cfg.replicaOf)
	} else if rm.HasColdState() {
		fmt.Fprintf(os.Stderr, "serve: node %d/%d hosting machines %v, cold-starting from %s\n",
			cfg.node, cfg.nodes, engCfg.HostedMachines, cfg.dataDir)
		cs, err := rm.ColdStart()
		if err != nil {
			return fmt.Errorf("cold start from %s: %w", cfg.dataDir, err)
		}
		fmt.Fprintf(os.Stderr, "serve: cold start rebuilt %d machines / %d partitions: %d images, %d commands replayed, %s of log, in %v\n",
			cs.Machines, cs.Partitions, cs.Snapshots, cs.Replayed, byteCount(cs.LogBytes),
			cs.Duration.Round(time.Millisecond))
	} else {
		fmt.Fprintf(os.Stderr, "serve: node %d/%d hosting machines %v, loading dataset\n",
			cfg.node, cfg.nodes, engCfg.HostedMachines)
		loadStart := time.Now()
		images, err := rm.Bootstrap(func() error { return b2w.Load(eng, spec) })
		if err != nil {
			return fmt.Errorf("loading dataset: %w", err)
		}
		fmt.Fprintf(os.Stderr, "serve: dataset loaded as a baseline image set of %d images in %v, %d WAL records appended\n",
			images, time.Since(loadStart).Round(time.Millisecond), rm.WALStats().Appends)
	}
	if olCfg.Enabled() {
		fmt.Fprintf(os.Stderr, "serve: overload plane armed: %s\n", olCfg)
	}

	info := serveInfo{
		Seed: cfg.seed, Days: cfg.days,
		MinuteMs:     float64(cfg.minute) / float64(time.Millisecond),
		DeadlineMs:   float64(olCfg.Deadline) / float64(time.Millisecond),
		Carts:        spec.Carts,
		Checkouts:    spec.Checkouts,
		Stocks:       spec.Stocks,
		LinesPerCart: spec.LinesPerCart,
		Node:         cfg.node,
		Nodes:        cfg.nodes,
	}
	if olCfg.Enabled() {
		info.Overload = olCfg.String()
	}
	// The trace contract is the one single-process serve publishes, so a drive
	// process pointed at any node replays the same workload. Only a driver
	// reads it, so the month of trace behind its rate scale is generated on
	// the first request, not at every start.
	traceInfo := infoFunc(sync.OnceValues(func() ([]byte, error) {
		full, err := workload.SyntheticB2W(workload.DefaultB2WConfig(cfg.seed, 28+cfg.days))
		if err != nil {
			return nil, err
		}
		_, info.RateScale = capacityScale(engCfg, cfg.maxM, cfg.minute, full.Slice(28*workload.MinutesPerDay, full.Len()).Max())
		return json.Marshal(info)
	}))
	nodeCfg := &server.NodeConfig{
		ID:                      cfg.node,
		Nodes:                   cfg.nodes,
		Recovery:                rm,
		ReplicaOf:               cfg.replicaOf,
		FollowerCheckpointEvery: cfg.followerCkptEvery,
	}
	// The peer table is mutable: after a failover the coordinator rewires
	// the dead node's slot to its promoted replica via /v1/node/peer.
	var peerMu sync.RWMutex
	if peers != nil {
		nodeCfg.PeerURL = func(node int) string {
			peerMu.RLock()
			defer peerMu.RUnlock()
			return peers[node]
		}
		nodeCfg.SetPeerURL = func(node int, url string) {
			peerMu.Lock()
			peers[node] = url
			peerMu.Unlock()
		}
	}
	var shipInj *faults.ShipInjector
	if cfg.shipFaults != "" {
		sfc, err := faults.ParseShip(cfg.shipFaults)
		if err != nil {
			return err
		}
		if sfc.Enabled() {
			if shipInj, err = faults.NewShip(sfc); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "serve: ship-fault plane armed: %s\n", sfc)
		}
	}
	if cfg.syncCommit {
		fmt.Fprintf(os.Stderr, "serve: synchronous commit armed: acks wait for follower durability once a follower syncs\n")
	}
	// When a follower syncs against this node, start (or restart) the WAL
	// shipper that streams records from the sync cursor to it.
	var shipMu sync.Mutex
	var shipCancel context.CancelFunc
	stopShipper := func() {
		shipMu.Lock()
		if shipCancel != nil {
			shipCancel()
			shipCancel = nil
		}
		shipMu.Unlock()
	}
	defer stopShipper()
	// The self-healing hooks run against the server handle, which does not
	// exist until the listener is up; they reach it through this holder.
	var srvMu sync.Mutex
	var srvPtr *server.Server
	// rejoinMu serialises self-demotions: the coordinator's demote order and
	// the shipper's own fenced exit can race toward the same rejoin.
	var rejoinMu sync.Mutex
	rejoinAsFollower := func(primaryURL string) {
		rejoinMu.Lock()
		defer rejoinMu.Unlock()
		srvMu.Lock()
		srv := srvPtr
		srvMu.Unlock()
		if srv == nil || srv.IsReplica() {
			return
		}
		// Stop shipping and fail any sync-commit waiters parked on the dead
		// stream: their records may sit past the divergence point, and
		// nothing will ever confirm them.
		stopShipper()
		rm.AbortSync()
		rm.SetSyncCommit(false)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		primary := transport.NewPeer(primaryURL)
		if err := primary.WaitHealthy(ctx, time.Minute); err != nil {
			fmt.Fprintf(os.Stderr, "serve: FATAL: rejoin: new primary %s unreachable: %v\n", primaryURL, err)
			os.Exit(1)
		}
		pst, err := primary.ReplStatus(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: FATAL: rejoin: new primary %s status: %v\n", primaryURL, err)
			os.Exit(1)
		}
		warm, err := srv.DemoteToFollower(pst)
		if err != nil {
			if errors.Is(err, wire.ErrFenced) {
				// A stale order: the named primary does not outrank us.
				fmt.Fprintf(os.Stderr, "serve: rejoin refused: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "serve: warm rejoin failed (%v); falling back to a full resync\n", err)
			warm = false
		}
		if warm {
			if _, err := primary.ReplResume(ctx, cfg.advertiseURL(), pst.Rejoin.Cursor); err == nil {
				fmt.Fprintf(os.Stderr, "serve: rejoined %s as warm follower: epoch %d, resuming at segment %d record %d\n",
					primaryURL, pst.Epoch, pst.Rejoin.Cursor.Seg, pst.Rejoin.Cursor.Rec)
				return
			} else {
				fmt.Fprintf(os.Stderr, "serve: resume stream refused (%v); falling back to a full resync\n", err)
			}
		}
		// Full resync: wipe the local log and rebuild from a fresh snapshot
		// stream, exactly like a first-boot replica.
		srv.PrepareFullResync()
		meta, set, err := primary.ReplSync(ctx, cfg.advertiseURL())
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: FATAL: rejoin full resync from %s: %v\n", primaryURL, err)
			os.Exit(1)
		}
		if err := srv.InstallReplicaState(meta, set); err != nil {
			fmt.Fprintf(os.Stderr, "serve: FATAL: rejoin install from %s: %v\n", primaryURL, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "serve: rejoined %s by full resync: epoch %d, %d buckets, cursor segment %d record %d\n",
			primaryURL, meta.Epoch, meta.Buckets, meta.Cursor.Seg, meta.Cursor.Rec)
	}
	nodeCfg.OnDemote = rejoinAsFollower
	nodeCfg.OnReplicaSync = func(url string, cur wire.ShipCursor) {
		shipMu.Lock()
		defer shipMu.Unlock()
		if shipCancel != nil {
			shipCancel() // the follower resynced; the old stream is dead
		}
		sh, err := transport.NewShipper(transport.ShipperConfig{
			RM:         rm,
			Follower:   transport.NewPeer(url),
			FromNode:   cfg.node,
			ToNode:     -1,
			Faults:     shipInj,
			Start:      cur,
			SyncCommit: cfg.syncCommit,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: cannot ship to follower %s: %v\n", url, err)
			return
		}
		sctx, cancel := context.WithCancel(context.Background())
		shipCancel = cancel
		fmt.Fprintf(os.Stderr, "serve: shipping WAL to follower %s from segment %d record %d\n", url, cur.Seg, cur.Rec)
		go func() {
			err := sh.Run(sctx)
			if err == nil || sctx.Err() != nil {
				return
			}
			if errors.Is(err, wire.ErrFenced) {
				// The follower we were feeding outranks us: it has been
				// promoted and refused our batch. Fence immediately — a
				// zombie serving writes is a split brain — and rejoin as
				// its follower.
				fmt.Fprintf(os.Stderr, "serve: WAL shipper fenced by %s; rejoining as its follower\n", url)
				srvMu.Lock()
				srv := srvPtr
				srvMu.Unlock()
				if srv != nil {
					srv.MarkFenced()
				}
				rejoinAsFollower(url)
				return
			}
			fmt.Fprintf(os.Stderr, "serve: WAL shipper to %s stopped: %v\n", url, err)
		}()
	}
	scfg := server.Config{
		Engine:          eng,
		DefaultDeadline: olCfg.Deadline,
		Info:            traceInfo,
		Node:            nodeCfg,
	}
	start := time.Now()
	started := func(srv *server.Server) {
		srvMu.Lock()
		srvPtr = srv
		srvMu.Unlock()
		if cfg.replicaOf != "" {
			go func() {
				if err := bootstrapReplica(srv, cfg); err != nil {
					fmt.Fprintf(os.Stderr, "serve: FATAL: replica sync from %s failed: %v\n", cfg.replicaOf, err)
					os.Exit(1)
				}
			}()
		}
	}
	sc, err := serveWireWith(context.Background(), scfg, cfg.listen, cfg.serveFor, started)
	if err != nil {
		return err
	}

	fmt.Printf("wire: %d requests in %d frames (%d streams): %d ok, %d txn-errors, %d bad-requests, %d internal, %d forwarded\n",
		sc.Requests, sc.Frames, sc.Streams, sc.OK, sc.TxnErrors, sc.BadRequests, sc.Internal, sc.Forwarded)
	ec := eng.Counters()
	held := ec.CommitWaits
	var commitWait time.Duration
	if held > 0 {
		commitWait = time.Duration(ec.CommitWaitNs / held)
	}
	ws := rm.WALStats()
	fmt.Printf("node %d served %d transactions (%d failed) in %v; %d replies held for durability, mean commit wait %v; WAL shipped by %d tail reads, %d file reads",
		cfg.node, ec.Completed, ec.Errored, time.Since(start).Round(time.Millisecond),
		held, commitWait.Round(time.Microsecond), ws.ShipTailReads, ws.ShipFileReads)
	srvMu.Lock()
	srv := srvPtr
	srvMu.Unlock()
	if srv != nil {
		if as := srv.ApplyStats(); as.Fsyncs > 0 {
			fmt.Printf("; %d batches accepted, %.1f records per follower fsync, max apply backlog %d",
				as.Batches, float64(as.Records)/float64(as.Fsyncs), as.MaxBacklog)
		}
	}
	var overshoot time.Duration
	if ec.Holds > 0 {
		overshoot = time.Duration(ec.HoldOverNs / ec.Holds)
	}
	fmt.Printf("; %d holds, mean overshoot %v", ec.Holds, overshoot.Round(time.Microsecond))
	if srv != nil {
		fs := srv.ForwardStreams()
		fmt.Printf("; forward streams: %d dials, %d redials, %d frames, max %d in flight",
			fs.Dials, fs.Redials, fs.Frames, fs.MaxInFlight)
	}
	fmt.Println()
	rs := rm.Stats()
	if rs.Crashes > 0 || rs.Checkpoints > 1 {
		fmt.Printf("recovery: %d crashes, %d recoveries, %d commands replayed (max lag %d), downtime %v, %d checkpoints\n",
			rs.Crashes, rs.Recoveries, rs.ReplayedCommands, rs.MaxReplayLag,
			rs.Downtime.Round(time.Millisecond), rs.Checkpoints)
	}
	if cfg.dataDir != "" {
		fmt.Printf("durable log: %d records retained, %s on disk\n", rm.LogSize(), byteCount(rm.LogBytes()))
		if err := rm.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "serve: WARNING: durable log latched an error: %v\n", err)
		}
	}
	return nil
}

// bootstrapReplica runs the follower half of the sync protocol once this
// node's own server is accepting: fetch a fuzzy snapshot from the primary
// and install it as the local state and recovery baseline. The primary
// starts shipping to this node's advertised URL as part of serving the
// sync; until the install completes, ship batches are refused retryably.
func bootstrapReplica(srv *server.Server, cfg serveNodeConfig) error {
	primary := transport.NewPeer(cfg.replicaOf)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := primary.WaitHealthy(ctx, time.Minute); err != nil {
		return err
	}
	meta, set, err := primary.ReplSync(ctx, cfg.advertiseURL())
	if err != nil {
		return err
	}
	if err := srv.InstallReplicaState(meta, set); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serve: replica synced from %s: epoch %d, %d buckets, plan seq %d, cursor segment %d record %d\n",
		cfg.replicaOf, meta.Epoch, meta.Buckets, meta.PlanSeq, meta.Cursor.Seg, meta.Cursor.Rec)
	return nil
}
