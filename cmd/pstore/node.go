package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/faults"
	"pstore/internal/node"
	"pstore/internal/recovery"
	"pstore/internal/store"
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
	faults        *faults.Schedule // ship faults only
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
	switch {
	case cfg.advertise != "":
		return cfg.advertise
	case strings.HasPrefix(cfg.listen, ":"):
		return "http://127.0.0.1" + cfg.listen
	}
	return "http://" + cfg.listen
}

// runServeNode runs one partition-group node of a multi-process cluster
// (internal/node): an engine hosting machines m where m % nodes == node,
// behind a front end that serves both the transaction plane (forwarding keys
// it does not host to the hosting peer) and the node plane that pstore coord
// drives. Every node loads the same deterministic dataset and keeps only its
// share, so the union across nodes is exactly the single-process dataset.
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
	var shipFaults *faults.Schedule
	if cfg.faults.Arms(faults.ShipPlane) {
		shipFaults = cfg.faults
		fmt.Fprintf(os.Stderr, "serve: ship-fault schedule armed: %s\n", shipFaults)
	}
	engCfg := deployedEngine(cfg.maxM, cfg.initial)
	engCfg.Overload = olCfg
	spec := deployedDataset(cfg.seed)
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
		fmt.Fprintf(os.Stderr, "serve: overload plane armed: %s\n", olCfg)
	}
	if cfg.syncCommit {
		fmt.Fprintf(os.Stderr, "serve: synchronous commit armed: acks wait for follower durability once a follower syncs\n")
	}

	l, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	n, err := node.Start(node.Config{
		ID:       cfg.node,
		Nodes:    cfg.nodes,
		Peers:    peers,
		Store:    engCfg,
		Register: b2w.Register,
		Load:     func(eng *store.Engine) error { return b2w.Load(eng, spec) },
		Recovery: recovery.Config{DataDir: cfg.dataDir},

		ReplicaOf:               cfg.replicaOf,
		Advertise:               cfg.advertiseURL(),
		Faults:                  shipFaults,
		SyncCommit:              cfg.syncCommit,
		FollowerCheckpointEvery: cfg.followerCkptEvery,

		// The trace contract is the one single-process serve publishes, so a
		// drive process pointed at any node replays the same workload. Only a
		// driver reads it, so the month of trace behind its rate scale is
		// generated on the first request, not at every start.
		Info: infoFunc(sync.OnceValues(func() ([]byte, error) {
			full, err := workload.SyntheticB2W(workload.DefaultB2WConfig(cfg.seed, 28+cfg.days))
			if err != nil {
				return nil, err
			}
			_, info.RateScale = capacityScale(engCfg, cfg.maxM, cfg.minute, full.Slice(28*workload.MinutesPerDay, full.Len()).Max())
			return json.Marshal(info)
		})),
	}, l)
	if err != nil {
		return err
	}
	start := time.Now()
	failed := waitServing(context.Background(), n.Server, l.Addr(), cfg.serveFor)
	_ = n.Close()
	if failed != nil {
		fmt.Fprintf(os.Stderr, "serve: FATAL: %v\n", failed)
		return errReported
	}

	sc := n.Server.Counters()
	fmt.Printf("wire: %d requests in %d frames (%d streams): %d ok, %d txn-errors, %d bad-requests, %d internal, %d forwarded\n",
		sc.Requests, sc.Frames, sc.Streams, sc.OK, sc.TxnErrors, sc.BadRequests, sc.Internal, sc.Forwarded)
	ec := n.Engine.Counters()
	held := ec.CommitWaits
	var commitWait time.Duration
	if held > 0 {
		commitWait = time.Duration(ec.CommitWaitNs / held)
	}
	ws := n.Recovery.WALStats()
	fmt.Printf("node %d served %d transactions (%d failed) in %v; %d replies held for durability, mean commit wait %v; WAL shipped by %d tail reads, %d file reads",
		cfg.node, ec.Completed, ec.Errored, time.Since(start).Round(time.Millisecond),
		held, commitWait.Round(time.Microsecond), ws.ShipTailReads, ws.ShipFileReads)
	if as := n.Server.ApplyStats(); as.Fsyncs > 0 {
		fmt.Printf("; %d batches accepted, %.1f records per follower fsync, max apply backlog %d",
			as.Batches, float64(as.Records)/float64(as.Fsyncs), as.MaxBacklog)
	}
	var overshoot time.Duration
	if ec.Holds > 0 {
		overshoot = time.Duration(ec.HoldOverNs / ec.Holds)
	}
	fmt.Printf("; %d holds, mean overshoot %v", ec.Holds, overshoot.Round(time.Microsecond))
	fs := n.Server.ForwardStreams()
	fmt.Printf("; forward streams: %d dials, %d redials, %d frames, max %d in flight\n",
		fs.Dials, fs.Redials, fs.Frames, fs.MaxInFlight)
	printRecoverySummary(n.Recovery)
	return nil
}
