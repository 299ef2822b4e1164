package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"pstore/internal/node"
)

// runServeNode runs one partition-group node of a multi-process cluster
// (internal/node): an engine hosting machines m where m % nodes == node,
// behind a front end that serves both the transaction plane (forwarding keys
// it does not host to the hosting peer) and the node plane that pstore coord
// drives. Every node loads the same deterministic dataset and keeps only its
// share, so the union across nodes is exactly the single-process dataset.
func runServeNode(cfg node.Config, listen string, serveFor time.Duration) error {
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	n, err := node.Start(cfg, l)
	if err != nil {
		return err
	}
	start := time.Now()
	failed := waitServing(context.Background(), n.Server, l.Addr(), serveFor)
	_ = n.Close()
	if failed != nil {
		log.Printf("FATAL: %v", failed)
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
		cfg.ID, ec.Completed, ec.Errored, time.Since(start).Round(time.Millisecond),
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
