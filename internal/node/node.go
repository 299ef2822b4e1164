// Package node is one P-Store node, assembled — a storage engine hosting the
// node's share of the cluster's machines, the recovery manager that logs it,
// the server that fronts it — and brought up by a cold start, a dataset load
// or a sync from its primary. It is the one way a P-Store process assembles
// its engine: `pstore serve -node` runs one node per process, single-process
// `serve`, coord's oracle and the live experiments open one node hosting
// every machine, and tests start several in one process the same way.
package node

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"pstore/internal/recovery"
	"pstore/internal/server"
	"pstore/internal/store"
)

// Config describes one node: its identity and replication settings, which its
// server runs by — the node hosts machine m when m % Nodes == ID, and a zero
// Nodes is a single node hosting every machine; Advertise defaults to the
// listener's address — and what the node assembles.
type Config struct {
	server.Config
	// Store is the cluster's engine shape; HostedMachines is derived. Its
	// Deadline is also the server's default request deadline.
	Store store.Config
	// Register installs the workload's procedures, each with its argument
	// type, before the engine starts.
	Register func(*store.Engine) error
	// Load populates a fresh primary as recovery.Manager.Bootstrap's load, so
	// the dataset's durable form is its first image set; nil leaves it empty.
	Load func(*store.Engine) error
	// Recovery configures the command log: with a DataDir, an on-disk WAL
	// that a restarted node cold-starts from.
	Recovery recovery.Config
}

// Node is an assembled node. Close stops it.
type Node struct {
	Engine   *store.Engine
	Recovery *recovery.Manager
	Server   *server.Server
	// URL is the base URL the node's peers and primaries reach it at.
	URL string
	// ColdStart is the rebuild Open ran from a data directory that held a
	// previous life's state; nil after a dataset load or for a replica.
	ColdStart *recovery.ColdStartStats
}

// Start opens the node and serves it on l, which it owns from then on: a
// failed start closes it. A replica's sync runs once the node serves, and a
// failure there — like any later one that ends the node, a rejoin that could
// not complete — arrives on Server.Failed.
func Start(cfg Config, l net.Listener) (*Node, error) {
	n, err := Open(cfg)
	if err != nil {
		l.Close()
		return nil, err
	}
	n.Serve(l)
	if cfg.ReplicaOf != "" {
		n.Server.Follow()
	}
	return n, nil
}

// Open assembles the node — engine, recovery manager, server — and gives a
// primary its state by a cold start or the dataset load, but serves nothing:
// a single-process run drives the engine in-process and serves it only on
// request (Serve). A failed open closes what it built.
func Open(cfg Config) (*Node, error) {
	n := &Node{URL: cfg.Advertise}
	if err := n.assemble(cfg); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

// Serve serves the node's server on l, which it owns from then on. A node
// opened without an Advertise URL is reached at l's address.
func (n *Node) Serve(l net.Listener) {
	if n.URL == "" {
		n.URL = "http://" + l.Addr().String()
		n.Server.SetAdvertise(n.URL)
	}
	go n.Server.Serve(l)
}

func (n *Node) assemble(cfg Config) error {
	if err := cfg.Normalize(); err != nil {
		return err
	}
	scfg := cfg.Store
	scfg.HostedMachines = nil
	for m := cfg.ID; m < scfg.MaxMachines; m += cfg.Nodes {
		scfg.HostedMachines = append(scfg.HostedMachines, m)
	}
	eng, err := store.NewEngine(scfg)
	if err != nil {
		return err
	}
	n.Engine = eng
	if err := cfg.Register(eng); err != nil {
		return err
	}
	// The recovery manager attaches before Start so the crash plane works
	// from the first transaction on.
	if n.Recovery, err = recovery.New(eng, cfg.Recovery); err != nil {
		return err
	}
	eng.Start()
	if err := n.bringUp(cfg, scfg.HostedMachines); err != nil {
		return err
	}
	n.Server, err = server.New(eng, n.Recovery, scfg.Deadline, cfg.Config)
	return err
}

// bringUp gives a primary its state: a cold start when its data directory
// has some, the dataset load otherwise. A replica gets its state from its
// primary once it serves; here it only needs a directory without any.
func (n *Node) bringUp(cfg Config, hosted []int) error {
	rm := n.Recovery
	switch {
	case cfg.ReplicaOf != "":
		if rm.HasColdState() {
			return fmt.Errorf("replica mode needs a fresh -data-dir; %s already has state (cold-restart it as a primary instead)", cfg.Recovery.DataDir)
		}
		log.Printf("node %d/%d hosting machines %v as warm replica of %s", cfg.ID, cfg.Nodes, hosted, cfg.ReplicaOf)
	case rm.HasColdState():
		log.Printf("node %d/%d hosting machines %v, cold-starting from %s", cfg.ID, cfg.Nodes, hosted, cfg.Recovery.DataDir)
		cs, err := rm.ColdStart()
		if err != nil {
			return fmt.Errorf("cold start from %s: %w", cfg.Recovery.DataDir, err)
		}
		n.ColdStart = &cs
		log.Printf("cold start rebuilt %d machines / %d partitions: %d images, %d commands replayed, %s of log, in %v",
			cs.Machines, cs.Partitions, cs.Snapshots, cs.Replayed, ByteCount(cs.LogBytes),
			cs.Duration.Round(time.Millisecond))
	case cfg.Load != nil:
		log.Printf("node %d/%d hosting machines %v, loading dataset", cfg.ID, cfg.Nodes, hosted)
		start := time.Now()
		images, err := rm.Bootstrap(func() error { return cfg.Load(n.Engine) })
		if err != nil {
			return fmt.Errorf("loading dataset: %w", err)
		}
		log.Printf("dataset loaded as a baseline image set of %d images in %v, %d WAL records appended",
			images, time.Since(start).Round(time.Millisecond), rm.WALStats().Appends)
	}
	return nil
}

// Close stops the node — its server, with the shipper, sync or rejoin it
// runs, then its engine, then its log — and returns the log's close error.
// Closing a closed node does nothing more.
func (n *Node) Close() error {
	if n.Server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = n.Server.Shutdown(ctx) // what did not finish by then is in the log
	}
	if n.Engine != nil {
		n.Engine.Stop()
	}
	if n.Recovery != nil {
		return n.Recovery.Close()
	}
	return nil
}

// ByteCount renders a byte total human-readably for the node's log lines and
// summaries.
func ByteCount(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
