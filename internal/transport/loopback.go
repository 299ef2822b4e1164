package transport

import (
	"context"
	"fmt"
	"net"
	"time"

	"pstore/internal/recovery"
	"pstore/internal/server"
	"pstore/internal/store"
	"pstore/internal/wire"
)

// LoopbackConfig assembles an in-process multi-node cluster: n node engines,
// each hosting its share of machines, each behind a real HTTP server on a
// loopback listener, tied together by a Remote topology. Everything crosses
// the wire exactly as separate OS processes would — only the process
// boundary is simulated — which makes it the reference harness for the
// single-process vs multi-process parity tests of this package and of
// internal/cluster.
type LoopbackConfig struct {
	// Nodes is the node count; machine m is hosted by node m % Nodes.
	Nodes int
	// Store is the shared cluster geometry. HostedMachines is derived per
	// node and must be empty here.
	Store store.Config
	// Register installs the workload's procedures, and their args decoder, on
	// each node engine before it starts. Required.
	Register func(eng *store.Engine) error
	// DecodeRow is the workload's chunk codec.
	DecodeRow wire.RowDecoder
	// Recovery attaches a per-node recovery manager (command log + crash/
	// restore plane). Without it, Crash/Restore on the topology fail.
	Recovery bool
}

// Loopback is a running in-process multi-node cluster. Close tears it down.
type Loopback struct {
	engines   []*store.Engine
	managers  []*recovery.Manager
	servers   []*server.Server
	listeners []net.Listener
	peers     []*Peer
	remote    *Remote
}

// NewLoopback starts the node engines and servers and connects a Remote
// topology over them.
func NewLoopback(cfg LoopbackConfig) (*Loopback, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("transport: loopback needs at least 1 node, got %d", cfg.Nodes)
	}
	if len(cfg.Store.HostedMachines) != 0 {
		return nil, fmt.Errorf("transport: loopback derives HostedMachines; leave it empty")
	}
	if cfg.Register == nil {
		return nil, fmt.Errorf("transport: loopback needs a Register function")
	}
	lb := &Loopback{}
	ok := false
	defer func() {
		if !ok {
			_ = lb.Close()
		}
	}()

	// Bind every listener first so each node's forwarding table can name all
	// peers before any server starts.
	addrs := make([]string, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("transport: loopback listener %d: %w", i, err)
		}
		lb.listeners = append(lb.listeners, l)
		addrs[i] = "http://" + l.Addr().String()
	}

	for i := 0; i < cfg.Nodes; i++ {
		scfg := cfg.Store
		for m := 0; m < scfg.MaxMachines; m++ {
			if m%cfg.Nodes == i {
				scfg.HostedMachines = append(scfg.HostedMachines, m)
			}
		}
		eng, err := store.NewEngine(scfg)
		if err != nil {
			return nil, fmt.Errorf("transport: loopback engine %d: %w", i, err)
		}
		lb.engines = append(lb.engines, eng)
		if err := cfg.Register(eng); err != nil {
			return nil, fmt.Errorf("transport: loopback engine %d register: %w", i, err)
		}
		var rm *recovery.Manager
		if cfg.Recovery {
			rm = recovery.NewManager(eng)
		}
		lb.managers = append(lb.managers, rm)
		eng.Start()

		srv, err := server.New(server.Config{
			Engine: eng,
			Node: &server.NodeConfig{
				ID:        i,
				Nodes:     cfg.Nodes,
				Recovery:  rm,
				DecodeRow: cfg.DecodeRow,
				PeerURL:   func(node int) string { return addrs[node] },
			},
		})
		if err != nil {
			return nil, fmt.Errorf("transport: loopback server %d: %w", i, err)
		}
		lb.servers = append(lb.servers, srv)
		go func(s *server.Server, l net.Listener) { _ = s.Serve(l) }(srv, lb.listeners[i])
		lb.peers = append(lb.peers, NewPeer(addrs[i]))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, p := range lb.peers {
		if err := p.WaitHealthy(ctx, 5*time.Second); err != nil {
			return nil, fmt.Errorf("transport: loopback node %d: %w", i, err)
		}
	}
	remote, err := NewRemote(ctx, lb.peers)
	if err != nil {
		return nil, err
	}
	lb.remote = remote
	ok = true
	return lb, nil
}

// Remote returns the coordinator-side topology over the loopback nodes.
func (lb *Loopback) Remote() *Remote { return lb.remote }

// Engines returns the node engines in node order — the hook test loaders use
// to populate every node with the same deterministic dataset (each engine
// keeps the keys it hosts and refuses the rest).
func (lb *Loopback) Engines() []*store.Engine { return lb.engines }

// Managers returns the per-node recovery managers (nil entries when the
// loopback was built without recovery).
func (lb *Loopback) Managers() []*recovery.Manager { return lb.managers }

// Peers returns the node clients in node order.
func (lb *Loopback) Peers() []*Peer { return lb.peers }

// Servers returns the node front ends in node order.
func (lb *Loopback) Servers() []*server.Server { return lb.servers }

// Addrs returns the node base URLs in node order.
func (lb *Loopback) Addrs() []string {
	out := make([]string, len(lb.peers))
	for i, p := range lb.peers {
		out[i] = p.Addr()
	}
	return out
}

// Checkpoint installs a baseline checkpoint on every node — what a fresh
// deployment does right after loading, so restores never replay the bulk
// load.
func (lb *Loopback) Checkpoint() error {
	for i, rm := range lb.managers {
		if rm == nil {
			return fmt.Errorf("transport: loopback node %d has no recovery manager", i)
		}
		if _, err := rm.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// Close shuts the servers and engines down. Safe on a partially-built
// loopback.
func (lb *Loopback) Close() error {
	if lb.remote != nil {
		_ = lb.remote.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range lb.servers {
		_ = s.Shutdown(ctx)
	}
	for _, l := range lb.listeners[len(lb.servers):] {
		// Listeners bound but never handed to a server.
		_ = l.Close()
	}
	for _, e := range lb.engines {
		e.Stop()
	}
	return nil
}
