// Package nodetest is how the tests of the packages around node bring nodes
// up in one process: one node (Node), or a cluster of them with a Remote
// topology over their loopback listeners (Start). Each takes the test, a
// default config and options that adjust it, and registers what it starts
// for the test's cleanup. Everything crosses the wire as between separate
// processes.
package nodetest

import (
	"context"
	"net"
	"testing"
	"time"

	"pstore/internal/faults"
	"pstore/internal/node"
	"pstore/internal/transport"
	"pstore/internal/wal"
)

// Option adjusts what Node or Start brings up.
type Option func(*options)

type options struct {
	each      []func(i int, cfg *node.Config)
	followers func(i int, cfg *node.Config)
	listener  net.Listener
}

// Each adjusts node i's copy of the config before it starts — its own data
// directory, say. Node's one node is node 0.
func Each(f func(i int, cfg *node.Config)) Option {
	return func(o *options) { o.each = append(o.each, f) }
}

// MemFS logs node i to fss[i], in a directory named data.
func MemFS(fss ...*wal.MemFS) Option {
	return Each(func(i int, cfg *node.Config) { cfg.Recovery.DataDir, cfg.Recovery.FS = "data", fss[i] })
}

// SegmentBytes rotates every node's log segments at n bytes.
func SegmentBytes(n int64) Option {
	return Each(func(_ int, cfg *node.Config) { cfg.Recovery.SegmentBytes = n })
}

// Faults arms s on the WAL stream every node ships as a primary.
func Faults(s *faults.Schedule) Option {
	return Each(func(_ int, cfg *node.Config) { cfg.Faults = s })
}

// Listener serves Node's node on l instead of a fresh loopback listener: a
// restarted node takes its predecessor's address.
func Listener(l net.Listener) Option {
	return func(o *options) { o.listener = l }
}

// Followers gives each node of Start's cluster a follower: the default
// config in node i's slot, replicating node i, adjusted by f — not by Each.
func Followers(f func(i int, cfg *node.Config)) Option {
	return func(o *options) { o.followers = f }
}

// Node starts one node with cfg on a loopback listener; a replica syncs from
// its primary once it serves. t's cleanup closes it.
func Node(t testing.TB, cfg node.Config, opts ...Option) *node.Node {
	t.Helper()
	o := apply(opts)
	for _, f := range o.each {
		f(0, &cfg)
	}
	l := o.listener
	if l == nil {
		l = listen(t)
	}
	n, err := node.Start(cfg, l)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// Cluster is what Start brought up.
type Cluster struct {
	Nodes []*node.Node
	// Followers holds node i's follower at i, given the Followers option.
	Followers []*node.Node
	Remote    *transport.Remote
}

// Start starts n nodes of one cluster, each with cfg, its own ID and every
// node's URL in Peers, and connects a Remote topology over them. t's cleanup
// stops it all.
func Start(t testing.TB, n int, cfg node.Config, opts ...Option) *Cluster {
	t.Helper()
	o := apply(opts)
	ls := make([]net.Listener, n)
	cfg.Nodes, cfg.Peers = n, make([]string, n)
	for i := range ls {
		ls[i] = listen(t)
		cfg.Peers[i] = "http://" + ls[i].Addr().String()
	}
	c := &Cluster{Nodes: make([]*node.Node, n)}
	peers := make([]*transport.Peer, n)
	for i, l := range ls {
		ncfg := cfg
		ncfg.ID = i
		for _, f := range o.each {
			f(i, &ncfg)
		}
		c.Nodes[i] = Node(t, ncfg, Listener(l))
		peers[i] = transport.NewPeer(c.Nodes[i].URL)
	}
	if o.followers != nil {
		for i, p := range c.Nodes {
			fcfg := cfg
			fcfg.ID, fcfg.Peers, fcfg.ReplicaOf = i, nil, p.URL
			o.followers(i, &fcfg)
			c.Followers = append(c.Followers, Node(t, fcfg))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	remote, err := transport.NewRemote(ctx, peers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	c.Remote = remote
	return c
}

func apply(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

func listen(t testing.TB) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l
}
