// Package nodetest starts in-process clusters of nodes for the tests of the
// packages around node.
package nodetest

import (
	"context"
	"net"
	"testing"
	"time"

	"pstore/internal/node"
	"pstore/internal/transport"
)

// Start starts n nodes of one cluster, each with cfg, its own ID and a
// loopback listener, every node's URL in Peers, and connects a Remote
// topology over them. each, when given, adjusts node i's copy of cfg before
// it starts — its own data directory, say. Everything crosses the wire as
// between separate processes; t's cleanup stops it all.
func Start(t testing.TB, n int, cfg node.Config, each ...func(i int, cfg *node.Config)) ([]*node.Node, *transport.Remote) {
	t.Helper()
	ls := make([]net.Listener, n)
	cfg.Nodes, cfg.Peers = n, make([]string, n)
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i], cfg.Peers[i] = l, "http://"+l.Addr().String()
	}
	nodes := make([]*node.Node, n)
	peers := make([]*transport.Peer, n)
	for i, l := range ls {
		ncfg := cfg
		ncfg.ID = i
		for _, f := range each {
			f(i, &ncfg)
		}
		nd, err := node.Start(ncfg, l)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		nodes[i], peers[i] = nd, transport.NewPeer(nd.URL)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	remote, err := transport.NewRemote(ctx, peers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	return nodes, remote
}
