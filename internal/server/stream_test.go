package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pstore/internal/client"
	"pstore/internal/store"
	"pstore/internal/store/storetest"
	"pstore/internal/wire"
)

// peerTable is the mutable node → URL map a serving process hands its server.
type peerTable struct {
	mu   sync.Mutex
	urls []string
}

func (p *peerTable) get(node int) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.urls[node]
}

func (p *peerTable) set(node int, url string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.urls[node] = url
}

// streamNode is one listening node of a 2-node layout: machine i on node i, one
// partition each, buckets alternating between them. "whoami" answers with the
// label of the engine that ran it; "put" takes an int.
type streamNode struct {
	eng *store.Engine
	srv *Server
	url string
}

func newStreamNode(t *testing.T, id int, label string, peers *peerTable) *streamNode {
	t.Helper()
	eng, err := store.NewEngine(store.Config{
		MaxMachines: 2, PartitionsPerMachine: 1, Buckets: 64,
		QueueCapacity: 1 << 10, InitialMachines: 2, HostedMachines: []int{id},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]store.TxnFunc{
		"whoami": func(*store.Tx) (any, error) { return label, nil },
		"put":    func(tx *store.Tx) (any, error) { return nil, tx.Put("kv", tx.Key, tx.Args) },
	} {
		if err := eng.Register(name, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.SetArgsDecoder(storetest.Args[int]); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	t.Cleanup(eng.Stop)
	srv, err := New(Config{Engine: eng, Node: &NodeConfig{ID: id, Nodes: 2, PeerURL: peers.get, SetPeerURL: peers.set}})
	if err != nil {
		t.Fatal(err)
	}
	return &streamNode{eng: eng, srv: srv, url: serveLoopback(t, srv)}
}

// newStreamPair starts nodes 0 and 1, each forwarding to the other.
func newStreamPair(t *testing.T) (n0, n1 *streamNode) {
	t.Helper()
	peers := &peerTable{urls: make([]string, 2)}
	n0, n1 = newStreamNode(t, 0, "n0", peers), newStreamNode(t, 1, "n1", peers)
	peers.set(0, n0.url)
	peers.set(1, n1.url)
	return n0, n1
}

// keysOn returns n keys whose bucket node's plan places on the given node.
func keysOn(eng *store.Engine, node, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("key-%d", i); eng.MachineOfPartition(eng.PartitionOfKey(k)) == node {
			keys = append(keys, k)
		}
	}
	return keys
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func acceptedStreams(s *Server) int {
	s.acceptedMu.Lock()
	defer s.acceptedMu.Unlock()
	return len(s.accepted)
}

// TestForwardBatchOpensOneConnection sends node 0 a batch of 65 frames — one
// more than the generator's largest — whose keys all live on node 1: every
// frame is relayed over the one stream of that peer slot, and every reply
// comes back.
func TestForwardBatchOpensOneConnection(t *testing.T) {
	n0, n1 := newStreamPair(t)
	const n = 65
	reqs := make([]wire.Request, n)
	for i, k := range keysOn(n0.eng, 1, n) {
		reqs[i] = wire.Request{Txn: "whoami", Key: k}
	}
	resps, err := loopbackClient(t, n0.url, client.Config{}).ExecuteBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.Status != 200 || string(r.Value) != `"n1"` {
			t.Fatalf("frame %d: status %d value %s (%s), want node 1's answer", i, r.Status, r.Value, r.Error)
		}
	}
	if c := n1.srv.Counters(); c.Streams != 1 || c.Frames != n {
		t.Errorf("node 1 accepted %d streams carrying %d frames, want 1 and %d", c.Streams, c.Frames, n)
	}
	if c := n0.srv.Counters(); c.Forwarded != n || c.OK != 0 {
		t.Errorf("node 0 forwarded %d and ran %d, want %d and 0", c.Forwarded, c.OK, n)
	}
	// The status endpoint carries the same figures.
	w := httptest.NewRecorder()
	n0.srv.handleNodeStatus(w, httptest.NewRequest(http.MethodGet, wire.PathNodeStatus, nil))
	var st wire.NodeStatus
	if err := json.NewDecoder(w.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if fs := st.ForwardStreams; fs.Dials != 1 || fs.Redials != 0 || fs.Frames != n || fs.MaxInFlight < 2 || fs.MaxInFlight > n {
		t.Errorf("node 0 forward streams %+v, want 1 dial, no redial, %d frames, several in flight", fs, n)
	}
}

// TestForwardRelaysBeforeDecoding sends node 0 a request whose arguments do not
// decode, for a key node 1 hosts. Node 0 must not look past the key: the owner
// is the one that answers bad_request.
func TestForwardRelaysBeforeDecoding(t *testing.T) {
	n0, n1 := newStreamPair(t)
	key := keysOn(n0.eng, 1, 1)[0]
	cl := loopbackClient(t, n0.url, client.Config{})
	_, err := cl.Execute(context.Background(), "put", key, "not an int")
	var remote *client.RemoteError
	if !errors.As(err, &remote) || remote.Code != wire.CodeBadRequest {
		t.Fatalf("malformed args for a remote key: %v, want bad_request", err)
	}
	if c0, c1 := n0.srv.Counters(), n1.srv.Counters(); c0.BadRequests != 0 || c0.Forwarded != 1 || c1.BadRequests != 1 {
		t.Fatalf("node 0 refused %d and forwarded %d, node 1 refused %d; want the owner to refuse it",
			c0.BadRequests, c0.Forwarded, c1.BadRequests)
	}
	// The same request for a key node 0 hosts is refused right there.
	_, err = cl.Execute(context.Background(), "put", keysOn(n0.eng, 0, 1)[0], "not an int")
	if !errors.As(err, &remote) || remote.Code != wire.CodeBadRequest || n0.srv.Counters().BadRequests != 1 {
		t.Fatalf("malformed args for a local key: %v, want bad_request from node 0", err)
	}
	// And the curl-able adapter takes the same path.
	body, _ := json.Marshal(wire.Request{Txn: "whoami", Key: key})
	resp, err := http.Post(n0.url+wire.PathTxn, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out wire.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != 200 || string(out.Value) != `"n1"` {
		t.Fatalf("POST %s for a remote key: HTTP %d %s, %v", wire.PathTxn, resp.StatusCode, out.Value, err)
	}
}

// TestForwardPeerRewiring is the failover path: node 1's slot is repointed at
// its promoted replacement through /v1/node/peer. The stream to the old process
// is closed and the next forward reaches the new one.
func TestForwardPeerRewiring(t *testing.T) {
	n0, old := newStreamPair(t)
	promoted := newStreamNode(t, 1, "promoted", &peerTable{urls: []string{n0.url, ""}})
	key := keysOn(n0.eng, 1, 1)[0]
	cl := loopbackClient(t, n0.url, client.Config{})
	if v, err := cl.Execute(context.Background(), "whoami", key, nil); err != nil || string(v) != `"n1"` {
		t.Fatalf("forward before rewiring: %s, %v", v, err)
	}
	if n := acceptedStreams(old.srv); n != 1 {
		t.Fatalf("old node 1 serves %d streams, want node 0's", n)
	}

	body, _ := json.Marshal(wire.NodePeer{Node: 1, URL: promoted.url})
	w := httptest.NewRecorder()
	n0.srv.handleNodePeer(w, httptest.NewRequest(http.MethodPost, wire.PathNodePeer, bytes.NewReader(body)))
	if w.Code != 200 {
		t.Fatalf("rewiring: HTTP %d %s", w.Code, w.Body)
	}
	if v, err := cl.Execute(context.Background(), "whoami", key, nil); err != nil || string(v) != `"promoted"` {
		t.Fatalf("forward after rewiring: %s, %v", v, err)
	}
	waitFor(t, "the stream to the old node 1 to close", func() bool { return acceptedStreams(old.srv) == 0 })
	if fs := n0.srv.ForwardStreams(); fs.Dials != 2 || fs.Redials != 1 {
		t.Fatalf("forward streams %+v, want the one redial", fs)
	}
}

// TestShutdownClosesStreams checks both ends of a hijacked connection's
// lifetime: the HTTP server's header and idle timeouts do not apply to it, and
// Shutdown — whose http.Server no longer knows the connection — closes it,
// failing what is pending instead of leaving it to its deadline.
func TestShutdownClosesStreams(t *testing.T) {
	eng, err := store.NewEngine(store.Config{
		MaxMachines: 1, PartitionsPerMachine: 1, Buckets: 64, QueueCapacity: 1 << 10, InitialMachines: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	for name, p := range map[string]store.TxnFunc{
		"echo": func(tx *store.Tx) (any, error) { return tx.Key, nil },
		"held": func(tx *store.Tx) (any, error) { <-release; return tx.Key, nil },
	} {
		if err := eng.Register(name, p); err != nil {
			t.Fatal(err)
		}
	}
	eng.Start()
	t.Cleanup(eng.Stop)
	defer close(release)
	srv, err := New(Config{Engine: eng, ReadHeaderTimeout: 20 * time.Millisecond, IdleTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	cl := loopbackClient(t, "http://"+l.Addr().String(), client.Config{})

	if _, err := cl.Execute(context.Background(), "echo", "k", nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // five idle timeouts
	if _, err := cl.Execute(context.Background(), "echo", "k", nil); err != nil {
		t.Fatalf("call on a stream idle past the server's timeouts: %v", err)
	}
	if c := srv.Counters(); c.Streams != 1 || cl.Counters().TransportErrors != 0 {
		t.Fatalf("%d streams, %d transport errors; want the idle stream reused", c.Streams, cl.Counters().TransportErrors)
	}

	pending := make(chan error, 1)
	go func() {
		_, err := cl.Execute(context.Background(), "held", "k", nil)
		pending <- err
	}()
	waitFor(t, "the held call to arrive", func() bool { return srv.Counters().Frames == 3 })
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-pending:
		if err == nil {
			t.Fatal("a call pending at Shutdown succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a call pending at Shutdown is still waiting: its stream was not closed")
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if n := acceptedStreams(srv); n != 0 {
		t.Fatalf("%d streams still tracked after Shutdown", n)
	}
}

// extractToNode1 starts a cross-node move of all of partition 0 the way the
// coordinator does: node 0 extracts the buckets and from then on routes them to
// node 1, whose plan still names node 0. It returns the buckets, a key among
// them, and the function that lands the chunk on node 1.
func extractToNode1(t *testing.T, n0, n1 *streamNode) (moved []int, key string, install func()) {
	t.Helper()
	key = keysOn(n0.eng, 0, 1)[0]
	moved = n0.eng.OwnedBuckets(0)
	data, err := n0.eng.ExtractBuckets(moved, 0, 1, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	return moved, key, func() {
		if _, err := n1.eng.InstallBuckets(moved, data, 1, 0, 0); err != nil {
			t.Error(err)
		}
	}
}

// TestStaleRouteWaitsAtSource sends requests into the window of a cross-node
// move, through either node. Relayed at once they would bounce between two
// plans that name each other until their hops ran out (HTTP 500, in under a
// millisecond). Node 0, which knows it is the source, holds them instead until
// the coordinator's flip tells it the chunk has landed — delivered late here,
// after the install — and node 1 runs them.
func TestStaleRouteWaitsAtSource(t *testing.T) {
	n0, n1 := newStreamPair(t)
	moved, key, install := extractToNode1(t, n0, n1)
	answers := make(chan string, 2)
	for _, n := range []*streamNode{n0, n1} {
		cl := loopbackClient(t, n.url, client.Config{Deadline: 5 * time.Second})
		go func() {
			v, err := cl.Execute(context.Background(), "whoami", key, nil)
			answers <- fmt.Sprint(string(v), err)
		}()
	}
	// Both end up waiting on node 0: its own, and the one node 1 relayed.
	waitFor(t, "both requests to reach node 0", func() bool { return n0.srv.Counters().Frames == 2 })
	install()
	select {
	case a := <-answers:
		t.Fatalf("a request was answered %s before node 0 heard the chunk had landed", a)
	case <-time.After(50 * time.Millisecond):
	}
	if err := n0.eng.ApplyOwnership(moved, 1); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if a := <-answers; a != `"n1"<nil>` {
			t.Fatalf("request in the move's window: %s; want node 1 to run it", a)
		}
	}
	if c0, c1 := n0.srv.Counters(), n1.srv.Counters(); c0.Internal+c1.Internal != 0 || c0.Forwarded != 2 || c1.Forwarded != 1 {
		t.Fatalf("node 0 %+v, node 1 %+v: want node 1's one relay, node 0's two and no 500", c0, c1)
	}
}

// TestStaleRouteBounceIsBounded sets two plans against each other with no move
// behind it — nothing was extracted, so nobody waits: the request must end as a
// 500 as soon as its hops are spent.
func TestStaleRouteBounceIsBounded(t *testing.T) {
	n0, n1 := newStreamPair(t)
	key := keysOn(n0.eng, 0, 1)[0]
	if err := n0.eng.ApplyOwnership(n0.eng.OwnedBuckets(0), 1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := loopbackClient(t, n0.url, client.Config{}).Execute(context.Background(), "whoami", key, nil)
	var remote *client.RemoteError
	if !errors.As(err, &remote) || remote.Code != wire.CodeInternal {
		t.Fatalf("request between plans that never converge: %v, want internal", err)
	}
	if took := time.Since(start); took >= handoffWait {
		t.Fatalf("gave up after %v; a bounce with no move behind it must not wait", took)
	}
	if relays := n0.srv.Counters().Forwarded + n1.srv.Counters().Forwarded; relays != maxForwardHops {
		t.Fatalf("%d relays, want %d", relays, maxForwardHops)
	}
}

// TestHandoffConfirmationLost never tells node 0 that its chunk landed. A
// request it holds still ends: one out of time is answered as a deadline, not
// as a failed peer, and leaves the others alone; one with time left is relayed
// after handoffWait to node 1, which by then runs it.
func TestHandoffConfirmationLost(t *testing.T) {
	n0, n1 := newStreamPair(t)
	_, key, install := extractToNode1(t, n0, n1)
	install()
	patient := make(chan string, 1)
	go func() {
		v, err := loopbackClient(t, n0.url, client.Config{Deadline: 5 * time.Second}).Execute(context.Background(), "whoami", key, nil)
		patient <- fmt.Sprint(string(v), err)
	}()
	start := time.Now()
	_, err := loopbackClient(t, n0.url, client.Config{Deadline: 50 * time.Millisecond}).Execute(context.Background(), "whoami", key, nil)
	if !errors.Is(err, store.ErrDeadlineExceeded) || time.Since(start) >= handoffWait {
		t.Fatalf("held request with 50ms to live: %v after %v, want a deadline when its time is up", err, time.Since(start))
	}
	if a := <-patient; a != `"n1"<nil>` || time.Since(start) < handoffWait {
		t.Fatalf("held request with time left: %s after %v, want node 1's answer once %v have passed", a, time.Since(start), handoffWait)
	}
	if c0, c1 := n0.srv.Counters(), n1.srv.Counters(); c0.Internal+c1.Internal != 0 {
		t.Fatalf("node 0 %+v, node 1 %+v: want no 500", c0, c1)
	}
}
