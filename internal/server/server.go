// Package server is the P-Store network front end: it serves the storage
// engine over a socket, turning the in-process client/engine boundary into a
// real wire. Transactions arrive as frames on persistent multiplexed streams
// (wire.PathStream: executed concurrently, each answered when it finishes);
// POST /v1/txn runs one JSON-encoded transaction per HTTP request through the
// same path, for curl.
//
// The engine's overload plane becomes real backpressure here: a request
// refused by admission control returns 429, a request that
// expired in a partition queue returns 504, and a request routed to a
// crashed machine returns 503 — each with a machine-readable retry hint
// sized from the destination partition's estimated queueing delay, so
// remote clients can back off exactly as far as the backlog warrants.
// Per-request deadlines propagate from the frame (or the X-Pstore-Deadline-Ms
// header) into ExecuteIDContext, bounding the submission wait on saturated
// queues.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pstore/internal/faults"
	"pstore/internal/recovery"
	"pstore/internal/store"
	"pstore/internal/wire"
)

// Config is one node's identity and replication settings. Every server is one
// node of a cluster: it serves the /v1/node/* coordination vocabulary next to
// the transaction endpoints, and forwards transactions for partitions hosted
// elsewhere to their hosting peer.
type Config struct {
	// ID is this node's index and Nodes the cluster's node count, one when
	// zero; machine m is hosted by node m % Nodes on every node, so routing
	// needs no membership protocol.
	ID, Nodes int
	// Peers are the nodes' base URLs ("http://host:port") in node order, for
	// transaction forwarding. The server keeps its own copy, which
	// /v1/node/peer rewires after a failover; nil disables forwarding —
	// not-owned refusals surface to the client as retryable 503s — and
	// refuses rewiring.
	Peers []string
	// ReplicaOf, when non-empty, starts this node as a warm follower of the
	// primary at that base URL: client transactions are refused until
	// promotion, and the /v1/repl/ship endpoint takes in the primary's WAL.
	// Follow runs its first sync.
	ReplicaOf string
	// Advertise is the base URL this node names when it syncs from a primary,
	// for the primary to ship to; SetAdvertise fills it in when empty.
	Advertise string
	// Faults and SyncCommit configure the shipper this node runs as a
	// primary (transport.ShipperConfig's Faults and SyncCommit).
	Faults     *faults.Schedule
	SyncCommit bool
	// Info is served as JSON at /v1/info — the place a serving process
	// publishes its trace parameters so a remote load generator can replay
	// exactly the workload the server was provisioned for.
	Info any
}

// Normalize makes a zero Nodes one node and refuses an ID outside the cluster
// or a peer table that does not name every node — a forward to a slot it
// lacks would index past it.
func (c *Config) Normalize() error {
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.Nodes < 1 || c.ID < 0 || c.ID >= c.Nodes {
		return fmt.Errorf("server: node id %d outside [0, %d)", c.ID, c.Nodes)
	}
	if c.Peers != nil && len(c.Peers) != c.Nodes {
		return fmt.Errorf("server: %d peer URLs for %d nodes", len(c.Peers), c.Nodes)
	}
	return nil
}

// readHeaderTimeout bounds header parsing per connection (connection hygiene
// against slowloris peers); idleTimeout closes keep-alive connections idle
// that long. Neither applies to a transaction stream once it is accepted.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Counters are the server's cumulative wire-level counts.
type Counters struct {
	// Requests counts transactions that arrived as /v1/txn requests; Streams
	// counts transaction streams accepted and Frames the transactions that
	// arrived on them, forwarded-in ones included.
	Requests int64
	Streams  int64
	Frames   int64
	// OK counts successful executions; TxnErrors counts procedures that
	// executed and returned an application error (422).
	OK        int64
	TxnErrors int64
	// Rejected429 counts overload refusals served as 429;
	// Deadline504 queue-deadline expiries served as 504; Down503 crashed
	// partitions (and engine shutdown) served as 503; BadRequests malformed
	// or unknown-transaction requests served as 400; Internal everything
	// served as 500.
	Rejected429 int64
	Deadline504 int64
	Down503     int64
	BadRequests int64
	Internal    int64
	// Forwarded counts transactions relayed to their hosting peer.
	Forwarded int64
}

// Server fronts one node: its engine and the recovery manager that logs it.
// Create with New, run with Serve, stop with Shutdown.
type Server struct {
	eng *store.Engine
	rm  *recovery.Manager
	cfg Config
	// deadline applies to requests that carry none; zero imposes none.
	deadline time.Duration
	handles  map[string]store.TxnID
	httpSrv  *http.Server

	shutdownCh   chan struct{}
	shutdownOnce sync.Once

	requests    atomic.Int64
	streams     atomic.Int64
	frames      atomic.Int64
	ok          atomic.Int64
	txnErrors   atomic.Int64
	rejected    atomic.Int64
	deadline504 atomic.Int64
	down503     atomic.Int64
	badRequests atomic.Int64
	internal    atomic.Int64
	forwarded   atomic.Int64

	// peers relays not-owned transactions to hosting peers: one stream per
	// peer slot, dialled by the first forward that needs it, to the slot's
	// URL in peerURLs. Both are nil when Config.Peers is.
	peers    []*wire.Mux
	peerMu   sync.RWMutex
	peerURLs []string

	// accepted holds the transaction streams being served. They are hijacked
	// connections, outside http.Server's bookkeeping, so Shutdown closes them
	// itself; nil once it has.
	acceptedMu sync.Mutex
	accepted   map[net.Conn]struct{}

	// repl is the node's replication role and what the role owns; apply
	// brings a follower's memory up to its log; arcs are the shipper, sync
	// and rejoin the node runs beside its handlers.
	repl  replState
	apply *applier
	arcs  arcs
	// installMu runs chunk installs one at a time, and none while a sync body
	// is cut: an install's record, its install and its flip land all before
	// the body's cursor and snapshot or all after.
	installMu sync.Mutex

	failed chan error
}

// New builds the server of a node over its started engine and the recovery
// manager logging it; deadline bounds requests that carry none. Request
// arguments decode into the type each procedure was registered with
// (store.Engine.DecodeArgs), and the engine's transaction catalog is
// snapshotted once: registration is closed after Start, so the hot path
// resolves names against an immutable map.
func New(eng *store.Engine, rm *recovery.Manager, deadline time.Duration, cfg Config) (*Server, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	s := &Server{
		eng:        eng,
		rm:         rm,
		cfg:        cfg,
		deadline:   deadline,
		peerURLs:   slices.Clone(cfg.Peers),
		handles:    make(map[string]store.TxnID),
		shutdownCh: make(chan struct{}),
		accepted:   make(map[net.Conn]struct{}),
		failed:     make(chan error, 1),
	}
	s.arcs.ctx, s.arcs.cancel = context.WithCancel(context.Background())
	s.apply = newApplier(s)
	for id, name := range eng.TxnNames() {
		s.handles[name] = store.TxnID(id)
	}
	mux := http.NewServeMux()
	mux.HandleFunc(wire.PathTxn, s.handleTxn)
	mux.HandleFunc(wire.PathStream, s.handleStream)
	mux.HandleFunc(wire.PathTxns, s.handleTxns)
	mux.HandleFunc(wire.PathInfo, s.handleInfo)
	mux.HandleFunc(wire.PathHealth, s.handleHealth)
	mux.HandleFunc(wire.PathShutdown, s.handleShutdown)
	s.registerNodeHandlers(mux)
	if s.peerURLs != nil {
		s.peers = make([]*wire.Mux, cfg.Nodes)
		for node := range s.peers {
			s.peers[node] = wire.NewMux(func() string { return s.peerURL(node) })
		}
	}
	if cfg.ReplicaOf != "" {
		s.repl.mu.Lock()
		_ = s.become(roleSyncing) // a new node is a primary, which may start a sync
		s.repl.mu.Unlock()
	}
	rm.SetRound(func() {
		if _, err := s.checkpoint(); err != nil {
			log.Printf("checkpoint round at the log bound failed, due again at the next: %v", err)
		}
	})
	s.httpSrv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	return s, nil
}

// SetAdvertise names url as the base URL this node gives a primary it syncs
// from, unless Config.Advertise named one. Call it before Serve.
func (s *Server) SetAdvertise(url string) {
	if s.cfg.Advertise == "" {
		s.cfg.Advertise = url
	}
}

// Serve accepts connections on l until Shutdown. It blocks; a clean
// shutdown returns nil.
func (s *Server) Serve(l net.Listener) error {
	if err := s.httpSrv.Serve(l); !errors.Is(err, http.ErrServerClosed) {
		s.fail(err)
		return err
	}
	return nil
}

// Failed receives the error that ended this server's service: its listener
// failed or a replica sync or a rejoin could not complete.
// Whoever serves the server stops it then.
func (s *Server) Failed() <-chan error { return s.failed }

func (s *Server) fail(err error) {
	select {
	case s.failed <- err:
	default: // the first failure is the one reported
	}
}

// Shutdown gracefully stops the server: no new connections, in-flight HTTP
// requests run to ctx's deadline, then the transaction streams — accepted and
// forwarding — are closed. A checkpoint round finishes and a sync or rejoin is
// cancelled first, and a follower's applier stops after the batch it is on;
// what it leaves unapplied is in the log, where a cold start finds it. The
// shipper stops last, so requests waiting on its follower's acks can still
// complete.
func (s *Server) Shutdown(ctx context.Context) error {
	s.rm.SetRound(nil)
	s.stopArcs()
	s.apply.stop(ctx)
	err := s.httpSrv.Shutdown(ctx)
	s.acceptedMu.Lock()
	accepted := s.accepted
	s.accepted = nil
	s.acceptedMu.Unlock()
	for conn := range accepted {
		conn.Close()
	}
	for _, m := range s.peers {
		m.Close()
	}
	s.stopShipper()
	return err
}

// ShutdownRequested is closed when a client posts /v1/shutdown — the hook a
// serving process uses to stop after a remote load generator finishes its
// trace.
func (s *Server) ShutdownRequested() <-chan struct{} { return s.shutdownCh }

// Counters snapshots the wire-level counters.
func (s *Server) Counters() Counters {
	return Counters{
		Requests:    s.requests.Load(),
		Streams:     s.streams.Load(),
		Frames:      s.frames.Load(),
		OK:          s.ok.Load(),
		TxnErrors:   s.txnErrors.Load(),
		Rejected429: s.rejected.Load(),
		Deadline504: s.deadline504.Load(),
		Down503:     s.down503.Load(),
		BadRequests: s.badRequests.Load(),
		Internal:    s.internal.Load(),
		Forwarded:   s.forwarded.Load(),
	}
}

// execute runs one encoded wire.Request and returns the encoded wire.Response.
// It never returns transport errors — every outcome, success or failure, is a
// Response. hops is how many node-to-node forwards the request has already
// taken (0 for a request from a client). Ownership is settled before anything past the key is looked at: a
// request for a key hosted elsewhere is relayed as the bytes that arrived, and
// so is the peer's reply.
func (s *Server) execute(ctx context.Context, body []byte, hops int) []byte {
	if c := s.answer(reqTxn); c.do == refuse {
		// A follower executes only its primary's shipped WAL, and a fenced
		// zombie's history is no longer the cluster's: a client transaction run
		// on either would fork the replicated history. Refuse retryably — the
		// client finds the primary once forwarding is rewired.
		return encodeResponse(s.errResponse(wire.CodeOf(c.err), c.err.Error(), downRetryMs))
	}
	var req wire.Request
	if err := json.Unmarshal(body, &req); err != nil {
		return encodeResponse(s.errResponse(wire.CodeBadRequest, fmt.Sprintf("server: decoding request: %v", err), 0))
	}
	id, ok := s.handles[req.Txn]
	if !ok {
		return encodeResponse(s.failure(req, fmt.Errorf("%w: %q", store.ErrUnknownTxn, req.Txn)))
	}
	if s.peers != nil {
		if node := s.route(ctx, req.Key); node != s.cfg.ID {
			return s.forward(ctx, node, req.Txn, body, hops)
		}
	}
	args, err := s.eng.DecodeArgs(id, req.Args)
	if err != nil {
		return encodeResponse(s.errResponse(wire.CodeBadRequest,
			fmt.Sprintf("server: decoding %q args: %v", req.Txn, err), 0))
	}
	value, err := s.eng.ExecuteIDContext(ctx, id, req.Key, args)
	if err != nil {
		// A submission wait cut short by the wire deadline is a deadline
		// outcome to the client, even though the engine counts it as
		// rejected offered load.
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			return encodeResponse(s.failure(req, fmt.Errorf("%w: %v", store.ErrDeadlineExceeded, err)))
		}
		if errors.Is(err, store.ErrNotOwned) && s.peers != nil {
			// Ownership left this node between the routing decision and the
			// engine's. If our own plan still routes the key here, the flip
			// raced the lookup: surface the transient refusal; the client
			// retries.
			if node := s.route(ctx, req.Key); node != s.cfg.ID {
				return s.forward(ctx, node, req.Txn, body, hops)
			}
		}
		return encodeResponse(s.failure(req, err))
	}
	raw, err := json.Marshal(value)
	if err != nil {
		return encodeResponse(s.errResponse(wire.CodeInternal,
			fmt.Sprintf("server: encoding %q result: %v", req.Txn, err), 0))
	}
	s.ok.Add(1)
	return encodeResponse(wire.Response{Status: 200, Value: raw})
}

// encodeResponse marshals a Response this package built: strings, integers
// and a Value json.Marshal has just produced, which cannot fail to encode.
func encodeResponse(resp wire.Response) []byte {
	b, err := json.Marshal(resp)
	if err != nil {
		panic(fmt.Sprintf("server: encoding response: %v", err))
	}
	return b
}

// failure maps an engine error onto the wire: stable code, HTTP status,
// and a retry hint for retryable refusals sized from the destination
// partition's current queueing estimate.
func (s *Server) failure(req wire.Request, err error) wire.Response {
	code := wire.CodeOf(err)
	var retry int64
	switch code {
	case wire.CodeOverload:
		retry = s.retryHintMs(req.Key)
	case wire.CodePartitionDown, wire.CodeStopped:
		// No queue estimate predicts a machine recovery; a coarse constant
		// keeps clients from hammering a dead partition.
		retry = downRetryMs
	}
	return s.errResponse(code, err.Error(), retry)
}

// downRetryMs is the retry hint for requests refused because their
// partition (or the whole engine) is down.
const downRetryMs = 250

// retryHintMs estimates how long a refused submission should wait before
// retrying: the destination partition's sojourn EWMA, floored at 1ms so a
// hint is always actionable.
func (s *Server) retryHintMs(key string) int64 {
	d := s.eng.QueueSojourn(s.eng.PartitionOfKey(key))
	ms := int64(d / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	return ms
}

// errResponse builds a failure Response and files it in the wire counters.
func (s *Server) errResponse(code, msg string, retryMs int64) wire.Response {
	switch code {
	case wire.CodeOverload:
		s.rejected.Add(1)
	case wire.CodeDeadline:
		s.deadline504.Add(1)
	case wire.CodePartitionDown, wire.CodeStopped, wire.CodeNotOwned:
		s.down503.Add(1)
	case wire.CodeUnknownTxn, wire.CodeBadRequest:
		s.badRequests.Add(1)
	case wire.CodeTxn:
		s.txnErrors.Add(1)
	default:
		s.internal.Add(1)
	}
	return wire.Response{Status: wire.StatusOf(code), Code: code, Error: msg, RetryAfterMs: retryMs}
}

// withDeadline applies the wire deadline: ms when the request carried one, the
// configured default otherwise. The returned cancel must always be called.
func (s *Server) withDeadline(ctx context.Context, ms int64) (context.Context, context.CancelFunc) {
	d := s.deadline
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// writeResponse emits one Response as a standalone HTTP reply, carrying the
// retry hint in headers as well as the body so even header-only clients
// (curl -i) see it.
func writeResponse(w http.ResponseWriter, resp wire.Response) {
	w.Header().Set("Content-Type", "application/json")
	if resp.RetryAfterMs > 0 {
		w.Header().Set(wire.HeaderRetryAfterMs, strconv.FormatInt(resp.RetryAfterMs, 10))
		secs := (resp.RetryAfterMs + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(resp.Status)
	_ = json.NewEncoder(w).Encode(resp)
}

// handleTxn executes one transaction per request: the curl-able adapter over
// the path stream frames take.
func (s *Server) handleTxn(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "server: POST required", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Add(1)
	body, err := io.ReadAll(io.LimitReader(r.Body, wire.MaxFrame))
	if err != nil {
		writeResponse(w, s.errResponse(wire.CodeBadRequest, fmt.Sprintf("server: reading request: %v", err), 0))
		return
	}
	var ms int64
	if h := r.Header.Get(wire.HeaderDeadlineMs); h != "" {
		if ms, err = strconv.ParseInt(h, 10, 64); err != nil || ms <= 0 {
			writeResponse(w, s.errResponse(wire.CodeBadRequest,
				fmt.Sprintf("server: bad %s header %q", wire.HeaderDeadlineMs, h), 0))
			return
		}
	}
	ctx, cancel := s.withDeadline(r.Context(), ms)
	defer cancel()
	var resp wire.Response
	if err := json.Unmarshal(s.execute(ctx, body, 0), &resp); err != nil {
		resp = s.errResponse(wire.CodeInternal, fmt.Sprintf("server: decoding relayed reply: %v", err), 0)
	}
	writeResponse(w, resp)
}

// handleStream turns the request into a transaction stream and serves it until
// the caller closes it or Shutdown does.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	conn, br, err := wire.AcceptStream(w, r)
	if err != nil {
		return
	}
	s.acceptedMu.Lock()
	open := s.accepted != nil
	if open {
		s.accepted[conn] = struct{}{}
	}
	s.acceptedMu.Unlock()
	if !open {
		conn.Close()
		return
	}
	s.streams.Add(1)
	// A stream that ends on a torn or oversize frame has nobody left to tell.
	_ = wire.ServeStream(context.Background(), conn, br, s.serveFrame)
	s.acceptedMu.Lock()
	delete(s.accepted, conn)
	s.acceptedMu.Unlock()
}

// serveFrame executes one request frame under the deadline it carries, or the
// configured default.
func (s *Server) serveFrame(ctx context.Context, f wire.StreamFrame) []byte {
	s.frames.Add(1)
	ctx, cancel := s.withDeadline(ctx, int64(f.DeadlineMs))
	defer cancel()
	return s.execute(ctx, f.Payload, int(f.Hops))
}

// handleTxns serves the transaction catalog in dense-id order.
func (s *Server) handleTxns(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Txns []string `json:"txns"`
	}{Txns: s.eng.TxnNames()})
}

// handleInfo serves the configured info payload (or an empty object).
func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	info := s.cfg.Info
	if info == nil {
		info = struct{}{}
	}
	_ = json.NewEncoder(w).Encode(info)
}

// handleHealth reports liveness. A node whose WAL has latched a fail-stop
// error still serves from memory, but it can no longer promise durability —
// it reports unhealthy so probes (and the coordinator's failure detector)
// treat it as dead.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.rm.Err(); err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(struct {
			OK    bool   `json:"ok"`
			Error string `json:"error"`
		}{OK: false, Error: err.Error()})
		return
	}
	fmt.Fprintln(w, `{"ok":true}`)
}

// handleShutdown signals the serving process to stop (it still owns the
// actual Shutdown call, so in-flight work drains first).
func (s *Server) handleShutdown(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "server: POST required", http.StatusMethodNotAllowed)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, `{"ok":true}`)
	s.shutdownOnce.Do(func() { close(s.shutdownCh) })
}
