package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"pstore/internal/recovery"
	"pstore/internal/store"
	"pstore/internal/wire"
)

// maxForwardHops caps node-to-node transaction forwarding. Plans converge
// after one flip broadcast, and a request caught inside a move waits for it at
// the move's source (see route), so a request bouncing this many times means
// routing state is broken, not merely stale.
const maxForwardHops = 3

func (s *Server) registerNodeHandlers(mux *http.ServeMux) {
	mux.HandleFunc(wire.PathNodeMove, nodeJSON(s.handleNodeMove))
	mux.HandleFunc(wire.PathNodeExtract, s.handleNodeExtract)
	mux.HandleFunc(wire.PathNodeInstall, s.handleNodeInstall)
	mux.HandleFunc(wire.PathNodeFlip, nodeJSON(s.handleNodeFlip))
	mux.HandleFunc(wire.PathNodeCrash, nodeJSON(s.handleNodeCrash))
	mux.HandleFunc(wire.PathNodeRestore, nodeJSON(s.handleNodeRestore))
	mux.HandleFunc(wire.PathNodeCheckpoint, s.handleNodeCheckpoint)
	mux.HandleFunc(wire.PathNodeStatus, s.handleNodeStatus)
	mux.HandleFunc(wire.PathNodeMachines, nodeJSON(s.handleNodeMachines))
	mux.HandleFunc(wire.PathNodePeer, nodeJSON(s.handleNodePeer))
	mux.HandleFunc(wire.PathReplSync, s.handleReplSync)
	mux.HandleFunc(wire.PathReplShip, s.handleReplShip)
	mux.HandleFunc(wire.PathReplPromote, nodeJSON(s.handleReplPromote))
	mux.HandleFunc(wire.PathReplStatus, s.handleReplStatus)
	mux.HandleFunc(wire.PathReplDemote, nodeJSON(s.handleReplDemote))
}

// handleNodePeer repoints one peer slot's base URL — after a failover the
// coordinator rewires every survivor so forwarded transactions reach the
// promoted follower instead of the dead primary. The slot's stream follows it.
func (s *Server) handleNodePeer(req wire.NodePeer) (any, error) {
	if s.peerURLs == nil {
		return nil, errors.New("server: node has no mutable peer table")
	}
	if req.Node < 0 || req.Node >= s.cfg.Nodes || req.URL == "" {
		return nil, fmt.Errorf("%w: peer %d -> %q", errBadNodeRequest, req.Node, req.URL)
	}
	s.peerMu.Lock()
	s.peerURLs[req.Node] = req.URL
	s.peerMu.Unlock()
	return struct{}{}, nil
}

// peerURL returns the base URL of peer slot node.
func (s *Server) peerURL(node int) string {
	s.peerMu.RLock()
	defer s.peerMu.RUnlock()
	return s.peerURLs[node]
}

// writeNodeError maps a node-plane error onto the wire with the same stable
// code vocabulary as the transaction path, without touching the transaction
// counters — coordination failures are not client traffic.
func writeNodeError(w http.ResponseWriter, err error) {
	code := wire.CodeOf(err)
	if errors.Is(err, errBadNodeRequest) {
		code = wire.CodeBadRequest
	} else if code == wire.CodeTxn {
		// The node plane executes no transactions; anything that is not a
		// typed engine refusal is a coordination failure.
		code = wire.CodeInternal
	}
	writeResponse(w, wire.Response{Status: wire.StatusOf(code), Code: code, Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// decodeNodeJSON reads a small JSON request body, refusing non-POSTs.
func decodeNodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "server: POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, wire.MaxFrame)).Decode(v); err != nil {
		writeNodeError(w, fmt.Errorf("%w: decoding request: %v", errBadNodeRequest, err))
		return false
	}
	return true
}

// errBadNodeRequest maps malformed node-plane bodies to CodeBadRequest.
var errBadNodeRequest = errors.New("server: bad node request")

// nodeJSON serves a node-plane handler of one JSON request: the handler's
// value is the reply, its error the refusal.
func nodeJSON[T any](h func(T) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req T
		if !decodeNodeJSON(w, r, &req) {
			return
		}
		out, err := h(req)
		if err != nil {
			writeNodeError(w, err)
			return
		}
		writeJSON(w, out)
	}
}

// handleNodeMove executes a same-node MoveBuckets: both partitions are
// hosted here, so the node runs the full in-process migration protocol.
func (s *Server) handleNodeMove(req wire.NodeMove) (any, error) {
	if err := s.placing(); err != nil {
		return nil, err
	}
	move := s.eng.MoveBuckets
	if req.Rollback {
		move = s.eng.MoveBucketsRollback
	}
	rows, err := move(req.Buckets, req.From, req.To, time.Duration(req.PerRowNs), time.Duration(req.OverheadNs))
	return wire.NodeRows{Rows: rows}, err
}

// handleNodeExtract pulls a chunk out of a hosted source partition and
// sends it back; local ownership flips to the destination as part of the
// extract, exactly like the in-process protocol's source half.
func (s *Server) handleNodeExtract(w http.ResponseWriter, r *http.Request) {
	var req wire.NodeMove
	if !decodeNodeJSON(w, r, &req) {
		return
	}
	if err := s.placing(); err != nil {
		writeNodeError(w, err)
		return
	}
	data, err := s.eng.ExtractBuckets(req.Buckets, req.From, req.To,
		time.Duration(req.PerRowNs), time.Duration(req.OverheadNs), req.Rollback)
	if err != nil {
		writeNodeError(w, err)
		return
	}
	chunk, err := wire.EncodeChunk(req.Buckets, data)
	if err != nil {
		writeNodeError(w, err)
		return
	}
	w.Header().Set("Content-Type", wire.ContentTypeChunk)
	_, _ = w.Write(chunk)
}

// handleNodeInstall installs an incoming chunk into a hosted destination
// partition (body: one NodeMove frame, then the chunk) and flips local
// ownership after the install lands.
func (s *Server) handleNodeInstall(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "server: POST required", http.StatusMethodNotAllowed)
		return
	}
	if err := s.placing(); err != nil {
		writeNodeError(w, err)
		return
	}
	var req wire.NodeMove
	if err := wire.DecodeFrame(r.Body, &req); err != nil {
		writeNodeError(w, fmt.Errorf("%w: decoding move frame: %v", errBadNodeRequest, err))
		return
	}
	chunk, err := io.ReadAll(r.Body)
	if err != nil {
		writeNodeError(w, fmt.Errorf("%w: reading chunk: %v", errBadNodeRequest, err))
		return
	}
	data, err := wire.DecodeChunk(req.Buckets, chunk)
	if err != nil {
		writeNodeError(w, fmt.Errorf("%w: %v", errBadNodeRequest, err))
		return
	}
	rows, err := s.installChunk(req, chunk, data)
	if err != nil {
		writeNodeError(w, err)
		return
	}
	writeJSON(w, wire.NodeRows{Rows: rows})
}

// installChunk logs a chunk as a record of this node's log, waits until the
// record is durable (on the follower too, under synchronous commit), and only
// then installs it and flips ownership: an install that could not be logged
// changes nothing, and the coordinator does not flip ownership to a node that
// could not recover the chunk. A delivery of a chunk whose buckets the
// destination already owns — the network's duplicate — logs nothing and
// changes nothing. Buckets a partition of this node owns otherwise are
// refused: their log heads belong to that partition's executor.
func (s *Server) installChunk(req wire.NodeMove, chunk []byte, data store.BucketData) (int, error) {
	s.installMu.Lock()
	defer s.installMu.Unlock()
	eng := s.eng
	if cfg := eng.Config(); req.To < 0 || req.To >= cfg.MaxMachines*cfg.PartitionsPerMachine {
		return 0, fmt.Errorf("%w: partition %d out of range", errBadNodeRequest, req.To)
	}
	if !eng.Hosted(eng.MachineOfPartition(req.To)) {
		return 0, fmt.Errorf("%w: partition %d", store.ErrNotOwned, req.To)
	}
	held := 0
	for _, b := range req.Buckets {
		if b < 0 || b >= eng.Config().Buckets {
			return 0, fmt.Errorf("%w: bucket %d out of range", errBadNodeRequest, b)
		}
		if eng.OwnerOf(b) == req.To {
			held++
		}
	}
	if held > 0 && held == len(req.Buckets) {
		return data.Rows(), nil
	}
	for _, b := range req.Buckets {
		if owner := eng.OwnerOf(b); eng.Hosted(eng.MachineOfPartition(owner)) {
			return 0, fmt.Errorf("%w: bucket %d is partition %d's, not an inbound chunk's", errBadNodeRequest, b, owner)
		}
	}
	if err := s.rm.LogChunk(req.To, chunk); err != nil {
		return 0, err
	}
	rows, err := eng.InstallBuckets(req.Buckets, data, req.To, time.Duration(req.PerRowNs), time.Duration(req.OverheadNs))
	if err == nil {
		err = s.rm.Err() // the flip's plan record did not become durable
	}
	return rows, err
}

// handleNodeFlip applies a coordinator's ownership broadcast.
func (s *Server) handleNodeFlip(req wire.NodeFlip) (any, error) {
	if err := s.placing(); err != nil {
		return nil, err
	}
	return struct{}{}, s.eng.ApplyOwnership(req.Buckets, req.Owner)
}

// handleNodeCrash fences a hosted machine.
func (s *Server) handleNodeCrash(req wire.NodeMachine) (any, error) {
	return struct{}{}, s.machineOp(req.Machine, func() error { return s.rm.Crash(req.Machine) })
}

// handleNodeRestore rebuilds a hosted machine from the node-local
// checkpoint and command log.
func (s *Server) handleNodeRestore(req wire.NodeMachine) (any, error) {
	var st recovery.RestoreStats
	err := s.machineOp(req.Machine, func() (err error) {
		st, err = s.rm.Restore(req.Machine)
		return err
	})
	return wire.NodeRestoreResult{Machine: st.Machine, Partitions: st.Partitions, Snapshots: st.Snapshots,
		Replayed: st.Replayed, DowntimeMs: st.Downtime.Milliseconds()}, err
}

// machineOp runs a crash or a restore of hosted machine m. Both rebuild
// partitions: a restore reads the log to its head and the machine's buckets
// off the current plan, and on a replica both run ahead of memory by the apply
// backlog — whatever the restore replayed the applier would replay again — so
// op runs with the backlog quiesced.
func (s *Server) machineOp(m int, op func() error) error {
	if !s.eng.Hosted(m) {
		return fmt.Errorf("%w: machine %d", store.ErrNotOwned, m)
	}
	release, err := s.quiesceApply()
	if err != nil {
		return err
	}
	defer release()
	return op()
}

// handleNodeCheckpoint installs a fresh baseline on every live hosted
// partition.
func (s *Server) handleNodeCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "server: POST required", http.StatusMethodNotAllowed)
		return
	}
	n, err := s.checkpoint()
	if err != nil {
		writeNodeError(w, err)
		return
	}
	writeJSON(w, wire.NodeRows{Rows: n})
}

// handleNodeStatus serves the node's self-description: identity, geometry,
// hosted machines, plan and load — the coordinator's bootstrap and poll
// surface.
func (s *Server) handleNodeStatus(w http.ResponseWriter, r *http.Request) {
	eng := s.eng
	cfg := eng.Config()
	st := wire.NodeStatus{
		Node:                 s.cfg.ID,
		Nodes:                s.cfg.Nodes,
		MaxMachines:          cfg.MaxMachines,
		PartitionsPerMachine: cfg.PartitionsPerMachine,
		Buckets:              cfg.Buckets,
		InitialMachines:      cfg.InitialMachines,
		Hosted:               eng.HostedMachines(),
		Active:               eng.ActiveMachines(),
		Plan:                 eng.Plan(),
		DownMachines:         eng.DownMachines(),
		TotalRows:            eng.TotalRows(),
		Counters:             eng.Counters(),
		MaxSojournNs:         eng.MaxQueueSojourn().Nanoseconds(),
		Role:                 s.role().wire(),
		ForwardStreams:       s.ForwardStreams(),
		Epoch:                s.rm.Epoch(),
	}
	if err := s.rm.Err(); err != nil {
		// A latched log failure means durability is gone: the node still
		// serves from memory, but the coordinator must treat it as failed.
		st.WALError = err.Error()
	}
	writeJSON(w, st)
}

// handleNodeMachines sets the active machine count.
func (s *Server) handleNodeMachines(req wire.NodeActive) (any, error) {
	if err := s.placing(); err != nil {
		return nil, err
	}
	return struct{}{}, s.eng.SetActiveMachines(req.Active)
}

// handoffWait bounds how long route holds a request for the coordinator's word
// that a chunk this node sent has been installed. The word comes with the move;
// the bound is for one that got lost, after which the request follows the plan
// as it stands.
const handoffWait = time.Second

// route returns the node whose engine should run a transaction on key, by this
// node's plan. The two ends of a cross-node move flip apart: the source when
// the chunk leaves, the destination when it is installed, and in between each
// plan names the other node. Relaying a request then would bounce it until its
// hops ran out, in under a millisecond. Only the source can tell it is inside
// that window — it extracted the chunk and has not been told it landed — so it
// is the one that waits, for as long as the request's deadline allows, and
// relays once the destination is ready to run it.
func (s *Server) route(ctx context.Context, key string) int {
	eng := s.eng
	if pending := eng.HandoffPending(key); pending != nil {
		t := time.NewTimer(handoffWait)
		defer t.Stop()
		for pending != nil {
			select {
			case <-pending:
				pending = eng.HandoffPending(key)
			case <-t.C:
				pending = nil
			case <-ctx.Done():
				pending = nil
			}
		}
	}
	return eng.MachineOfPartition(eng.PartitionOfKey(key)) % s.cfg.Nodes
}

// forward relays a transaction to the node hosting its destination partition
// over that peer slot's stream, with the hop count raised so that routing
// state that is broken, not merely stale, degrades into a bounded bounce
// instead of a loop. body is the request as it arrived; the peer's reply
// passes through as it arrived too — success, transaction error or refusal
// alike — so the client sees exactly what the hosting node decided.
func (s *Server) forward(ctx context.Context, node int, txn string, body []byte, hops int) []byte {
	if hops >= maxForwardHops {
		return encodeResponse(s.errResponse(wire.CodeInternal,
			fmt.Sprintf("server: %q still not owned after %d forwards", txn, hops), 0))
	}
	replies, err := s.peers[node].Do(ctx, []wire.StreamFrame{{Hops: uint8(hops + 1), Payload: body}})
	if err != nil {
		code := wire.CodeInternal
		if ctx.Err() != nil {
			code = wire.CodeDeadline // the request ran out of time, the peer did not fail
		}
		return encodeResponse(s.errResponse(code, fmt.Sprintf("server: forwarding %q to node %d: %v", txn, node, err), 0))
	}
	s.forwarded.Add(1)
	return replies[0]
}

// ForwardStreams sums the counters of the streams this node forwards over;
// MaxInFlight is the largest of theirs.
func (s *Server) ForwardStreams() wire.MuxStats {
	var sum wire.MuxStats
	for _, m := range s.peers {
		st := m.Stats()
		sum.Dials += st.Dials
		sum.Redials += st.Redials
		sum.Frames += st.Frames
		sum.MaxInFlight = max(sum.MaxInFlight, st.MaxInFlight)
	}
	return sum
}
