package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"pstore/internal/recovery"
	"pstore/internal/store"
	"pstore/internal/wire"
)

// NodeConfig turns a Server into one node of a multi-process cluster. The
// node serves the /v1/node/* coordination vocabulary (chunk extract/install,
// ownership flips, crash/restore) next to the regular transaction endpoints,
// and forwards transactions for partitions hosted elsewhere to their hosting
// peer.
type NodeConfig struct {
	// ID is this node's index and Nodes the cluster's node count; machine m
	// is hosted by node m % Nodes on every node, so routing needs no
	// membership protocol.
	ID    int
	Nodes int
	// Recovery, when set, serves the node-local crash/restore/checkpoint
	// plane. Command logs live with the data: each node recovers exactly the
	// machines it hosts.
	Recovery *recovery.Manager
	// DecodeRow rebuilds workload rows from incoming chunk frames. Nil keeps
	// rows as raw JSON — enough for row accounting, not for executing
	// transactions against migrated-in buckets.
	DecodeRow wire.RowDecoder
	// PeerURL maps a node index to its base URL ("http://host:port") for
	// transaction forwarding; the answer may change, and the slot's stream
	// follows it. Nil disables forwarding: not-owned refusals surface to the
	// client as retryable 503s instead.
	PeerURL func(node int) string
	// SetPeerURL repoints one peer slot's base URL — the coordinator's
	// rewiring step after promoting a follower (served at /v1/node/peer).
	// Nil refuses rewiring requests.
	SetPeerURL func(node int, url string)
	// ReplicaOf, when non-empty, starts this node as a warm follower of the
	// primary at that base URL: client transactions are refused until
	// promotion, and the /v1/repl/ship endpoint takes in the primary's WAL.
	ReplicaOf string
	// OnReplicaSync is invoked (on its own goroutine) after this node, as a
	// primary, streams a sync snapshot to a follower: the serving process
	// starts a shipper that streams WAL records from cur to followerURL. The
	// server cannot own the shipper itself — the ship client lives in
	// internal/transport, which imports this package.
	OnReplicaSync func(followerURL string, cur wire.ShipCursor)
	// OnDemote is invoked (on its own goroutine) when /v1/repl/demote orders
	// this fenced ex-primary to stand down and rejoin the primary at the
	// given URL as a follower. The rejoin protocol lives with the serving
	// process for the same reason OnReplicaSync does: it needs the transport
	// client, which imports this package.
	OnDemote func(primaryURL string)
	// FollowerCheckpointEvery, when > 0, has a replica run a checkpoint of
	// its own WAL every time that many shipped command records have been
	// accepted — bounding a long-lived follower's own cold start. Compaction
	// is PinShip-aware, so a later promotion's rejoin window is preserved.
	FollowerCheckpointEvery int
}

func (nc *NodeConfig) validate() error {
	if nc.Nodes < 1 {
		return fmt.Errorf("server: node config: %d nodes", nc.Nodes)
	}
	if nc.ID < 0 || nc.ID >= nc.Nodes {
		return fmt.Errorf("server: node config: id %d outside [0, %d)", nc.ID, nc.Nodes)
	}
	return nil
}

// NodeOf returns the node index hosting a machine.
func (nc *NodeConfig) NodeOf(machine int) int { return machine % nc.Nodes }

// maxForwardHops caps node-to-node transaction forwarding. Plans converge
// after one flip broadcast, and a request caught inside a move waits for it at
// the move's source (see route), so a request bouncing this many times means
// routing state is broken, not merely stale.
const maxForwardHops = 3

func (s *Server) registerNodeHandlers(mux *http.ServeMux) {
	mux.HandleFunc(wire.PathNodeMove, s.handleNodeMove)
	mux.HandleFunc(wire.PathNodeExtract, s.handleNodeExtract)
	mux.HandleFunc(wire.PathNodeInstall, s.handleNodeInstall)
	mux.HandleFunc(wire.PathNodeFlip, s.handleNodeFlip)
	mux.HandleFunc(wire.PathNodeCrash, s.handleNodeCrash)
	mux.HandleFunc(wire.PathNodeRestore, s.handleNodeRestore)
	mux.HandleFunc(wire.PathNodeCheckpoint, s.handleNodeCheckpoint)
	mux.HandleFunc(wire.PathNodeSnapshot, s.handleNodeSnapshot)
	mux.HandleFunc(wire.PathNodeStatus, s.handleNodeStatus)
	mux.HandleFunc(wire.PathNodeMachines, s.handleNodeMachines)
	mux.HandleFunc(wire.PathNodeAccesses, s.handleNodeAccesses)
	mux.HandleFunc(wire.PathNodePeer, s.handleNodePeer)
	mux.HandleFunc(wire.PathReplSync, s.handleReplSync)
	mux.HandleFunc(wire.PathReplShip, s.handleReplShip)
	mux.HandleFunc(wire.PathReplPromote, s.handleReplPromote)
	mux.HandleFunc(wire.PathReplStatus, s.handleReplStatus)
	mux.HandleFunc(wire.PathReplDemote, s.handleReplDemote)
}

// handleNodePeer repoints one peer slot's base URL — after a failover the
// coordinator rewires every survivor so forwarded transactions reach the
// promoted follower instead of the dead primary.
func (s *Server) handleNodePeer(w http.ResponseWriter, r *http.Request) {
	var req wire.NodePeer
	if !decodeNodeJSON(w, r, &req) {
		return
	}
	nc := s.cfg.Node
	if nc.SetPeerURL == nil {
		writeNodeError(w, errors.New("server: node has no mutable peer table"))
		return
	}
	if req.Node < 0 || req.Node >= nc.Nodes || req.URL == "" {
		writeNodeError(w, fmt.Errorf("%w: peer %d -> %q", errBadNodeRequest, req.Node, req.URL))
		return
	}
	nc.SetPeerURL(req.Node, req.URL)
	writeJSON(w, struct{}{})
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

// handleNodeMove executes a same-node MoveBuckets: both partitions are
// hosted here, so the node runs the full in-process migration protocol.
func (s *Server) handleNodeMove(w http.ResponseWriter, r *http.Request) {
	var req wire.NodeMove
	if !decodeNodeJSON(w, r, &req) {
		return
	}
	perRow := time.Duration(req.PerRowNs)
	overhead := time.Duration(req.OverheadNs)
	var (
		rows int
		err  error
	)
	if req.Rollback {
		rows, err = s.cfg.Engine.MoveBucketsRollback(req.Buckets, req.From, req.To, perRow, overhead)
	} else {
		rows, err = s.cfg.Engine.MoveBuckets(req.Buckets, req.From, req.To, perRow, overhead)
	}
	if err != nil {
		writeNodeError(w, err)
		return
	}
	writeJSON(w, wire.NodeRows{Rows: rows})
}

// handleNodeExtract pulls a chunk out of a hosted source partition and
// streams it back; local ownership flips to the destination as part of the
// extract, exactly like the in-process protocol's source half.
func (s *Server) handleNodeExtract(w http.ResponseWriter, r *http.Request) {
	var req wire.NodeMove
	if !decodeNodeJSON(w, r, &req) {
		return
	}
	data, err := s.cfg.Engine.ExtractBuckets(req.Buckets, req.From, req.To,
		time.Duration(req.PerRowNs), time.Duration(req.OverheadNs), req.Rollback)
	if err != nil {
		writeNodeError(w, err)
		return
	}
	meta, frames, err := wire.ChunkFromBucketData(data)
	if err != nil {
		writeNodeError(w, err)
		return
	}
	w.Header().Set("Content-Type", wire.ContentTypeChunk)
	var buf bytes.Buffer
	if err := wire.WriteChunkStream(&buf, meta, frames); err != nil {
		writeNodeError(w, err)
		return
	}
	_, _ = w.Write(buf.Bytes())
}

// handleNodeInstall merges an incoming chunk into a hosted destination
// partition (body: one NodeMove frame, then the chunk stream) and flips
// local ownership after the install lands. The installed buckets — and only
// they — immediately get a fresh recovery baseline: their command history
// lives on the node they executed on, so the image itself is the correct
// recovery point here. An install whose images did not reach disk is refused:
// the coordinator must not flip ownership to a node that could not restore
// the chunk.
func (s *Server) handleNodeInstall(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "server: POST required", http.StatusMethodNotAllowed)
		return
	}
	var req wire.NodeMove
	if err := wire.DecodeFrame(r.Body, &req); err != nil {
		writeNodeError(w, fmt.Errorf("%w: decoding move frame: %v", errBadNodeRequest, err))
		return
	}
	_, frames, err := wire.ReadChunkStream(r.Body)
	if err != nil {
		writeNodeError(w, fmt.Errorf("%w: %v", errBadNodeRequest, err))
		return
	}
	data, err := wire.BucketDataFromChunk(frames, s.cfg.Node.DecodeRow)
	if err != nil {
		writeNodeError(w, fmt.Errorf("%w: %v", errBadNodeRequest, err))
		return
	}
	rows, err := s.cfg.Engine.InstallBuckets(req.Buckets, data, req.To,
		time.Duration(req.PerRowNs), time.Duration(req.OverheadNs))
	if err != nil {
		writeNodeError(w, err)
		return
	}
	if rm := s.cfg.Node.Recovery; rm != nil {
		if _, err := rm.CheckpointPartition(req.To, req.Buckets); err != nil {
			writeNodeError(w, err)
			return
		}
	}
	writeJSON(w, wire.NodeRows{Rows: rows})
}

// handleNodeFlip applies a coordinator's ownership broadcast.
func (s *Server) handleNodeFlip(w http.ResponseWriter, r *http.Request) {
	var req wire.NodeFlip
	if !decodeNodeJSON(w, r, &req) {
		return
	}
	if err := s.cfg.Engine.ApplyOwnership(req.Buckets, req.Owner); err != nil {
		writeNodeError(w, err)
		return
	}
	writeJSON(w, struct{}{})
}

// nodeRecovery returns the node's recovery manager or a typed error.
func (s *Server) nodeRecovery() (*recovery.Manager, error) {
	if rm := s.cfg.Node.Recovery; rm != nil {
		return rm, nil
	}
	return nil, errors.New("server: node has no recovery manager attached")
}

// handleNodeCrash fences a hosted machine.
func (s *Server) handleNodeCrash(w http.ResponseWriter, r *http.Request) {
	var req wire.NodeMachine
	if !decodeNodeJSON(w, r, &req) {
		return
	}
	rm, err := s.nodeRecovery()
	if err != nil {
		writeNodeError(w, err)
		return
	}
	if !s.cfg.Engine.Hosted(req.Machine) {
		writeNodeError(w, fmt.Errorf("%w: machine %d", store.ErrNotOwned, req.Machine))
		return
	}
	release, err := s.quiesceApply()
	if err != nil {
		writeNodeError(w, err)
		return
	}
	defer release()
	if err := rm.Crash(req.Machine); err != nil {
		writeNodeError(w, err)
		return
	}
	writeJSON(w, struct{}{})
}

// handleNodeRestore rebuilds a hosted machine from the node-local
// checkpoint and command log.
func (s *Server) handleNodeRestore(w http.ResponseWriter, r *http.Request) {
	var req wire.NodeMachine
	if !decodeNodeJSON(w, r, &req) {
		return
	}
	rm, err := s.nodeRecovery()
	if err != nil {
		writeNodeError(w, err)
		return
	}
	if !s.cfg.Engine.Hosted(req.Machine) {
		writeNodeError(w, fmt.Errorf("%w: machine %d", store.ErrNotOwned, req.Machine))
		return
	}
	// A restore reads the log to its head and the machine's buckets off the
	// current plan. On a replica both run ahead of memory by the apply backlog,
	// and whatever the restore replayed the applier would replay again.
	release, err := s.quiesceApply()
	if err != nil {
		writeNodeError(w, err)
		return
	}
	defer release()
	st, err := rm.Restore(req.Machine)
	if err != nil {
		writeNodeError(w, err)
		return
	}
	writeJSON(w, wire.NodeRestoreResult{
		Machine:    st.Machine,
		Partitions: st.Partitions,
		Snapshots:  st.Snapshots,
		Replayed:   st.Replayed,
		DowntimeMs: st.Downtime.Milliseconds(),
	})
}

// handleNodeCheckpoint installs a fresh baseline on every live hosted
// partition.
func (s *Server) handleNodeCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "server: POST required", http.StatusMethodNotAllowed)
		return
	}
	rm, err := s.nodeRecovery()
	if err != nil {
		writeNodeError(w, err)
		return
	}
	n, err := s.checkpoint(rm)
	if err != nil {
		writeNodeError(w, err)
		return
	}
	writeJSON(w, wire.NodeRows{Rows: n})
}

// handleNodeSnapshot streams one partition's fuzzy-checkpoint image as a
// chunk stream whose frames carry per-bucket LSNs.
func (s *Server) handleNodeSnapshot(w http.ResponseWriter, r *http.Request) {
	part, err := strconv.Atoi(r.URL.Query().Get("part"))
	if err != nil {
		writeNodeError(w, fmt.Errorf("%w: bad part %q", errBadNodeRequest, r.URL.Query().Get("part")))
		return
	}
	snaps, err := s.cfg.Engine.SnapshotPartition(part)
	if err != nil {
		writeNodeError(w, err)
		return
	}
	meta := wire.ChunkMeta{Buckets: len(snaps)}
	frames := make([]wire.BucketFrame, 0, len(snaps))
	for _, sn := range snaps {
		f, err := wire.FrameFromSnapshot(sn)
		if err != nil {
			writeNodeError(w, err)
			return
		}
		meta.Rows += f.Rows
		frames = append(frames, f)
	}
	w.Header().Set("Content-Type", wire.ContentTypeChunk)
	var buf bytes.Buffer
	if err := wire.WriteChunkStream(&buf, meta, frames); err != nil {
		writeNodeError(w, err)
		return
	}
	_, _ = w.Write(buf.Bytes())
}

// handleNodeStatus serves the node's self-description: identity, geometry,
// hosted machines, plan and load — the coordinator's bootstrap and poll
// surface.
func (s *Server) handleNodeStatus(w http.ResponseWriter, r *http.Request) {
	eng := s.cfg.Engine
	cfg := eng.Config()
	st := wire.NodeStatus{
		Node:                 s.cfg.Node.ID,
		Nodes:                s.cfg.Node.Nodes,
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
		Role:                 s.replRole(),
		ForwardStreams:       s.ForwardStreams(),
	}
	if rm := s.cfg.Node.Recovery; rm != nil {
		st.Epoch = rm.Epoch()
		if err := rm.Err(); err != nil {
			// A latched log failure means durability is gone: the node still
			// serves from memory, but the coordinator must treat it as failed.
			st.WALError = err.Error()
		}
	}
	writeJSON(w, st)
}

// handleNodeMachines sets the active machine count.
func (s *Server) handleNodeMachines(w http.ResponseWriter, r *http.Request) {
	var req wire.NodeActive
	if !decodeNodeJSON(w, r, &req) {
		return
	}
	if err := s.cfg.Engine.SetActiveMachines(req.Active); err != nil {
		writeNodeError(w, err)
		return
	}
	writeJSON(w, struct{}{})
}

// handleNodeAccesses reports (and optionally resets) per-bucket access
// counts — the skew signal a coordinator-side rebalance pass aggregates.
func (s *Server) handleNodeAccesses(w http.ResponseWriter, r *http.Request) {
	var req wire.NodeAccessesReq
	if !decodeNodeJSON(w, r, &req) {
		return
	}
	writeJSON(w, wire.NodeAccesses{Accesses: s.cfg.Engine.BucketAccesses(req.Reset)})
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
	eng := s.cfg.Engine
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
	return s.cfg.Node.NodeOf(eng.MachineOfPartition(eng.PartitionOfKey(key)))
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
