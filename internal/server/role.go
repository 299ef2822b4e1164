package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pstore/internal/store"
	"pstore/internal/wire"
)

// role is a node's replication role. A node starts a primary, or syncing when
// it is configured as a replica (Config.ReplicaOf); become makes every
// change after that, along moves.
type role int32

const (
	// rolePrimary serves clients, and seeds and ships to one follower.
	rolePrimary role = iota
	// roleFenced is a primary that has seen proof of a higher epoch — its
	// shipper was refused with CodeFenced, or it was ordered to demote. A
	// zombie serving writes is a split brain: it serves nothing a primary
	// serves, and waits for its rejoin to make it a follower.
	roleFenced
	// roleSyncing is a follower installing its primary's snapshot.
	roleSyncing
	// roleReplica is a follower taking in its primary's shipped WAL.
	roleReplica
	nRoles
)

func (r role) String() string { return [nRoles]string{"primary", "fenced", "syncing", "replica"}[r] }

// wire is the role as ReplStatus and NodeStatus report it: a fenced node is a
// primary that knows it is stale, a syncing one a replica not ready yet.
func (r role) wire() string { return [nRoles]string{"primary", "primary", "replica", "replica"}[r] }

// moves is the transition table: moves[from][to] says whether become may take
// a node from one role to the other. A primary is fenced (standDown) or, new
// and configured as a replica, starts syncing; a fenced node rejoins by a full
// resync; a sync starts over or completes; a replica is promoted, or a fresh
// install starts over its state.
var moves = [nRoles][nRoles]bool{
	rolePrimary: {roleFenced: true, roleSyncing: true},
	roleFenced:  {roleFenced: true, roleSyncing: true},
	roleSyncing: {roleSyncing: true, roleReplica: true},
	roleReplica: {rolePrimary: true, roleSyncing: true},
}

// replState is the server's replication role and what the role owns. The
// mutex serializes every role change and ship acceptance — batches arrive
// from one shipper, but retries and a zombie primary can overlap requests —
// and whoever holds it can wait for the apply backlog to drain knowing nothing
// new is accepted meanwhile. The role is read without it, in one atomic load.
type replState struct {
	mu   sync.Mutex
	role atomic.Int32
	// A replica's: received is the cursor after the last accepted batch — the
	// primary's records before it are durable in this node's log; acceptedRecs
	// counts shipped command records accepted since the last follower
	// checkpoint.
	received     wire.ShipCursor
	acceptedRecs int
	// A promoted primary's: drained is the apply backlog its promotion had to
	// execute first, in command records.
	drained int
	// checkpointing guards against overlapping async follower checkpoints.
	checkpointing bool
}

func (s *Server) role() role { return role(s.repl.role.Load()) }

// become moves the node to role to and resets what to does not own; entering
// syncing also discards the apply backlog, since nothing accepted so far is
// meant for the state about to be installed. An illegal move changes nothing.
// The caller holds s.repl.mu.
func (s *Server) become(to role) error {
	st := &s.repl
	if from := s.role(); !moves[from][to] {
		if to == roleFenced {
			return errors.New("server: node is already a replica")
		}
		return fmt.Errorf("server: a %s node cannot become %s", from, to)
	}
	if to != roleReplica {
		st.received, st.acceptedRecs = wire.ShipCursor{}, 0
	}
	if to != rolePrimary {
		st.drained = 0
	}
	if to == roleSyncing {
		s.apply.reset(wire.ShipCursor{}, 0)
	}
	st.role.Store(int32(to))
	return nil
}

// request is what a node is asked to do, as its role guards it.
type request uint8

const (
	reqTxn     request = iota // a client transaction
	reqSync                   // seed a follower: /v1/repl/sync
	reqInstall                // take in a primary's sync body: InstallReplicaState
	reqShip                   // a shipped WAL batch: /v1/repl/ship
	reqPromote                // /v1/repl/promote
	reqDemote                 // stand down toward a new primary (standDown), and the rejoin after it
	reqQuiesce                // a machine crash or restore, a checkpoint
	reqPlace                  // a coordinator's placement change: move, extract, install, flip, set-active
	nRequests
)

// action is what a role does with a request.
type action uint8

const (
	serve  action = iota // what the request asks
	drain                // the same, once the apply backlog is drained with ship batches held off
	skip                 // nothing: the node already is where the request leads
	resync               // answer Resync: memory cannot follow the stream any more
	refuse               // answer the cell's error
)

// cell is one answer of the guards table.
type cell struct {
	do  action
	err error
}

// latchedReplica is the guards row of a replica whose applier latched a
// failure (applier.err).
const latchedReplica = nRoles

// guards is what each role answers each request; a zero cell serves it.
// Placement is a primary's: a follower's plan and rows change only by its
// primary's log, or a chunk logged here would fork the replicated history.
var guards = [nRoles + 1][nRequests]cell{
	rolePrimary: {reqInstall: {refuse, errInstallNotReplica}, reqShip: {refuse, errShipNotReplica}, reqPromote: {do: skip}},
	roleFenced: {reqTxn: {refuse, errTxnFenced}, reqSync: {refuse, errSyncFenced},
		reqInstall: {refuse, errInstallNotReplica}, reqShip: {refuse, errShipNotReplica}, reqPromote: {refuse, errPromoteFenced},
		reqPlace: {refuse, errPlaceFenced}},
	roleSyncing: {reqTxn: {refuse, errTxnReplica}, reqSync: {refuse, errSyncReplica}, reqShip: {refuse, errSyncIncomplete},
		reqPromote: {refuse, errSyncIncomplete}, reqDemote: {do: skip}, reqQuiesce: {do: drain}, reqPlace: {refuse, errPlaceReplica}},
	roleReplica: {reqTxn: {refuse, errTxnReplica}, reqSync: {refuse, errSyncReplica},
		reqPromote: {do: drain}, reqDemote: {do: skip}, reqQuiesce: {do: drain}, reqPlace: {refuse, errPlaceReplica}},
	latchedReplica: {reqTxn: {refuse, errTxnReplica}, reqSync: {refuse, errSyncReplica}, reqShip: {do: resync},
		reqPromote: {do: drain}, reqDemote: {do: skip}, reqQuiesce: {do: drain}, reqPlace: {refuse, errPlaceReplica}},
}

var (
	errTxnReplica        = refusal{store.ErrNotOwned, "server: node is a warm replica; submit to its primary"}
	errTxnFenced         = refusal{store.ErrNotOwned, "server: node is fenced pending demotion; submit to the new primary"}
	errSyncReplica       = refusal{wire.ErrFenced, "server: a replica cannot seed a follower"}
	errSyncFenced        = refusal{wire.ErrFenced, "server: a fenced node cannot seed a follower"}
	errShipNotReplica    = refusal{wire.ErrFenced, "server: node is not a replica"}
	errSyncIncomplete    = refusal{store.ErrStopped, "server: replica sync incomplete"}
	errPromoteFenced     = refusal{wire.ErrFenced, "server: a fenced node cannot be promoted; it rejoins the new primary"}
	errPlaceReplica      = refusal{wire.ErrFenced, "server: a replica changes placement only by its primary's log"}
	errPlaceFenced       = refusal{wire.ErrFenced, "server: a fenced node takes no placement changes"}
	errInstallNotReplica = errors.New("server: InstallReplicaState on a non-replica node")
)

// refusal is a guard's error: its message, under the sentinel of its wire code.
type refusal struct {
	code error
	msg  string
}

func (r refusal) Error() string { return r.msg }
func (r refusal) Unwrap() error { return r.code }

// answer looks up what this node's role answers q. Only a replica asks its
// applier whether it latched, so a primary's lookup is one atomic load.
func (s *Server) answer(q request) cell {
	r := s.role()
	if r == roleReplica && s.apply.position().err != nil {
		return guards[latchedReplica][q]
	}
	return guards[r][q]
}

// placing refuses a placement change on any node but a primary.
func (s *Server) placing() error {
	if c := s.answer(reqPlace); c.do == refuse {
		return c.err
	}
	return nil
}

// standDown fences this node and starts its rejoin of the primary at url — the
// answer to a demote order and to this node's shipper refused as fenced. A
// follower has nothing to stand down from.
func (s *Server) standDown(url string) {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	if s.answer(reqDemote).do == skip {
		return
	}
	_ = s.become(roleFenced) // a primary or a fenced node may always fence
	s.goArc(func(ctx context.Context) error { return s.rejoin(ctx, url) })
}
