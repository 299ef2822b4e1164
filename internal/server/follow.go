package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"pstore/internal/transport"
	"pstore/internal/wire"
)

// arcs is the replication work a node runs beside its handlers, each on a
// goroutine the server owns until Shutdown: a primary's one WAL shipper, to
// the follower that synced from it last; a replica's sync from its primary
// (Follow); a fenced ex-primary's rejoin of the follower that replaced it.
type arcs struct {
	// One arc runs at a time, holding run, so a demote order and a shipper's
	// fenced exit cannot race toward two rejoins; ctx ends, and closed is set,
	// at Shutdown.
	run    sync.Mutex
	ctx    context.Context
	cancel context.CancelFunc
	closed bool

	// shipMu is held across a shipper's restart — stop, snapshot, arm — and
	// guards the running shipper's cancel (nil when none runs) and done,
	// closed once it has exited.
	shipMu   sync.Mutex
	shipStop context.CancelFunc
	shipDone chan struct{}
}

// goArc runs f on its own goroutine once no other arc runs, unless the server
// has shut down by then. An arc that fails ends the node's service (Failed).
func (s *Server) goArc(f func(ctx context.Context) error) {
	go func() {
		a := &s.arcs
		a.run.Lock()
		defer a.run.Unlock()
		if a.closed {
			return
		}
		ctx, cancel := context.WithTimeout(a.ctx, 2*time.Minute)
		defer cancel()
		if err := f(ctx); err != nil {
			s.fail(err)
		}
	}()
}

// stopArcs cancels the running arc, waits for it, and runs no more.
func (s *Server) stopArcs() {
	a := &s.arcs
	a.cancel()
	a.run.Lock()
	a.closed = true
	a.run.Unlock()
}

// serveSync serves one sync (syncBody) and, when the follower names its URL,
// makes that follower this node's shipper's destination from the body's
// cursor. The running shipper is stopped and waited for, then the cursor and
// the snapshot are taken, then the new shipper is armed. Stopping first lets
// the snapshot finish: it drains every partition's commit stage, and under sync
// commit a waiter parked on the old shipper's barrier leaves only when that
// shipper's exit fails it (wal.ErrSyncAborted: refused, never lost). Waiting
// for the exit before arming keeps the new barrier armed, since the exit
// disarms the barrier whichever shipper armed it.
func (s *Server) serveSync(req wire.ReplSync) ([]byte, error) {
	if !s.rm.Durable() {
		return nil, errors.New("server: replication requires a durable store (-data-dir)")
	}
	s.arcs.shipMu.Lock()
	defer s.arcs.shipMu.Unlock()
	if req.FollowerURL != "" {
		s.stopShipperLocked()
	}
	meta, body, err := s.syncBody()
	if err != nil || req.FollowerURL == "" {
		return body, err
	}
	return body, s.startShipperLocked(req.FollowerURL, meta.Cursor)
}

// startShipperLocked arms a shipper streaming this node's WAL from cur to the
// follower at url. The caller holds s.arcs.shipMu, with no shipper running.
func (s *Server) startShipperLocked(url string, cur wire.ShipCursor) error {
	sh, err := transport.NewShipper(transport.ShipperConfig{
		RM:         s.rm,
		Follower:   transport.NewPeer(url),
		FromNode:   s.cfg.ID,
		ToNode:     -1,
		Faults:     s.cfg.Faults,
		Start:      cur,
		SyncCommit: s.cfg.SyncCommit,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	s.arcs.shipStop, s.arcs.shipDone = cancel, done
	logf("shipping WAL to follower %s from segment %d record %d", url, cur.Seg, cur.Rec)
	go func() {
		defer close(done)
		err := sh.Run(ctx)
		switch {
		case err == nil || ctx.Err() != nil:
		case errors.Is(err, wire.ErrFenced):
			// The follower we were feeding outranks us: it has been promoted
			// and refused our batch. Fence now — a zombie serving writes is a
			// split brain — and rejoin as its follower.
			logf("WAL shipper fenced by %s; rejoining as its follower", url)
			s.standDown(url)
		default:
			logf("WAL shipper to %s stopped: %v", url, err)
		}
	}()
	return nil
}

// stopShipperLocked stops the running shipper, if any, and returns once it has
// exited. The caller holds s.arcs.shipMu.
func (s *Server) stopShipperLocked() {
	if a := &s.arcs; a.shipStop != nil {
		a.shipStop()
		<-a.shipDone
		a.shipStop = nil
	}
}

func (s *Server) stopShipper() {
	s.arcs.shipMu.Lock()
	defer s.arcs.shipMu.Unlock()
	s.stopShipperLocked()
}

// Follow runs this replica's first sync from its primary (Config.ReplicaOf)
// on its own goroutine. The node must be serving: the primary starts shipping
// to Config.Advertise as part of the sync.
func (s *Server) Follow() {
	url := s.cfg.ReplicaOf
	s.goArc(func(ctx context.Context) error {
		meta, err := s.resync(ctx, transport.NewPeer(url))
		if err != nil {
			return fmt.Errorf("replica sync from %s failed: %w", url, err)
		}
		logf("replica synced from %s: epoch %d, %d buckets, plan seq %d, cursor segment %d record %d",
			url, meta.Epoch, meta.Buckets, meta.PlanSeq, meta.Cursor.Seg, meta.Cursor.Rec)
		return nil
	})
}

// rejoin demotes this fenced ex-primary into the followership of the primary
// at url, by a full resync: whatever this node took after the promotion goes
// with its log, and the primary's snapshot replaces both.
func (s *Server) rejoin(ctx context.Context, url string) error {
	if s.answer(reqDemote).do == skip {
		return nil // an earlier order already took effect
	}
	// Stopping the shipper fails any sync-commit waiters parked on the dead
	// stream: nothing will ever confirm them, and the install fences the
	// engine, which waits for every transaction in flight.
	s.stopShipper()
	primary := transport.NewPeer(url)
	if err := primary.WaitHealthy(ctx, time.Minute); err != nil {
		return fmt.Errorf("rejoin: new primary %s unreachable: %w", url, err)
	}
	pst, err := primary.ReplStatus(ctx)
	if err != nil {
		return fmt.Errorf("rejoin: new primary %s status: %w", url, err)
	}
	if pst.Epoch <= s.rm.Epoch() {
		logf("rejoin refused: %v: %s is at epoch %d, ours is %d", wire.ErrFenced, url, pst.Epoch, s.rm.Epoch())
		return nil
	}
	meta, err := s.resync(ctx, primary)
	if err != nil {
		return fmt.Errorf("rejoin full resync from %s: %w", url, err)
	}
	logf("rejoined %s by full resync: epoch %d, %d buckets, cursor segment %d record %d",
		url, meta.Epoch, meta.Buckets, meta.Cursor.Seg, meta.Cursor.Rec)
	return nil
}

// resync rebuilds this node as a follower of primary from the primary's sync
// stream, discarding whatever it held: a replica's first sync, and every
// rejoin. From its first line on the node is syncing: it refuses ship batches
// retryably until the install completes.
func (s *Server) resync(ctx context.Context, primary *transport.Peer) (wire.ReplSyncMeta, error) {
	s.repl.mu.Lock()
	_ = s.become(roleSyncing) // every role may start a sync
	s.repl.mu.Unlock()
	if err := primary.WaitHealthy(ctx, time.Minute); err != nil {
		return wire.ReplSyncMeta{}, err
	}
	meta, set, err := primary.ReplSync(ctx, s.cfg.Advertise)
	if err != nil {
		return meta, err
	}
	return meta, s.InstallReplicaState(meta, set)
}

// logf prints one line of the node's operator log on stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "serve: "+format+"\n", args...)
}
