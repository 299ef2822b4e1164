package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"pstore/internal/faults"
	"pstore/internal/recovery"
	"pstore/internal/wal"
	"pstore/internal/wire"
)

// Replication client half: the sync/ship/promote calls a serving process
// (or the coordinator) makes against a node's /v1/repl/* endpoints, and the
// Shipper — the loop a primary runs to stream its WAL to a follower.

// ReplSync bootstraps this peer as the follower's source: the peer streams
// back its sync meta frame and an image set of every hosted bucket, which is
// returned as it arrived — server.InstallReplicaState decodes and checks it.
func (p *Peer) ReplSync(ctx context.Context, followerURL string) (wire.ReplSyncMeta, []byte, error) {
	var meta wire.ReplSyncMeta
	body, err := p.do(ctx, http.MethodPost, wire.PathReplSync, wire.ReplSync{FollowerURL: followerURL})
	if err != nil {
		return meta, nil, err
	}
	r := bytes.NewReader(body)
	if err := wire.DecodeFrame(r, &meta); err != nil {
		return meta, nil, fmt.Errorf("transport: sync meta frame: %w", err)
	}
	return meta, body[len(body)-r.Len():], nil
}

// Ship delivers one WAL batch to the peer (a follower) and returns its ack.
func (p *Peer) Ship(ctx context.Context, b *wire.ShipBatch) (wire.ShipAck, error) {
	var ack wire.ShipAck
	var buf bytes.Buffer
	if err := wire.WriteShipBatch(&buf, b); err != nil {
		return ack, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+wire.PathReplShip, bytes.NewReader(buf.Bytes()))
	if err != nil {
		return ack, err
	}
	req.Header.Set("Content-Type", wire.ContentTypeChunk)
	resp, err := p.hc.Do(req)
	if err != nil {
		return ack, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return ack, err
	}
	if resp.StatusCode != http.StatusOK {
		return ack, peerError(resp.StatusCode, body)
	}
	return ack, json.Unmarshal(body, &ack)
}

// Promote asks the peer (a synced follower) to become primary under epoch.
func (p *Peer) Promote(ctx context.Context, epoch uint64) (wire.ReplStatus, error) {
	var st wire.ReplStatus
	err := p.postJSON(ctx, wire.PathReplPromote, wire.ReplPromote{Epoch: epoch}, &st)
	return st, err
}

// ReplDemote orders the peer (a fenced ex-primary) to stand down and rejoin
// the primary at primaryURL as a follower. The reply is the peer's current
// status — the demotion completes asynchronously; poll ReplStatus for
// role "replica" and a converged applied cursor.
func (p *Peer) ReplDemote(ctx context.Context, primaryURL string) (wire.ReplStatus, error) {
	var st wire.ReplStatus
	err := p.postJSON(ctx, wire.PathReplDemote, wire.ReplDemote{PrimaryURL: primaryURL}, &st)
	return st, err
}

// ReplStatus fetches the peer's replication self-description.
func (p *Peer) ReplStatus(ctx context.Context) (wire.ReplStatus, error) {
	var st wire.ReplStatus
	body, err := p.do(ctx, http.MethodGet, wire.PathReplStatus, nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// SetPeer repoints one peer slot in the node's forwarding table — the
// coordinator's rewiring step after a promotion.
func (p *Peer) SetPeer(ctx context.Context, node int, url string) error {
	return p.postJSON(ctx, wire.PathNodePeer, wire.NodePeer{Node: node, URL: url}, nil)
}

// Health probes /v1/healthz. A node with a latched WAL error answers 503,
// so this is the coordinator's failure-detection probe: network death and
// lost durability look the same.
func (p *Peer) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+wire.PathHealth, nil)
	if err != nil {
		return err
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("transport: %s unhealthy (%d): %s", p.base, resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// ErrShipResync is latched by a Shipper whose follower answered Resync: the
// follower failed to apply something it had accepted, and its memory trails
// its log for good. Only a fresh sync can continue.
var ErrShipResync = errors.New("transport: follower requires resync")

// ShipperConfig assembles a Shipper.
type ShipperConfig struct {
	// RM is the primary's recovery manager (the WAL being shipped).
	RM *recovery.Manager
	// Follower is the ship destination.
	Follower *Peer
	// FromNode/ToNode key the fault injector's (pair, batch, attempt) hash.
	FromNode, ToNode int
	// Faults, when set, is the schedule the replication-stream faults are
	// drawn from (faults.Schedule.OnBatch).
	Faults *faults.Schedule
	// BatchRecords caps records per batch (0 = wal.MaxShipRecords).
	BatchRecords int
	// Start is the cursor shipping begins from (the sync response's cursor).
	Start wire.ShipCursor
	// SyncCommit arms the WAL's remote-ack barrier for the shipper's
	// lifetime: the primary's appends return only once the follower has them
	// fsynced in its own log — durable on two machines, executed on neither
	// yet, perhaps. Follower acks feed the barrier; when the shipper
	// stops or latches a terminal error, in-flight waiters are failed
	// (recovery.AbortSync) and the barrier is disarmed — writes degrade to
	// local durability rather than hanging, and the degradation is loud in
	// the caller's log via the Run error.
	SyncCommit bool
}

// Shipper streams a primary's WAL to one follower: read records beyond the
// cursor, frame them as a batch, deliver, advance on ack. Gap acks rewind
// to the follower's authoritative cursor (so duplicates and reorders
// converge), and each ack re-pins WAL retention at the oldest unacked
// segment. A Resync or Fenced answer latches a terminal error — the shipper
// has no unilateral recovery from either.
type Shipper struct {
	cfg ShipperConfig

	mu      sync.Mutex
	cur     wal.ShipCursor
	acked   wal.ShipCursor
	seq     uint64
	pending *wire.ShipBatch
	err     error
	shipped int64
}

// NewShipper builds a shipper resuming from cfg.Start.
func NewShipper(cfg ShipperConfig) (*Shipper, error) {
	if cfg.RM == nil || cfg.Follower == nil {
		return nil, errors.New("transport: ShipperConfig needs RM and Follower")
	}
	if !cfg.RM.Durable() {
		return nil, recovery.ErrNotDurable
	}
	start := cfg.Start
	s := &Shipper{cfg: cfg, cur: start, acked: start}
	s.cfg.RM.PinShip(start.Seg)
	if cfg.SyncCommit {
		// Everything up to the start cursor is already on the follower (it
		// just synced to it), so the barrier opens exactly there.
		s.cfg.RM.SetRemoteAck(start)
		s.cfg.RM.SetSyncCommit(true)
	}
	return s, nil
}

// Err returns the latched terminal error, if any.
func (s *Shipper) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// fatal latches a terminal error.
func (s *Shipper) fatal(err error) error {
	if s.err == nil {
		s.err = err
	}
	return s.err
}

// shipOnce ships at most one batch (plus the read-ahead batch a reorder fault
// pulls forward) and returns the records the follower acknowledged — durable
// in its log, applied behind the ack — during the call; zero with a nil error
// means caught up, or the batch was dropped or partitioned by the injector
// and will be retried. A caught-up call also returns the log's wake channel:
// closed once there is something new to ship.
func (s *Shipper) shipOnce(ctx context.Context) (int, <-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, nil, s.err
	}
	b := s.pending
	if b == nil {
		frames, next, wake, err := s.cfg.RM.ReadShip(s.cur, s.cfg.BatchRecords)
		if err != nil {
			if errors.Is(err, wal.ErrShipGone) {
				return 0, nil, s.fatal(err)
			}
			return 0, nil, err
		}
		if len(frames) == 0 {
			return 0, wake, nil
		}
		b = &wire.ShipBatch{Epoch: s.cfg.RM.Epoch(), Seq: s.seq, From: s.cur, Next: next, Frames: frames}
		s.seq++
		s.pending = b
	}
	n, err := s.sendLocked(ctx, b)
	return n, nil, err
}

// sendLocked puts the pending batch b through the fault plane and delivers
// it. The caller holds s.mu.
func (s *Shipper) sendLocked(ctx context.Context, b *wire.ShipBatch) (int, error) {
	var dec faults.ShipDecision
	if s.cfg.Faults != nil {
		dec = s.cfg.Faults.OnBatch(s.cfg.FromNode, s.cfg.ToNode, b.Seq)
	}
	if dec.Partitioned || dec.Drop {
		// The follower sees nothing; the same batch retries next call under
		// the next attempt number.
		return 0, nil
	}
	if dec.Delay > 0 {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(dec.Delay):
		}
	}
	applied := 0
	if dec.Reorder {
		// Pull the stream's next batch forward: the follower refuses it with
		// a gap ack, then accepts the held batch, then the re-delivery.
		ahead, next, _, err := s.cfg.RM.ReadShip(b.Next, s.cfg.BatchRecords)
		if err != nil && !errors.Is(err, wal.ErrShipGone) {
			return 0, err
		}
		if len(ahead) > 0 {
			c := &wire.ShipBatch{Epoch: b.Epoch, Seq: s.seq, From: b.Next, Next: next, Frames: ahead}
			s.seq++
			for _, out := range []*wire.ShipBatch{c, b, c} {
				n, err := s.deliverLocked(ctx, out)
				if err != nil {
					return applied, err
				}
				applied += n
			}
			s.pending = nil
			return applied, nil
		}
		// Nothing to pull forward; fall through to a plain delivery.
	}
	n, err := s.deliverLocked(ctx, b)
	if err != nil {
		return applied, err
	}
	applied += n
	if dec.Dup {
		// Mechanical re-delivery of the identical batch; the follower's
		// cursor check turns it into a gap ack pointing where we already are.
		if _, err := s.deliverLocked(ctx, b); err != nil {
			return applied, err
		}
	}
	s.pending = nil
	return applied, nil
}

// deliverLocked sends one batch and folds its ack into the cursor state.
// The caller holds s.mu.
func (s *Shipper) deliverLocked(ctx context.Context, b *wire.ShipBatch) (int, error) {
	ack, err := s.cfg.Follower.Ship(ctx, b)
	if err != nil {
		if errors.Is(err, wire.ErrFenced) {
			return 0, s.fatal(err)
		}
		// Transient: follower down, not ready, or network error. Retry later.
		return 0, err
	}
	if ack.Resync {
		return 0, s.fatal(ErrShipResync)
	}
	applied := 0
	if ack.Gap {
		// The follower's cursor is authoritative; rewind (or fast-forward,
		// for a duplicate delivery) and rebuild from there.
		s.cur = ack.Received
		s.pending = nil
	} else {
		applied = len(b.Frames)
		s.cur = b.Next
		s.shipped++
	}
	// Received, not Applied: the follower holds everything before it durable,
	// which is what retention and the sync-commit barrier wait for.
	s.acked = ack.Received
	s.cfg.RM.PinShip(s.acked.Seg)
	if s.cfg.SyncCommit {
		s.cfg.RM.SetRemoteAck(s.acked)
	}
	return applied, nil
}

// shipRetry is Run's back-off after a step that neither shipped anything nor
// found the follower caught up: a transient delivery error, a batch the
// fault plane swallowed, or a gap ack that rewound the cursor.
const shipRetry = 5 * time.Millisecond

// Run ships until ctx is done or a terminal error latches. While the
// follower is caught up it sleeps on the log's wake channel — the fsync that
// makes the next record durable is what starts its delivery; nothing polls.
// In sync-commit mode, exiting for any reason fails every append still
// waiting on the barrier and disarms it: no confirmation is coming, and
// blocking writers forever is worse than degrading loudly.
func (s *Shipper) Run(ctx context.Context) error {
	if s.cfg.SyncCommit {
		defer func() {
			s.cfg.RM.AbortSync()
			s.cfg.RM.SetSyncCommit(false)
		}()
	}
	for {
		n, wake, err := s.shipOnce(ctx)
		if err != nil {
			if s.Err() != nil {
				return s.Err()
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		if n > 0 {
			// More may be waiting; ship again immediately.
			continue
		}
		var retry <-chan time.Time
		if wake == nil {
			retry = time.After(shipRetry)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-wake:
		case <-retry:
		}
	}
}
