package node_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pstore/internal/node"
	"pstore/internal/recovery"
	"pstore/internal/wal"
)

// The log bound: every node — primary, replica, promoted replica — checkpoints
// its own log once two segments of records have become durable past the start
// of the segment its last round could not delete, so with 1 KiB segments and
// nobody calling Checkpoint, 40 writes per key keep sealing segments and the
// rounds keep deleting them.

const boundSegBytes = 1 << 10

// boundedConfig is kvConfig logging to 1 KiB segments.
func boundedConfig(t *testing.T) node.Config {
	cfg := kvConfig(t)
	cfg.Recovery.SegmentBytes = boundSegBytes
	return cfg
}

// logCeiling is what no node's retained log may reach: the rounds fire at two
// segments past the segment the last round could not delete, and what is
// appended while a round runs comes on top — at 1 KiB segments, a round that
// waits out a slow fsync or two takes a few segments' worth of sequential
// writes. Without the bound, 40 writes per key keep about 150 KiB.
const logCeiling = 8 * boundSegBytes

// writeBounded puts 40 values per key into n, checking after each that every
// node in watch retains less than logCeiling bytes of log.
func writeBounded(t *testing.T, n *node.Node, watch ...*node.Node) {
	t.Helper()
	for i := 0; i < 40*keys; i++ {
		put(t, n, fmt.Sprintf("k-%d", i%keys), i)
		for _, w := range watch {
			if got := w.Recovery.LogBytes(); got >= logCeiling {
				t.Fatalf("after write %d the log holds %d bytes, want below %d", i, got, logCeiling)
			}
		}
	}
}

// compacted waits for n's rounds to have deleted sealed segments since before.
func compacted(t *testing.T, n *node.Node, before wal.Stats) {
	t.Helper()
	eventually(t, "sealed segments compacted", func() bool {
		return n.Recovery.WALStats().CompactedSegments > before.CompactedSegments
	})
	if err := n.Recovery.Err(); err != nil {
		t.Fatalf("the log latched an error: %v", err)
	}
}

func TestLogBoundPrimary(t *testing.T) {
	p := startNode(t, boundedConfig(t))
	before := p.Recovery.WALStats()
	writeBounded(t, p, p)
	compacted(t, p, before)
}

// TestLogBoundReplica: the replica's rounds quiesce its applier, and what they
// leave on disk cold-starts to the primary's rows.
func TestLogBoundReplica(t *testing.T) {
	p := startNode(t, boundedConfig(t))
	fcfg := replicaOf(t, p)
	fcfg.Recovery.SegmentBytes = boundSegBytes
	f := startNode(t, fcfg)
	waitCaughtUp(t, p, f)
	before := f.Recovery.WALStats()
	writeBounded(t, p, f)
	waitCaughtUp(t, p, f)
	compacted(t, f, before)
	f.Close()

	fcfg.ReplicaOf = ""
	c, err := node.Open(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.ColdStart == nil {
		t.Fatal("the replica's data directory did not cold-start")
	}
	if got, want := c.Engine.TotalRows(), p.Engine.TotalRows(); got != want {
		t.Fatalf("cold-started replica holds %d rows, the primary %d", got, want)
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k-%d", i)
		if got, want := get(t, c, k), get(t, p, k); got != want {
			t.Fatalf("%s = %d on the cold-started replica, %d on the primary", k, got, want)
		}
	}
}

func TestLogBoundPromotedReplica(t *testing.T) {
	p := startNode(t, boundedConfig(t))
	fcfg := replicaOf(t, p)
	fcfg.Recovery.SegmentBytes = boundSegBytes
	f := startNode(t, fcfg)
	waitCaughtUp(t, p, f)
	p.Close()
	promote(t, f)
	before := f.Recovery.WALStats()
	writeBounded(t, f, f)
	compacted(t, f, before)
}

// TestLogBoundCloseMidRound closes a primary while a round the bound started
// is writing its image set: Close returns nil, and only after the round has
// completed.
func TestLogBoundCloseMidRound(t *testing.T) {
	fs := wal.NewMemFS(1)
	cfg := boundedConfig(t)
	cfg.Recovery = recovery.Config{DataDir: "data", FS: fs, SegmentBytes: boundSegBytes}
	p := startNode(t, cfg)
	ckpts := p.Recovery.Stats().Checkpoints

	writing, release := make(chan struct{}), make(chan struct{})
	var held, released sync.Once
	open := func() { released.Do(func() { close(release) }) }
	t.Cleanup(open)
	fs.SetSyncHook(func(name string) error {
		if strings.Contains(name, "set-") {
			held.Do(func() { close(writing) })
			<-release
		}
		return nil
	})
	for i := 0; ; i++ {
		select {
		case <-writing:
		default:
			if i == 40*keys {
				t.Fatalf("%d writes started no round", i)
			}
			put(t, p, fmt.Sprintf("k-%d", i%keys), i)
			continue
		}
		break
	}

	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while the round was writing its image set", err)
	case <-time.After(50 * time.Millisecond):
	}
	open()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := p.Recovery.Stats().Checkpoints; got != ckpts+1 {
		t.Fatalf("%d rounds completed by Close, want the one in flight", got-ckpts)
	}
}
