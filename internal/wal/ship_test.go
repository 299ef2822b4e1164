package wal

import (
	"bytes"
	"errors"
	"testing"
)

// decodeFrames is what a follower does with the frames ReadShip hands out.
func decodeFrames(t testing.TB, frames [][]byte) []Record {
	t.Helper()
	recs := make([]Record, len(frames))
	for i, f := range frames {
		r, n, err := DecodeRecord(f)
		if err != nil || n != len(f) {
			t.Fatalf("shipped frame %d: decoded %d of %d bytes, err %v", i, n, len(f), err)
		}
		recs[i] = r
	}
	return recs
}

// TestReadShipStreamsWholeLog pins the core shipping contract: reading from
// the zero cursor in bounded chunks yields every durable record in log
// order — commands and plan records alike — across segment rotations, and
// the final cursor is caught up (further reads empty, ShipEnd agrees).
func TestReadShipStreamsWholeLog(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, 2<<10) // tiny segments: force rotations
	defer l.Close()
	g := testGeometry()
	heads := make([]uint64, g.Buckets)
	type want struct {
		txn  string
		lsn  uint64
		plan uint64
	}
	var wants []want
	plan := make([]int32, g.Buckets)
	for i := 0; i < 300; i++ {
		if i%100 == 50 {
			seq := uint64(i/100 + 1)
			if err := l.LogPlan(plan, 2); err != nil {
				t.Fatal(err)
			}
			wants = append(wants, want{plan: seq})
			continue
		}
		b := i % g.Buckets
		heads[b]++
		if err := l.Append(Record{Bucket: b, LSN: heads[b], Txn: "put", Key: "k", Args: i}); err != nil {
			t.Fatal(err)
		}
		wants = append(wants, want{txn: "put", lsn: heads[b]})
	}
	if l.Stats().Rotations == 0 {
		t.Fatal("test needs rotations; none happened")
	}

	var got []Record
	cur := ShipCursor{}
	for {
		recs, next, _, err := l.ReadShip(cur, 37) // odd chunk size: land mid-segment
		if err != nil {
			t.Fatalf("ReadShip at %+v: %v", cur, err)
		}
		if len(recs) == 0 {
			break
		}
		got = append(got, decodeFrames(t, recs)...)
		cur = next
	}
	if len(got) != len(wants) {
		t.Fatalf("shipped %d records, want %d", len(got), len(wants))
	}
	for i, r := range got {
		w := wants[i]
		if w.plan > 0 {
			if !r.IsPlan() || r.PlanSeq != w.plan || r.Active != 2 {
				t.Fatalf("record %d: got %+v, want plan seq %d", i, r, w.plan)
			}
		} else if r.IsPlan() || r.Txn != w.txn || r.LSN != w.lsn {
			t.Fatalf("record %d: got %+v, want %+v", i, r, w)
		}
	}
	if recs, _, _, err := l.ReadShip(cur, 0); err != nil || len(recs) != 0 {
		t.Fatalf("read past end: %d records, err %v", len(recs), err)
	}
	// ShipEnd must agree with the cursor the incremental reads arrived at.
	if end := l.ShipEnd(); end != cur {
		t.Fatalf("ShipEnd %+v != streamed cursor %+v", end, cur)
	}
}

// TestReadShipResumesMidSegment checks that a cursor taken mid-stream
// resumes exactly where it left off: the concatenation of two independent
// reads equals one full read.
func TestReadShipResumesMidSegment(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, 2<<10)
	defer l.Close()
	for lsn := uint64(1); lsn <= 120; lsn++ {
		if err := l.Append(Record{Bucket: 3, LSN: lsn, Txn: "put", Key: "k", Args: int(lsn)}); err != nil {
			t.Fatal(err)
		}
	}
	full, _, _, err := l.ReadShip(ShipCursor{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	head, cur, _, err := l.ReadShip(ShipCursor{}, 41)
	if err != nil {
		t.Fatal(err)
	}
	tail, _, _, err := l.ReadShip(cur, 1000)
	if err != nil {
		t.Fatalf("resume at %+v: %v", cur, err)
	}
	if len(head)+len(tail) != len(full) {
		t.Fatalf("split read %d+%d records != full %d", len(head), len(tail), len(full))
	}
	for i, r := range append(head, tail...) {
		if !bytes.Equal(r, full[i]) {
			t.Fatalf("record %d: split read shipped %x, full read %x", i, r, full[i])
		}
	}
}

// TestShipGoneAfterCompaction pins retention: without a pin, Checkpoint
// deletes sealed segments out from under an old cursor (ErrShipGone, full
// resync required); with PinShip the segments survive and the read works.
func TestShipGoneAfterCompaction(t *testing.T) {
	run := func(t *testing.T, pin bool) {
		fs := NewMemFS(1)
		l, _ := openTest(t, fs, 2<<10)
		defer l.Close()
		g := testGeometry()
		heads := make([]uint64, g.Buckets)
		for i := 0; i < 400; i++ {
			b := i % g.Buckets
			heads[b]++
			if err := l.Append(Record{Bucket: b, LSN: heads[b], Txn: "put", Key: "k", Args: i}); err != nil {
				t.Fatal(err)
			}
		}
		if l.Stats().Rotations == 0 {
			t.Fatal("test needs rotations; none happened")
		}
		// Materialize a cursor into segment 1: the zero cursor means "start
		// of retained log" and silently skips to whatever survives, but a
		// follower mid-stream holds a concrete segment position.
		head, cur, _, err := l.ReadShip(ShipCursor{}, 10)
		if err != nil || len(head) != 10 || cur.Seg != 1 {
			t.Fatalf("priming read: %d records, cursor %+v, err %v", len(head), cur, err)
		}
		if pin {
			l.PinShip(1)
		}
		var round []*Image
		for b := 0; b < g.Buckets; b++ {
			if heads[b] == 0 {
				continue
			}
			round = append(round, &Image{Bucket: b, LSN: heads[b], Rows: 1,
				Tables: map[string]map[string]any{"T": {"k": b}}})
		}
		if err := l.WriteImages(round); err != nil {
			t.Fatal(err)
		}
		if err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		recs, _, _, err := l.ReadShip(cur, 1<<20)
		if pin {
			if err != nil {
				t.Fatalf("pinned read failed: %v", err)
			}
			if len(recs) != 390 {
				t.Fatalf("pinned read returned %d records, want 390", len(recs))
			}
			if l.Stats().CompactedSegments != 0 {
				t.Fatal("pin did not block compaction")
			}
		} else {
			if !errors.Is(err, ErrShipGone) {
				t.Fatalf("unpinned read after compaction: err = %v, want ErrShipGone", err)
			}
			if l.Stats().CompactedSegments == 0 {
				t.Fatal("checkpoint compacted nothing; test proves nothing")
			}
		}
	}
	t.Run("unpinned", func(t *testing.T) { run(t, false) })
	t.Run("pinned", func(t *testing.T) { run(t, true) })
}

// TestEpochPersistsAndFences checks the fencing term: SetEpoch survives a
// reopen (it is in the manifest, not just memory) and refuses to go
// backwards — the zombie-primary case.
func TestEpochPersistsAndFences(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, DefaultSegmentBytes)
	if l.Epoch() != 0 {
		t.Fatalf("fresh log epoch = %d, want 0", l.Epoch())
	}
	if err := l.SetEpoch(3); err != nil {
		t.Fatal(err)
	}
	if err := l.SetEpoch(3); err != nil {
		t.Fatalf("idempotent SetEpoch failed: %v", err)
	}
	if err := l.SetEpoch(2); err == nil {
		t.Fatal("SetEpoch lowered the term")
	}
	if err := l.Append(Record{Bucket: 1, LSN: 1, Txn: "put", Key: "k", Args: 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, _ := openTest(t, fs, DefaultSegmentBytes)
	defer l2.Close()
	if l2.Epoch() != 3 {
		t.Fatalf("epoch after reopen = %d, want 3", l2.Epoch())
	}
	if len(readTails(t, l2)[1]) != 1 {
		t.Fatalf("epoch bump lost the record tail: %+v", readTails(t, l2)[1])
	}
}
