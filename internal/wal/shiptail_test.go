package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tailArgs stands in for a procedure's args: a struct with a slice inside,
// the shape a procedure can change in place after the record was enqueued.
type tailArgs struct {
	N     int
	Lines []int
}

// readShipFile answers a ship cursor from the segment files alone — the path
// ReadShip falls back to for a cursor older than the tail — against the same
// durable extent ReadShip would snapshot.
func readShipFile(l *Log, cur ShipCursor, maxRecords int) ([][]byte, ShipCursor, error) {
	l.mu.Lock()
	exts := l.shipExtentsLocked()
	l.mu.Unlock()
	return walkShip(exts, cur, maxRecords, l.fileFetch)
}

func dropTail(l *Log) {
	l.mu.Lock()
	l.dropTailLocked()
	l.mu.Unlock()
}

// randomArgs draws a command's args: none, a number, a string or a struct.
func randomArgs(rng *rand.Rand, lsn uint64) any {
	switch rng.Intn(4) {
	case 0:
		return int(lsn)
	case 1:
		return tailArgs{N: int(lsn), Lines: []int{rng.Intn(9), rng.Intn(9), rng.Intn(9)}}
	case 2:
		return strings.Repeat("v", rng.Intn(40))
	}
	return nil
}

// segmentBytes returns a log directory's segment files laid end to end, in
// sequence order. Frames are self-contained, so the result scans as one
// segment whatever the rotation points were.
func segmentBytes(t *testing.T, fs *MemFS) []byte {
	t.Helper()
	names, err := fs.ReadDir("data")
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, n := range names {
		if strings.HasPrefix(n, "seg-") {
			data, err := readAll(fs, filepath.Join("data", n))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, data...)
		}
	}
	return out
}

// commandFrames splits segment bytes into frames and returns those of the
// command records.
func commandFrames(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var out [][]byte
	start := int64(0)
	if _, err := scanSegment(data, func(r *Record, end int64) {
		if !r.IsPlan() {
			out = append(out, data[start:end])
		}
		start = end
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShipTailMatchesFile is the tail's contract as a property: over random
// sequences of enqueue, sync, rotation, truncation, tail drops and reads,
// whatever cursor ReadShip is asked — inside the tail, older than it, stale,
// or caught up — its frames, its next cursor (byte offset included) and its
// error are the ones the segment files give.
func TestShipTailMatchesFile(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fs := NewMemFS(seed)
			l, _ := openTest(t, fs, 1<<10) // small segments: rotations happen on their own too
			defer l.Close()
			g := testGeometry()

			var lastTicket uint64
			var lsn uint64
			cursors := []ShipCursor{{}} // every cursor a read has handed back, valid or since cut off
			sync := func() {
				if err := l.Wait(lastTicket); err != nil {
					t.Fatalf("Wait: %v", err)
				}
			}
			for op := 0; op < 600; op++ {
				switch k := rng.Intn(100); {
				case k < 45: // enqueue a command; durable only after a later sync
					lsn++
					seq, err := l.Enqueue(Record{Bucket: rng.Intn(g.Buckets), LSN: lsn, Txn: "put", Key: fmt.Sprint("k", lsn), Args: randomArgs(rng, lsn)})
					if err != nil {
						t.Fatalf("Enqueue: %v", err)
					}
					lastTicket = seq
				case k < 48: // a plan record (enqueue + sync)
					if err := l.LogPlan(make([]int32, g.Buckets), 1+rng.Intn(3)); err != nil {
						t.Fatalf("LogPlan: %v", err)
					}
				case k < 58:
					sync()
				case k < 60: // the tail overflows: old cursors fall off it
					dropTail(l)
				case k < 64: // rotate now, wherever the segment stands
					sync()
					l.mu.Lock()
					err := l.rotateLocked()
					l.mu.Unlock()
					if err != nil {
						t.Fatalf("rotate: %v", err)
					}
				case k < 67: // cut the log back to a cursor some read returned
					sync()
					cut := cursors[rng.Intn(len(cursors))]
					if cut.Seg > 0 && cut.Rec == 0 {
						// Legal, but it ends the run: the cut segment's number stays
						// unused and every older cursor reads as compacted from then on.
						continue
					}
					// A stale cursor, or a plan record in the suffix, is refused and
					// leaves the log as it was.
					if _, err := l.TruncateTo(cut); err == nil {
						lastTicket = 0 // its record may be gone; nothing is buffered
					} else if l.err != nil {
						t.Fatalf("TruncateTo(%+v) killed the log: %v", cut, err)
					}
				default: // read one cursor both ways
					cur := cursors[rng.Intn(len(cursors))]
					maxRecords := 1 + rng.Intn(40)
					got, gotNext, wake, gotErr := l.ReadShip(cur, maxRecords)
					want, wantNext, wantErr := readShipFile(l, cur, maxRecords)
					if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
						t.Fatalf("op %d: ReadShip(%+v, %d) error %v, the files say %v", op, cur, maxRecords, gotErr, wantErr)
					}
					if gotErr != nil {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("op %d: ReadShip(%+v, %d) frames differ from the files:\n got %x\nwant %x", op, cur, maxRecords, got, want)
					}
					if gotNext != wantNext {
						t.Fatalf("op %d: ReadShip(%+v, %d) next cursor %+v, the files say %+v", op, cur, maxRecords, gotNext, wantNext)
					}
					if (wake != nil) != (len(got) == 0) {
						t.Fatalf("op %d: %d records came with wake channel %v: a channel comes with an empty read and only then", op, len(got), wake)
					}
					cursors = append(cursors, gotNext)
				}
			}
			if s := l.Stats(); s.ShipTailReads == 0 || s.ShipFileReads == 0 || s.ShipEmptyReads == 0 {
				t.Fatalf("the sequence never exercised every source: %d tail, %d file, %d empty reads", s.ShipTailReads, s.ShipFileReads, s.ShipEmptyReads)
			}
		})
	}
}

// TestFollowerSegmentIsPrimaryBytes: a record has one serialized form. Random
// commands and plan records cross rotations on a primary and are shipped to a
// follower log — first out of the tail, then, the tail dropped behind a
// lagging cursor, out of the segment files — which appends the command
// frames it is handed. Every command frame in the follower's segments is then
// the primary's, byte for byte and in order, and both logs decode to the same
// records.
func TestFollowerSegmentIsPrimaryBytes(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pfs, ffs := NewMemFS(seed), NewMemFS(seed)
			primary, _ := openTest(t, pfs, 1<<10)
			defer primary.Close()
			follower, _ := openTest(t, ffs, 1<<10)
			defer follower.Close()
			g := testGeometry()

			var lsn uint64
			write := func(n int) {
				for i := 0; i < n; i++ {
					if rng.Intn(12) == 0 {
						if err := primary.LogPlan(make([]int32, g.Buckets), 1+rng.Intn(3)); err != nil {
							t.Fatal(err)
						}
						continue
					}
					lsn++
					if err := primary.Append(Record{Bucket: rng.Intn(g.Buckets), LSN: lsn, Txn: "put", Key: fmt.Sprint("k", lsn), Args: randomArgs(rng, lsn)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			cur := ShipCursor{}
			ship := func(batches int) {
				for ; batches > 0; batches-- {
					frames, next, _, err := primary.ReadShip(cur, 1+rng.Intn(20))
					if err != nil {
						t.Fatalf("ReadShip(%+v): %v", cur, err)
					}
					if len(frames) == 0 {
						return
					}
					var ticket uint64
					for i, r := range decodeFrames(t, frames) {
						if r.IsPlan() {
							continue // a follower re-runs a plan change; it logs its own record of it
						}
						got, seq, err := follower.EnqueueFrame(frames[i])
						if err != nil || !reflect.DeepEqual(got, r) {
							t.Fatalf("EnqueueFrame: %+v, err %v; the frame holds %+v", got, err, r)
						}
						ticket = seq
					}
					if err := follower.Wait(ticket); err != nil {
						t.Fatal(err)
					}
					cur = next
				}
			}
			write(120)
			ship(3)
			if s := primary.Stats(); s.ShipTailReads != 3 || s.ShipFileReads != 0 {
				t.Fatalf("a fresh log served %d tail reads and %d file reads, want 3 and 0", s.ShipTailReads, s.ShipFileReads)
			}
			write(120)
			dropTail(primary)
			write(40)
			ship(1 << 20) // to the end
			if s := primary.Stats(); s.ShipFileReads == 0 || s.Rotations == 0 {
				t.Fatalf("%d file reads over %d rotations: the lagging cursor never left the tail, or never crossed a segment", s.ShipFileReads, s.Rotations)
			}
			if end := primary.ShipEnd(); cur != end {
				t.Fatalf("shipped to %+v, the log ends at %+v", cur, end)
			}

			pdata, fdata := segmentBytes(t, pfs), segmentBytes(t, ffs)
			pframes, fframes := commandFrames(t, pdata), commandFrames(t, fdata)
			if len(pframes) != int(lsn) || len(fframes) != len(pframes) {
				t.Fatalf("primary holds %d command frames, follower %d, %d were appended", len(pframes), len(fframes), lsn)
			}
			for i := range pframes {
				if !bytes.Equal(pframes[i], fframes[i]) {
					t.Fatalf("command %d: follower's frame %x, primary's %x", i, fframes[i], pframes[i])
				}
			}
			precs, _, perr := DecodeSegment(pdata)
			frecs, _, ferr := DecodeSegment(fdata)
			if perr != nil || ferr != nil || !reflect.DeepEqual(precs, frecs) {
				t.Fatalf("the logs decode differently (errors %v, %v):\nprimary  %+v\nfollower %+v", perr, ferr, precs, frecs)
			}
		})
	}
}

// TestFileFetchSkipsConsumedPrefix: a segment is seekable. A ship read at
// record k of a sealed segment steps over the k frames before it by their
// length prefixes and decodes none of them — shown by damaging record 0's
// payload, which a read from record 0 trips over and a read from k does not.
func TestFileFetchSkipsConsumedPrefix(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, DefaultSegmentBytes)
	defer l.Close()
	for lsn := uint64(1); lsn <= 50; lsn++ {
		if err := l.Append(Record{Bucket: 3, LSN: lsn, Txn: "put", Key: "k", Args: int(lsn)}); err != nil {
			t.Fatal(err)
		}
	}
	l.mu.Lock()
	err := l.rotateLocked()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	const k = 30
	_, at, _, err := l.ReadShip(ShipCursor{}, k)
	if err != nil || at.Rec != k {
		t.Fatalf("ReadShip to record %d: cursor %+v, err %v", k, at, err)
	}
	want, _, _, err := l.ReadShip(at, 10)
	if err != nil {
		t.Fatal(err)
	}
	dropTail(l)
	fs.files[filepath.Join("data", segName(1))].data[frameHeaderSize+3] ^= 0x40

	got, next, _, err := l.ReadShip(at, 10)
	if err != nil {
		t.Fatalf("read at record %d decoded a record before it: %v", k, err)
	}
	if !reflect.DeepEqual(got, want) || next.Rec != k+10 {
		t.Fatalf("read at record %d returned other frames than the tail did, or cursor %+v", k, next)
	}
	if _, _, _, err := l.ReadShip(ShipCursor{}, 10); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("read at record 0 of the damaged segment: err %v, want a CRC failure", err)
	}
}

// TestShipBatchAndTailBoundedByBytes: big records. A batch is cut where the
// next frame would take it past MaxShipBytes, however many records were asked
// for, from the tail and from the files alike; the tail never holds twice
// shipTailBytes; and a record no batch could carry is refused at Enqueue.
func TestShipBatchAndTailBoundedByBytes(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, DefaultSegmentBytes)
	defer l.Close()
	big := strings.Repeat("x", 4<<10)
	const n = 2200 // > 2*shipTailBytes of frames
	var ticket uint64
	for lsn := uint64(1); lsn <= n; lsn++ {
		var err error
		if ticket, err = l.Enqueue(Record{Bucket: 1, LSN: lsn, Txn: "put", Key: "k", Args: big}); err != nil {
			t.Fatal(err)
		}
		if l.tailBytes >= 2*shipTailBytes {
			t.Fatalf("after %d records the tail holds %d bytes, bound is below %d", lsn, l.tailBytes, 2*shipTailBytes)
		}
	}
	if err := l.Wait(ticket); err != nil {
		t.Fatal(err)
	}
	if l.tail[0].idx == 0 || l.tailBytes < shipTailBytes/2 {
		t.Fatalf("tail starts at record %d with %d bytes: it dropped nothing, or nearly everything", l.tail[0].idx, l.tailBytes)
	}
	size := func(frames [][]byte) (n int) {
		for _, f := range frames {
			n += len(f)
		}
		return n
	}
	// Old cursor: from the files. Recent cursor: from the tail.
	for _, cur := range []ShipCursor{{}, {Seg: 1, Rec: n - 300}} {
		frames, next, _, err := l.ReadShip(cur, 512)
		if err != nil {
			t.Fatal(err)
		}
		if got := size(frames); got > MaxShipBytes || got+len(frames[0]) <= MaxShipBytes || len(frames) >= 300 {
			t.Fatalf("batch at %+v: %d records, %d bytes; want as many as fit %d", cur, len(frames), got, MaxShipBytes)
		}
		if next.Rec != cur.Rec+len(frames) {
			t.Fatalf("batch at %+v of %d records moved the cursor to %+v", cur, len(frames), next)
		}
	}
	if s := l.Stats(); s.ShipFileReads != 1 || s.ShipTailReads != 1 {
		t.Fatalf("%d file reads, %d tail reads, want one each", s.ShipFileReads, s.ShipTailReads)
	}
	if _, err := l.Enqueue(Record{Bucket: 1, LSN: n + 1, Txn: "put", Key: "k", Args: strings.Repeat("x", MaxShipBytes)}); err == nil {
		t.Fatal("a record larger than any ship batch was accepted")
	}
	if err := l.Append(Record{Bucket: 1, LSN: n + 1, Txn: "put", Key: "k", Args: 1}); err != nil {
		t.Fatalf("the refused record latched the log: %v", err)
	}
}

// TestShipTailImmutable: what is shipped is what was logged. The record is
// encoded at Enqueue, so a procedure that afterwards shifts a slice inside
// its input in place — as the cart procedures' stored rows can be shifted by
// later line edits — changes neither the tail's frame nor, of course, the
// segment's.
func TestShipTailImmutable(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, DefaultSegmentBytes)
	defer l.Close()

	args := tailArgs{N: 7, Lines: []int{1, 2, 3}}
	seq, err := l.Enqueue(Record{Bucket: 3, LSN: 1, Txn: "loadCart", Key: "c", Args: args})
	if err != nil {
		t.Fatal(err)
	}
	// The procedure runs now, while the record waits for its fsync.
	copy(args.Lines, args.Lines[1:])
	args.Lines[2] = 99
	if err := l.Wait(seq); err != nil {
		t.Fatal(err)
	}

	fromTail, _, _, err := l.ReadShip(ShipCursor{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, _, err := readShipFile(l, ShipCursor{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s.ShipTailReads != 1 || s.ShipFileReads != 0 {
		t.Fatalf("the read was not served by the tail: %d tail reads, %d file reads", s.ShipTailReads, s.ShipFileReads)
	}
	if !reflect.DeepEqual(fromTail, fromFile) {
		t.Fatalf("tail ships %x, the segment holds %x", fromTail, fromFile)
	}
	want := Record{Bucket: 3, LSN: 1, Txn: "loadCart", Key: "c", Args: tailArgs{N: 7, Lines: []int{1, 2, 3}}}
	if got := decodeFrames(t, fromTail)[0]; !sameRecord(got, want) {
		t.Fatalf("shipped %+v, logged %+v", got, want)
	}
}

// TestOldSegmentLayoutRefused: a data directory written before records were
// self-contained frames (manifest version 2, segments one gob stream each) is
// refused at open, and the error says what it found.
func TestOldSegmentLayoutRefused(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, DefaultSegmentBytes)
	l.Close()
	m := fs.files[filepath.Join("data", manifestName)]
	m.data = bytes.Replace(m.data, []byte(`"version": 3`), []byte(`"version": 2`), 1)
	_, _, err := Open(Config{Dir: "data", Geometry: testGeometry(), FS: fs})
	if err == nil || !strings.Contains(err.Error(), "gob") || !strings.Contains(err.Error(), "fresh data directory") {
		t.Fatalf("open of a version-2 directory: %v; want a refusal naming the gob segment layout", err)
	}
}

// BenchmarkReadShipCaughtUp isolates what a caught-up shipper pays per batch:
// the active segment already holds N records, each iteration makes one more
// durable and reads it at the caught-up cursor. A read served by the tail
// does not depend on N. read-ns/op is the read alone.
func BenchmarkReadShipCaughtUp(b *testing.B) {
	for _, preloaded := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("preloaded=%d", preloaded), func(b *testing.B) {
			l, _, err := Open(Config{Dir: "data", Geometry: testGeometry(), SegmentBytes: 1 << 30, FS: NewMemFS(1)})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			lsn := uint64(0)
			enqueue := func() uint64 {
				lsn++
				seq, err := l.Enqueue(Record{Bucket: 3, LSN: lsn, Txn: "addLine", Key: "cart-1", Args: tailArgs{N: int(lsn), Lines: []int{1, 2, 3}}})
				if err != nil {
					b.Fatal(err)
				}
				return seq
			}
			var last uint64
			for i := 0; i < preloaded; i++ {
				last = enqueue()
			}
			if err := l.Wait(last); err != nil {
				b.Fatal(err)
			}
			cur := l.ShipEnd()

			var reading time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Wait(enqueue()); err != nil {
					b.Fatal(err)
				}
				t0 := time.Now()
				frames, next, _, err := l.ReadShip(cur, 512)
				reading += time.Since(t0)
				if err != nil || len(frames) != 1 || decodeFrames(b, frames)[0].LSN != lsn {
					b.Fatalf("caught-up read: %d records, err %v", len(frames), err)
				}
				cur = next
			}
			b.ReportMetric(float64(reading.Nanoseconds())/float64(b.N), "read-ns/op")
		})
	}
}
