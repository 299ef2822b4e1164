package wal

import (
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// tailArgs stands in for a procedure's args: a struct with a slice inside,
// the shape a procedure can change in place after the record was enqueued.
type tailArgs struct {
	N     int
	Lines []int
}

func init() { gob.Register(tailArgs{}) }

// readShipFile answers a ship cursor from the segment files alone — the path
// ReadShip falls back to for a cursor older than the tail — against the same
// durable extent ReadShip would snapshot.
func readShipFile(l *Log, cur ShipCursor, maxRecords int) ([]ShipRecord, ShipCursor, error) {
	l.mu.Lock()
	exts := l.shipExtentsLocked()
	l.mu.Unlock()
	return walkShip(exts, cur, maxRecords, l.fileFetch)
}

// TestShipTailMatchesFile is the tail's contract as a property: over random
// sequences of enqueue, sync, rotation, truncation and reads, whatever cursor
// ReadShip is asked — inside the tail, older than it, stale, or caught up —
// its records, its next cursor (byte offset included) and its error are the
// ones a decode of the segment files gives; and the tail never holds more
// than twice its size.
func TestShipTailMatchesFile(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fs := NewMemFS(seed)
			l, _ := openTest(t, fs, 1<<10) // small segments: rotations happen on their own too
			defer l.Close()
			l.tailCap = 4 + rng.Intn(24) // small tail: old cursors fall off it
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
					var args any
					switch rng.Intn(3) {
					case 0:
						args = int(lsn)
					case 1:
						args = tailArgs{N: int(lsn), Lines: []int{rng.Intn(9), rng.Intn(9), rng.Intn(9)}}
					}
					seq, err := l.Enqueue(Record{Bucket: rng.Intn(g.Buckets), LSN: lsn, Txn: "put", Key: fmt.Sprint("k", lsn), Args: args})
					if err != nil {
						t.Fatalf("Enqueue: %v", err)
					}
					lastTicket = seq
				case k < 48: // a plan record (enqueue + sync)
					if err := l.LogPlan(make([]int32, g.Buckets), 1+rng.Intn(3)); err != nil {
						t.Fatalf("LogPlan: %v", err)
					}
				case k < 60:
					sync()
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
						t.Fatalf("op %d: ReadShip(%+v, %d) records differ from the files:\n got %+v\nwant %+v", op, cur, maxRecords, got, want)
					}
					if gotNext != wantNext {
						t.Fatalf("op %d: ReadShip(%+v, %d) next cursor %+v, the files say %+v", op, cur, maxRecords, gotNext, wantNext)
					}
					if (wake != nil) != (len(got) == 0) {
						t.Fatalf("op %d: %d records came with wake channel %v: a channel comes with an empty read and only then", op, len(got), wake)
					}
					cursors = append(cursors, gotNext)
				}
				if len(l.tail) >= 2*l.tailCap {
					t.Fatalf("op %d: tail holds %d records, bound is below %d", op, len(l.tail), 2*l.tailCap)
				}
			}
			if s := l.Stats(); s.ShipTailReads == 0 || s.ShipFileReads == 0 || s.ShipEmptyReads == 0 {
				t.Fatalf("the sequence never exercised every source: %d tail, %d file, %d empty reads", s.ShipTailReads, s.ShipFileReads, s.ShipEmptyReads)
			}
		})
	}
}

// TestShipTailImmutable: what is shipped is what was logged. The tail takes
// its copy of the args at Enqueue, so a procedure that afterwards shifts a
// slice inside its input in place — as the cart procedures' stored rows can
// be shifted by later line edits — changes neither the tail's record nor, of
// course, the segment's.
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
		t.Fatalf("tail ships %+v, the segment holds %+v", fromTail, fromFile)
	}
	if got, want := string(fromTail[0].Args), `{"N":7,"Lines":[1,2,3]}`; got != want {
		t.Fatalf("shipped args %s, logged %s", got, want)
	}
}

// BenchmarkReadShipCaughtUp isolates what a caught-up shipper pays per batch:
// the active segment already holds N records, each iteration makes one more
// durable and reads it at the caught-up cursor. A read that decodes the
// segment from byte zero costs in proportion to N; one served by the tail
// does not depend on it. read-ns/op is the read alone.
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
				recs, next, _, err := l.ReadShip(cur, 512)
				reading += time.Since(t0)
				if err != nil || len(recs) != 1 || recs[0].LSN != lsn {
					b.Fatalf("caught-up read: %d records, err %v", len(recs), err)
				}
				cur = next
			}
			b.ReportMetric(float64(reading.Nanoseconds())/float64(b.N), "read-ns/op")
		})
	}
}
