package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"pstore/internal/wal"
)

// shipFrames returns the frames a log ships for the given records: what a
// shipper puts in a batch. Plan records are numbered by the log, from 1.
func shipFrames(t testing.TB, recs ...wal.Record) [][]byte {
	t.Helper()
	l, _, err := wal.Open(wal.Config{Dir: "data", FS: wal.NewMemFS(1),
		Geometry: wal.Geometry{Buckets: 8, MaxMachines: 2, PartitionsPerMachine: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, r := range recs {
		if r.IsPlan() {
			err = l.LogPlan(r.Plan, r.Active)
		} else {
			err = l.Append(r)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	frames, _, _, err := l.ReadShip(wal.ShipCursor{}, 0)
	if err != nil || len(frames) != len(recs) {
		t.Fatalf("log ships %d frames for %d records, err %v", len(frames), len(recs), err)
	}
	return frames
}

// TestShipBatchRoundTrip checks the ship frame codec: a batch with commands
// and a plan record survives Write → Read with every header field intact, its
// frames byte for byte, and each frame decoded beside it.
func TestShipBatchRoundTrip(t *testing.T) {
	b := &ShipBatch{
		Epoch: 3, Baseline: 1, Seq: 7,
		From: ShipCursor{Seg: 2, Rec: 10, Off: 512},
		Next: ShipCursor{Seg: 3, Rec: 1, Off: 64},
		Frames: shipFrames(t,
			wal.Record{Bucket: 5, LSN: 12, Txn: "put", Key: "k", Args: "v"},
			wal.Record{Bucket: 5, LSN: 13, Txn: "del", Key: "k"},
			wal.Record{PlanSeq: 1, Plan: []int32{0, 0, 1, 1, 0, 0, 1, 1}, Active: 2}),
	}
	var buf bytes.Buffer
	if err := WriteShipBatch(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadShipBatch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 3 || got.Baseline != 1 || got.Seq != 7 || got.From != b.From || got.Next != b.Next {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Frames, b.Frames) {
		t.Fatalf("frames changed in flight:\n got %x\nwant %x", got.Frames, b.Frames)
	}
	if len(got.Records) != 3 {
		t.Fatalf("records: %+v", got.Records)
	}
	if r := got.Records[0]; r.Txn != "put" || r.LSN != 12 || string(r.Args.(json.RawMessage)) != `"v"` {
		t.Fatalf("command record: %+v", r)
	}
	if r := got.Records[1]; r.Txn != "del" || r.Args != nil {
		t.Fatalf("argument-free command record: %+v", r)
	}
	if r := got.Records[2]; !r.IsPlan() || r.PlanSeq != 1 || r.Active != 2 || len(r.Plan) != 8 {
		t.Fatalf("plan record: %+v", r)
	}
}

// TestReadShipBatchRejects pins the validation surface: a whole header with
// non-negative cursors, then nothing but whole, CRC-clean record frames, and
// a bounded number of them.
func TestReadShipBatchRejects(t *testing.T) {
	frames := shipFrames(t, wal.Record{Bucket: 1, LSN: 1, Txn: "put", Key: "k", Args: 7})
	encode := func(b *ShipBatch) []byte {
		var buf bytes.Buffer
		if err := WriteShipBatch(&buf, b); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()[4:] // the frame's payload
	}
	good := encode(&ShipBatch{Frames: frames})
	flipped := append([]byte{}, good...)
	flipped[len(flipped)-1] ^= 0x40
	hugeHeader := append([]byte{}, good...)
	binary.BigEndian.PutUint32(hugeHeader, uint32(len(good)))
	var many [][]byte
	for i := 0; i < wal.MaxShipRecords+1; i++ {
		many = append(many, frames[0])
	}
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"no header length", good[:3], "shorter than"},
		{"header longer than the frame", hugeHeader, "header"},
		{"header not JSON", append([]byte{0, 0, 0, 2, '{', '!'}, frames[0]...), "decoding ship batch"},
		{"negative cursor", encode(&ShipBatch{From: ShipCursor{Seg: -1}}), "from-cursor"},
		{"record fails CRC", flipped, "ship record 0"},
		{"torn record", good[:len(good)-2], "ship record 0"},
		{"garbage after the records", append(append([]byte{}, good...), 0xde, 0xad), "ship record 1"},
		{"too many records", encode(&ShipBatch{Frames: many}), "more than"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, tc.payload); err != nil {
				t.Fatal(err)
			}
			_, err := ReadShipBatch(&buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
	if _, err := DecodeShipBatch(good); err != nil {
		t.Fatalf("the batch the cases were cut from is refused: %v", err)
	}
}

// TestFullShipBatchFitsOneFrame: the most the log hands a shipper at once —
// wal.MaxShipBytes of record frames — goes out as one wire frame.
func TestFullShipBatchFitsOneFrame(t *testing.T) {
	b := &ShipBatch{Epoch: 1 << 60, Baseline: 1 << 60, Seq: 1 << 60,
		From: ShipCursor{Seg: 1 << 30, Rec: 1 << 30, Off: 1 << 60}, Next: ShipCursor{Seg: 1 << 30, Rec: 1 << 30, Off: 1 << 60},
		Frames: [][]byte{make([]byte, wal.MaxShipBytes)}}
	if err := WriteShipBatch(io.Discard, b); err != nil {
		t.Fatal(err)
	}
}

// TestFencedStatus pins the HTTP mapping for the fencing code: 409, with a
// client-side sentinel.
func TestFencedStatus(t *testing.T) {
	if got := StatusOf(CodeFenced); got != 409 {
		t.Fatalf("StatusOf(CodeFenced) = %d, want 409", got)
	}
	if SentinelOf(CodeFenced) != ErrFenced {
		t.Fatal("SentinelOf(CodeFenced) != ErrFenced")
	}
}
