package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"pstore/internal/wal"
)

// FuzzShipFrame feeds arbitrary bytes to the ship-batch decoder — both raw
// (hostile framing) and framed (a mangled batch header, mangled record
// frames behind it). The contract is the same as the batch path:
// ReadShipBatch never panics, and anything it does accept re-encodes and
// decodes to the same batch, frame for frame (what the record decoder let
// through can be re-shipped verbatim).
func FuzzShipFrame(f *testing.F) {
	seed := func(b *ShipBatch) []byte {
		var buf bytes.Buffer
		_ = WriteShipBatch(&buf, b)
		return buf.Bytes()
	}
	frames := shipFrames(f,
		wal.Record{Bucket: 3, LSN: 7, Txn: "put", Key: "k", Args: 42},
		wal.Record{PlanSeq: 1, Plan: []int32{0, 1, 0, 1, 0, 1, 0, 1}, Active: 2},
		wal.Record{Bucket: 4, LSN: 1, Txn: "get", Key: "k"})
	whole := seed(&ShipBatch{Epoch: 1, Seq: 1, From: ShipCursor{Seg: 1, Rec: 2, Off: 3}, Next: ShipCursor{Seg: 1, Rec: 5, Off: 99}, Frames: frames})
	f.Add(whole)
	f.Add(whole[:len(whole)-3])                 // torn last record
	f.Add(seed(&ShipBatch{Frames: frames[1:]})) // starts with a plan record
	f.Add(seed(&ShipBatch{From: ShipCursor{Seg: 1, Rec: 2, Off: 3}, Next: ShipCursor{Seg: 1, Rec: 5, Off: 9}}))
	flipped := append([]byte{}, whole...)
	flipped[len(flipped)-len(frames[2])-len(frames[1])+9] ^= 0x40 // corrupt the plan record's payload
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 4, 0xff, 0xff, 0xff, 0xff}) // absurd header length
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadShipBatch(bytes.NewReader(data))
		if err != nil {
			if b != nil {
				t.Fatal("error with non-nil batch")
			}
			return
		}
		if len(b.Records) != len(b.Frames) {
			t.Fatalf("%d records decoded from %d frames", len(b.Records), len(b.Frames))
		}
		var buf bytes.Buffer
		if err := WriteShipBatch(&buf, b); err != nil {
			t.Fatalf("re-encoding accepted batch: %v", err)
		}
		b2, err := ReadShipBatch(&buf)
		if err != nil {
			t.Fatalf("re-decoding accepted batch: %v", err)
		}
		if b2.Epoch != b.Epoch || b2.Seq != b.Seq || b2.From != b.From || b2.Next != b.Next || !reflect.DeepEqual(b2.Frames, b.Frames) {
			t.Fatalf("round trip drifted: %+v vs %+v", b, b2)
		}
		if _, err := ReadShipBatch(bytes.NewReader(nil)); err != io.EOF {
			t.Fatalf("empty stream: %v, want io.EOF", err)
		}
	})
}
