package wire

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pstore/internal/store"
	"pstore/internal/wal"
)

type testRow struct {
	Name string
	N    int
}

var _ wal.Row = (*testRow)(nil)

func init() { wal.RegisterRow("wire.testRow", func() wal.Row { return new(testRow) }) }

func (r *testRow) AppendBinary(b []byte) ([]byte, error) {
	return wal.AppendInt(wal.AppendString(b, r.Name), int64(r.N)), nil
}

func (r *testRow) UnmarshalBinary(data []byte) error {
	rd := wal.NewRowReader(data)
	r.Name, r.N = rd.Str(), int(rd.Int64())
	return rd.Close()
}

// TestChunkRoundTrip pushes an extracted bundle through the chunk codec —
// encode, decode — and checks the rebuilt bundle carries the same rows with
// their concrete types restored, a bucket that held nothing staying absent.
func TestChunkRoundTrip(t *testing.T) {
	d := store.NewBucketData()
	buckets := []int{21, 0, 7, 14, 30}
	for _, b := range buckets[:4] {
		tables := map[string]map[string]any{"T": {}}
		for i := 0; i < 4; i++ {
			key := fmt.Sprintf("k%d-%d", b, i)
			tables["T"][key] = &testRow{Name: key, N: i}
		}
		if b == 21 {
			tables["U"] = map[string]any{"only": &testRow{Name: "only", N: 99}}
		}
		d.AddBucket(b, tables)
	}

	chunk, err := EncodeChunk(buckets, d)
	if err != nil {
		t.Fatalf("EncodeChunk: %v", err)
	}
	rebuilt, err := DecodeChunk(buckets, chunk)
	if err != nil {
		t.Fatalf("DecodeChunk: %v", err)
	}
	if rebuilt.Rows() != d.Rows() {
		t.Fatalf("rebuilt rows %d, want %d", rebuilt.Rows(), d.Rows())
	}
	for _, b := range buckets {
		if got, want := rebuilt.BucketRows(b), d.BucketRows(b); got != want {
			t.Fatalf("rebuilt bucket %d holds %d rows, want %d", b, got, want)
		}
		for table, rows := range rebuilt.Tables(b) {
			for key, row := range rows {
				r, ok := row.(*testRow)
				if !ok || r.Name != key || !reflect.DeepEqual(row, d.Tables(b)[table][key]) {
					t.Fatalf("row %s/%s decoded as %T %v", table, key, row, row)
				}
			}
		}
	}
	if _, err := DecodeChunk([]int{21, 0, 14, 7, 30}, chunk); err == nil {
		t.Fatal("a chunk was accepted for a move naming its buckets in another order")
	}
}

// TestChunkStreamTruncation: a chunk cut anywhere — inside a frame or between
// two — must surface as an error, never as silently partial data.
func TestChunkStreamTruncation(t *testing.T) {
	d := store.NewBucketData()
	d.AddBucket(1, map[string]map[string]any{"T": {"a": &testRow{Name: "a"}}})
	d.AddBucket(2, map[string]map[string]any{"T": {"b": &testRow{Name: "b"}}})
	full, err := EncodeChunk([]int{1, 2}, d)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(full); n++ {
		if _, err := DecodeChunk([]int{1, 2}, full[:n]); err == nil {
			t.Fatalf("cut at %d/%d decoded", n, len(full))
		}
	}
	if _, err := DecodeChunk([]int{1, 2}, full); err != nil {
		t.Fatalf("full chunk: %v", err)
	}
}

// TestSnapshotFrameRoundTrip covers the snapshot leg: a bucket snapshot sent
// as a frame of a sync stream's image set keeps its LSN and row count, and its
// rows come back typed.
func TestSnapshotFrameRoundTrip(t *testing.T) {
	s := store.BucketSnapshot{
		Bucket: 9,
		Rows:   2,
		LSN:    42,
		Tables: map[string]map[string]any{
			"T": {"a": &testRow{Name: "a", N: 1}, "b": &testRow{Name: "b", N: 2}},
		},
	}
	img := wal.Image(s)
	set, err := wal.EncodeImageSet(nil, []*wal.Image{&img})
	if err != nil {
		t.Fatalf("EncodeImageSet: %v", err)
	}
	imgs, err := wal.DecodeImages(set)
	if err != nil {
		t.Fatalf("DecodeImages: %v", err)
	}
	if len(imgs) != 1 {
		t.Fatalf("decoded %d frames, want 1", len(imgs))
	}
	got := store.BucketSnapshot(*imgs[0])
	if got.Bucket != s.Bucket || got.Rows != s.Rows || got.LSN != s.LSN {
		t.Fatalf("snapshot header round trip: got %+v", got)
	}
	r, ok := got.Tables["T"]["a"].(*testRow)
	if !ok || r.N != 1 {
		t.Fatalf("snapshot row decoded as %T %v", got.Tables["T"]["a"], got.Tables["T"]["a"])
	}
	if !reflect.DeepEqual(got.Tables, s.Tables) {
		t.Fatalf("snapshot tables round trip: got %v, want %v", got.Tables, s.Tables)
	}
}

// TestNotOwnedCodeMapping pins the new code's wire identity: engine error →
// code → HTTP status → sentinel must compose back to store.ErrNotOwned.
func TestNotOwnedCodeMapping(t *testing.T) {
	err := fmt.Errorf("wrapped: %w", store.ErrNotOwned)
	code := CodeOf(err)
	if code != CodeNotOwned {
		t.Fatalf("CodeOf: got %q, want %q", code, CodeNotOwned)
	}
	if got := StatusOf(code); got != 503 {
		t.Fatalf("StatusOf: got %d, want 503", got)
	}
	if !errors.Is(SentinelOf(code), store.ErrNotOwned) {
		t.Fatalf("SentinelOf(%q) = %v", code, SentinelOf(code))
	}
}
