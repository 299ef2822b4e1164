package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomStore fills a bucketStore with a random population and returns a
// deep copy of the expected contents for later comparison.
func randomStore(rng *rand.Rand, buckets int) (*bucketStore, map[int]map[string]map[string]any) {
	s := newBucketStore()
	want := make(map[int]map[string]map[string]any)
	tables := []string{"carts", "checkouts", "stock"}
	for b := 0; b < buckets; b++ {
		if rng.Intn(4) == 0 {
			continue // leave some buckets empty
		}
		for _, tbl := range tables {
			n := rng.Intn(6)
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("%s-%d-%d", tbl, b, i)
				val := rng.Intn(1000)
				s.put(b, tbl, key, val)
				if want[b] == nil {
					want[b] = make(map[string]map[string]any)
				}
				if want[b][tbl] == nil {
					want[b][tbl] = make(map[string]any)
				}
				want[b][tbl][key] = val
			}
		}
	}
	return s, want
}

// TestBucketStoreExtractInstallRoundTrip is the migration data-plane
// property: extracting buckets from one store and installing them into
// another must reproduce the data exactly, and the incrementally maintained
// row counts must agree with the actual contents at every step.
func TestBucketStoreExtractInstallRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const buckets = 32
		src, want := randomStore(rng, buckets)
		wantRows := src.totalRows()

		// Extract a random subset, then the rest, in shuffled order.
		all := rng.Perm(buckets)
		cut := rng.Intn(buckets + 1)
		first, second := all[:cut], all[cut:]

		dst := newBucketStore()
		for _, chunk := range [][]int{first, second} {
			data := src.extract(chunk)
			// The bundle's own accounting must match its contents.
			carried := 0
			for _, b := range data.Buckets() {
				n := 0
				for _, tbl := range data.data[b] {
					n += len(tbl)
				}
				if got := data.BucketRows(b); got != n {
					t.Fatalf("seed %d: BucketRows(%d) = %d, want %d", seed, b, got, n)
				}
				carried += n
			}
			if data.Rows() != carried {
				t.Fatalf("seed %d: bundle Rows() = %d, want %d", seed, data.Rows(), carried)
			}
			if added := dst.install(data); added != carried {
				t.Fatalf("seed %d: install added %d rows, want %d", seed, added, carried)
			}
		}

		if src.totalRows() != 0 {
			t.Fatalf("seed %d: source still has %d rows after full extraction", seed, src.totalRows())
		}
		if dst.totalRows() != wantRows {
			t.Fatalf("seed %d: destination has %d rows, want %d", seed, dst.totalRows(), wantRows)
		}
		got := map[int]map[string]map[string]any{}
		for b, tables := range dst.data {
			got[b] = map[string]map[string]any{}
			for tn, tbl := range tables {
				got[b][tn] = map[string]any{}
				for k, v := range tbl {
					got[b][tn][k] = v
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: round-tripped data differs from original", seed)
		}
	}
}

// Buckets lists the bucket ids carried by the bundle, sorted ascending.
func (d BucketData) Buckets() []int {
	out := make([]int, 0, len(d.data))
	for b := range d.data {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// install sets every bucket the bundle carries to its rows, as a partition's
// install does, and returns the change in row count.
func (s *bucketStore) install(d BucketData) int {
	added := 0
	for b, tables := range d.data {
		added += s.set(b, tables)
	}
	return added
}

// TestBucketStoreInstallReplaces: installing a bucket makes the bundle's rows
// its whole contents — a row the store held and the bundle does not carry is
// gone, one both hold takes the bundle's value — and the row counts follow;
// installing nothing into a bucket leaves it materialized and empty.
func TestBucketStoreInstallReplaces(t *testing.T) {
	a := newBucketStore()
	a.put(1, "t", "shared", "old")
	a.put(1, "t", "mine", 1)
	a.put(3, "t", "gone", 1)

	b := newBucketStore()
	b.put(1, "t", "shared", "new")
	b.put(1, "t", "yours", 2)
	b.put(2, "u", "other", 3)

	if added := a.install(b.extract([]int{1, 2})); added != 1 { // "other"; bucket 1 keeps two rows
		t.Errorf("install added %d rows, want 1", added)
	}
	if v, ok := a.get(1, "t", "shared"); !ok || v != "new" {
		t.Errorf("shared row = %v, %v; want the bundle's", v, ok)
	}
	if _, ok := a.get(1, "t", "mine"); ok {
		t.Error("a row the bundle did not carry survived its bucket's install")
	}
	if added := a.set(3, nil); added != -1 {
		t.Errorf("emptying bucket 3 changed the row count by %d, want -1", added)
	}
	if _, ok := a.data[3]; !ok || a.totalRows() != 3 || a.bucketRows(1) != 2 || a.bucketRows(2) != 1 || a.bucketRows(3) != 0 {
		t.Errorf("after the installs: %d rows, buckets %d/%d/%d, bucket 3 materialized %v; want 3, 2/1/0, true",
			a.totalRows(), a.bucketRows(1), a.bucketRows(2), a.bucketRows(3), ok)
	}
}

// TestEngineRandomizedMovesPreserveRows drives the full engine through a
// randomized move sequence and asserts the typed row accounting never
// drifts: TotalRows and the per-partition counters always match the data.
func TestEngineRandomizedMovesPreserveRows(t *testing.T) {
	cfg := smallConfig()
	e := testEngine(t, cfg)
	registerKV(t, e)
	e.Start()
	const keys = 150
	for i := 0; i < keys; i++ {
		if _, err := e.Execute("put", fmt.Sprintf("prop-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	parts := cfg.MaxMachines * cfg.PartitionsPerMachine
	rng := rand.New(rand.NewSource(99))
	for move := 0; move < 40; move++ {
		from := rng.Intn(parts)
		owned := e.OwnedBuckets(from)
		if len(owned) == 0 {
			continue
		}
		to := rng.Intn(parts)
		n := 1 + rng.Intn(len(owned))
		rng.Shuffle(len(owned), func(i, j int) { owned[i], owned[j] = owned[j], owned[i] })
		if _, err := e.MoveBuckets(owned[:n], from, to, 0, 0); err != nil {
			t.Fatalf("move %d: %v", move, err)
		}
		if got := e.TotalRows(); got != keys {
			t.Fatalf("move %d: TotalRows = %d, want %d", move, got, keys)
		}
	}
	for i := 0; i < keys; i++ {
		v, err := e.Execute("get", fmt.Sprintf("prop-%d", i), nil)
		if err != nil || v != i {
			t.Fatalf("prop-%d = %v, %v after moves", i, v, err)
		}
	}
}
