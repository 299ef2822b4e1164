package store

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// flakyInjector is a minimal in-package FaultInjector (the real injector
// lives in internal/faults, which imports store and so cannot be used from
// these tests). It fails forward moves with probability p and always lets
// rollbacks through, matching the fault-plane contract.
type flakyInjector struct {
	rng      *rand.Rand
	p        float64
	injected int
}

var errFlaky = errors.New("store_test: injected move failure")

func (f *flakyInjector) BeforeMove(op MoveOp) error {
	if op.Rollback {
		return nil
	}
	if f.rng.Float64() < f.p {
		f.injected++
		return errFlaky
	}
	return nil
}

// TestEngineFaultedMovesConserveRows is the fault-plane property test: a
// randomized move sequence where a random subset of moves fails at the send
// boundary must conserve every row — a failed MoveBuckets is all-or-nothing,
// leaving ownership, TotalRows, and the per-partition counters untouched.
func TestEngineFaultedMovesConserveRows(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		cfg := smallConfig()
		e := testEngine(t, cfg)
		registerKV(t, e)
		e.Start()
		inj := &flakyInjector{rng: rand.New(rand.NewSource(seed)), p: 0.4}
		e.SetFaultInjector(inj)

		const keys = 120
		for i := 0; i < keys; i++ {
			if _, err := e.Execute("put", fmt.Sprintf("chaos-%d", i), i); err != nil {
				t.Fatal(err)
			}
		}

		parts := cfg.MaxMachines * cfg.PartitionsPerMachine
		rng := rand.New(rand.NewSource(seed + 1000))
		failures := 0
		for move := 0; move < 60; move++ {
			from := rng.Intn(parts)
			owned := e.OwnedBuckets(from)
			if len(owned) == 0 {
				continue
			}
			to := rng.Intn(parts)
			n := 1 + rng.Intn(len(owned))
			rng.Shuffle(len(owned), func(i, j int) { owned[i], owned[j] = owned[j], owned[i] })
			chunk := owned[:n]
			before := fmt.Sprint(e.Plan())
			if _, err := e.MoveBuckets(chunk, from, to, 0, 0); err != nil {
				if !errors.Is(err, errFlaky) {
					t.Fatalf("seed %d move %d: unexpected error %v", seed, move, err)
				}
				failures++
				if got := fmt.Sprint(e.Plan()); got != before {
					t.Fatalf("seed %d move %d: failed move changed the bucket plan", seed, move)
				}
			}
			if got := e.TotalRows(); got != keys {
				t.Fatalf("seed %d move %d: TotalRows = %d, want %d", seed, move, got, keys)
			}
		}
		if inj.injected == 0 {
			t.Fatalf("seed %d: no faults injected at p=0.4 over 60 moves", seed)
		}
		if failures != inj.injected {
			t.Fatalf("seed %d: %d failed moves but %d injections", seed, failures, inj.injected)
		}
		// Rollback moves stay exempt even at p=1.
		inj.p = 1
		from := -1
		for p := 0; p < parts; p++ {
			if len(e.OwnedBuckets(p)) > 0 {
				from = p
				break
			}
		}
		owned := e.OwnedBuckets(from)
		if _, err := e.MoveBuckets(owned[:1], from, (from+1)%parts, 0, 0); !errors.Is(err, errFlaky) {
			t.Fatalf("seed %d: forward move at p=1 not injected: %v", seed, err)
		}
		if _, err := e.MoveBucketsRollback(owned[:1], from, (from+1)%parts, 0, 0); err != nil {
			t.Fatalf("seed %d: rollback move injected despite exemption: %v", seed, err)
		}
		for i := 0; i < keys; i++ {
			v, err := e.Execute("get", fmt.Sprintf("chaos-%d", i), nil)
			if err != nil || v != i {
				t.Fatalf("seed %d: chaos-%d = %v, %v after faulted moves", seed, i, v, err)
			}
		}
	}
}

// checkStoreCounts verifies a bucketStore's incremental per-bucket row
// counters against its actual contents.
func checkStoreCounts(t *testing.T, name string, s *bucketStore) {
	t.Helper()
	for b, tables := range s.data {
		n := 0
		for _, tbl := range tables {
			n += len(tbl)
		}
		if got := s.rows[b]; got != n {
			t.Fatalf("%s: bucket %d counter %d, actual rows %d", name, b, got, n)
		}
	}
	for b, n := range s.rows {
		if n < 0 {
			t.Fatalf("%s: bucket %d counter negative: %d", name, b, n)
		}
		if _, ok := s.data[b]; !ok && n != 0 {
			t.Fatalf("%s: bucket %d has counter %d but no data", name, b, n)
		}
	}
}

// FuzzBucketDataRoundTrip fuzzes the migration data plane's extract/install
// cycle, including the two paths an aborted move exercises: installing a
// bundle back where it came from (rollback) and re-installing a bundle that
// already landed (retry after a lost ack). Rows must be conserved across
// every interleaving and the incremental counters must never drift.
func FuzzBucketDataRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(10), false, false)
	f.Add(int64(2), uint8(0), true, false)
	f.Add(int64(3), uint8(255), false, true)
	f.Add(int64(4), uint8(17), true, true)
	f.Fuzz(func(t *testing.T, seed int64, cut uint8, abort bool, reinstall bool) {
		rng := rand.New(rand.NewSource(seed))
		const buckets = 24
		src, want := randomStore(rng, buckets)
		wantRows := src.totalRows()
		checkStoreCounts(t, "src", src)

		perm := rng.Perm(buckets)
		n := int(cut) % (buckets + 1)
		moved := perm[:n]

		data := src.extract(moved)
		carried := data.Rows()
		dst := newBucketStore()
		if added := dst.install(data); added != carried {
			t.Fatalf("install added %d rows, bundle carried %d", added, carried)
		}
		if src.totalRows()+dst.totalRows() != wantRows {
			t.Fatalf("rows not conserved mid-move: %d + %d != %d", src.totalRows(), dst.totalRows(), wantRows)
		}
		checkStoreCounts(t, "src after extract", src)
		checkStoreCounts(t, "dst after install", dst)

		if reinstall {
			// Retry after a lost ack: the same bundle arrives twice. The
			// second install must be a no-op row-wise.
			if added := dst.install(data); added != 0 {
				t.Fatalf("re-install of an already-landed bundle added %d rows", added)
			}
			checkStoreCounts(t, "dst after re-install", dst)
		}

		if abort {
			// Rollback: pull the moved buckets back out of the destination
			// and restore them to the source.
			back := dst.extract(moved)
			if back.Rows() != carried {
				t.Fatalf("rollback bundle carries %d rows, moved %d", back.Rows(), carried)
			}
			if added := src.install(back); added != carried {
				t.Fatalf("rollback restored %d rows, want %d", added, carried)
			}
			if dst.totalRows() != 0 {
				t.Fatalf("destination keeps %d rows after rollback", dst.totalRows())
			}
			final := src
			if final.totalRows() != wantRows {
				t.Fatalf("source has %d rows after rollback, want %d", final.totalRows(), wantRows)
			}
			checkStoreCounts(t, "src after rollback", src)
			assertContents(t, final, want)
			return
		}

		// Complete the move: ship the remaining buckets too and compare the
		// destination against the original population.
		rest := src.extract(perm[n:])
		dst.install(rest)
		if src.totalRows() != 0 {
			t.Fatalf("source keeps %d rows after full move", src.totalRows())
		}
		if dst.totalRows() != wantRows {
			t.Fatalf("destination has %d rows, want %d", dst.totalRows(), wantRows)
		}
		checkStoreCounts(t, "dst final", dst)
		assertContents(t, dst, want)
	})
}

// assertContents deep-compares a bucketStore against an expected population.
func assertContents(t *testing.T, s *bucketStore, want map[int]map[string]map[string]any) {
	t.Helper()
	got := map[int]map[string]map[string]any{}
	for b, tables := range s.data {
		if len(tables) == 0 {
			continue
		}
		got[b] = map[string]map[string]any{}
		for tn, tbl := range tables {
			got[b][tn] = map[string]any{}
			for k, v := range tbl {
				got[b][tn][k] = v
			}
		}
	}
	// Normalize empty tables out of want for comparison.
	norm := map[int]map[string]map[string]any{}
	for b, tables := range want {
		for tn, tbl := range tables {
			if len(tbl) == 0 {
				continue
			}
			if norm[b] == nil {
				norm[b] = map[string]map[string]any{}
			}
			norm[b][tn] = tbl
		}
	}
	if !reflect.DeepEqual(got, norm) {
		t.Fatal("store contents differ from expected population")
	}
}
