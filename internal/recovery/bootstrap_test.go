package recovery_test

import (
	"fmt"
	"testing"

	"pstore/internal/b2w"
	"pstore/internal/recovery"
	"pstore/internal/store"
	"pstore/internal/wal"
)

// bootEngine builds and starts a B2W engine of a deployed node's shape — 4
// machines of 4 partitions, 640 buckets — hosting the listed machines (nil =
// all), with a recovery manager attached.
func bootEngine(t *testing.T, hosted []int, rcfg recovery.Config) (*store.Engine, *recovery.Manager) {
	t.Helper()
	e, err := store.NewEngine(store.Config{
		MaxMachines: 4, InitialMachines: 2, PartitionsPerMachine: 4,
		Buckets: 640, QueueCapacity: 1 << 10, HostedMachines: hosted,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b2w.Register(e); err != nil {
		t.Fatal(err)
	}
	m, err := recovery.New(e, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	e.Start()
	t.Cleanup(e.Stop)
	return e, m
}

var bootSpec = b2w.LoadSpec{Carts: 600, Checkouts: 150, Stocks: 300, LinesPerCart: 3, Seed: 3}

// TestBootstrapMatchesLoggedLoad: Bootstrap's load logs nothing, yet every
// bucket ends with the head and image LSN the logged load plus a checkpoint
// gave it, on a node hosting half the machines, so the commands that follow
// (and a follower synced from the images) number on exactly as before.
func TestBootstrapMatchesLoggedLoad(t *testing.T) {
	hosted := []int{0, 2}
	loggedDir, bootDir := t.TempDir(), t.TempDir()

	logged, lm := bootEngine(t, hosted, recovery.Config{DataDir: loggedDir})
	if err := b2w.Load(logged, bootSpec); err != nil {
		t.Fatal(err)
	}
	if _, err := lm.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	boot, bm := bootEngine(t, hosted, recovery.Config{DataDir: bootDir})
	images, err := bm.Bootstrap(func() error { return b2w.Load(boot, bootSpec) })
	if err != nil {
		t.Fatal(err)
	}
	if n := bm.WALStats().Appends; n != 0 {
		t.Fatalf("Bootstrap appended %d WAL records, want 0", n)
	}
	if images == 0 || boot.TotalRows() != logged.TotalRows() {
		t.Fatalf("Bootstrap: %d images, %d rows; the logged load has %d rows", images, boot.TotalRows(), logged.TotalRows())
	}
	for b := 0; b < 640; b++ {
		if got, want := bm.LogHead(b), lm.LogHead(b); got != want {
			t.Fatalf("bucket %d: head %d after Bootstrap, %d after the logged load", b, got, want)
		}
	}
	lm.Close()
	bm.Close()

	recovered := func(dir string) *wal.Recovered {
		l, rec, err := wal.Open(wal.Config{Dir: dir, Geometry: wal.Geometry{Buckets: 640, MaxMachines: 4, PartitionsPerMachine: 4}})
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		return rec
	}
	want, got := recovered(loggedDir), recovered(bootDir)
	if len(got.Buckets) != len(want.Buckets) {
		t.Fatalf("Bootstrap's directory recovers %d buckets, the logged load's %d", len(got.Buckets), len(want.Buckets))
	}
	for b, w := range want.Buckets {
		g := got.Buckets[b]
		if g == nil || !g.HasImage || g.Base != w.Base || g.Head != w.Head || len(g.Tail) != 0 {
			t.Fatalf("bucket %d recovers as %+v, the logged load's as base %d head %d", b, g, w.Base, w.Head)
		}
	}
}

// TestBootstrapCrashPointSweep kills the filesystem at every write of a
// Bootstrap round. Whatever the kill point, the directory either holds no cold
// state — the load runs again — or cold-starts to the whole dataset; never to
// a prefix of it.
func TestBootstrapCrashPointSweep(t *testing.T) {
	const keys = 1500
	load := func(e *store.Engine) func() error {
		return func() error {
			for i := 0; i < keys; i++ {
				if _, err := e.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
					return err
				}
			}
			return nil
		}
	}

	// A clean run counts the kill points: the load writes nothing, the round
	// one image set and one manifest.
	fs := wal.NewMemFS(1)
	e, m := newRoundEngine(t, fs, 0)
	fs.CrashAfterWrites(0)
	if _, err := m.Bootstrap(load(e)); err != nil {
		t.Fatal(err)
	}
	writes := fs.Writes()
	if writes != 2 {
		t.Fatalf("a Bootstrap round issued %d writes, want 2 (image set, manifest)", writes)
	}

	outcomes := map[string]int{}
	for k := int64(1); k <= writes; k++ {
		fs := wal.NewMemFS(k)
		e, m := newRoundEngine(t, fs, 0)
		fs.CrashAfterWrites(k)
		if _, err := m.Bootstrap(load(e)); err == nil {
			t.Fatalf("kill at write %d: Bootstrap survived its own crash", k)
		}
		e.Stop()
		m.Close()
		fs.Recover()

		e2, m2 := newRoundEngine(t, fs, 0)
		if m2.HasColdState() {
			st, err := m2.ColdStart()
			if err != nil {
				t.Fatalf("kill at write %d: ColdStart: %v", k, err)
			}
			if st.Replayed != 0 {
				t.Fatalf("kill at write %d: cold start replayed %d commands of an unlogged load", k, st.Replayed)
			}
			outcomes["cold start"]++
		} else {
			if _, err := m2.Bootstrap(load(e2)); err != nil {
				t.Fatalf("kill at write %d: reload: %v", k, err)
			}
			outcomes["reload"]++
		}
		if got := e2.TotalRows(); got != keys {
			t.Fatalf("kill at write %d: %d rows after restart, want %d", k, got, keys)
		}
		checkValues(t, e2, keys, func(i int) any { return i })
	}
	if outcomes["cold start"] == 0 || outcomes["reload"] == 0 {
		t.Fatalf("outcomes %v: the sweep should reach both sides of the image set's rename", outcomes)
	}
}
