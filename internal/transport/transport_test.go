package transport_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"pstore/internal/faults"
	"pstore/internal/recovery"
	"pstore/internal/squall"
	"pstore/internal/store"
	"pstore/internal/store/storetest"
	"pstore/internal/transport"
	"pstore/internal/wire"
)

// The kv workload: one table, integer values, the same procedures the squall
// chaos suites use — small enough that every migration mechanism (extract,
// chunk encode/decode, install, forwarding) is exercised without workload
// noise.

func registerKV(eng *store.Engine) error {
	if err := eng.Register("put", func(tx *store.Tx) (any, error) {
		return nil, tx.Put("kv", tx.Key, tx.Args)
	}); err != nil {
		return err
	}
	return registerKVGet(eng)
}

// registerKVGet registers the kv workload's read alone, for tests that bring
// their own put.
func registerKVGet(eng *store.Engine) error {
	return eng.Register("get", func(tx *store.Tx) (any, error) {
		v, ok, err := tx.Get("kv", tx.Key)
		if err != nil || !ok {
			return nil, fmt.Errorf("missing %q: %v", tx.Key, err)
		}
		return v, nil
	})
}

func decodeKVRow(table string, raw json.RawMessage) (any, error) {
	if table != "kv" {
		return nil, fmt.Errorf("unknown table %q", table)
	}
	var v int
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return v, nil
}

func kvStoreConfig(machines, initial int) store.Config {
	return store.Config{
		MaxMachines:          machines,
		PartitionsPerMachine: 2,
		Buckets:              240,
		ServiceTime:          0,
		QueueCapacity:        4096,
		InitialMachines:      initial,
	}
}

// loadAll runs the same deterministic load against every node engine; each
// keeps the keys it hosts and refuses the rest, so the union is exactly one
// copy of the dataset.
func loadAll(t *testing.T, engines []*store.Engine, keys int) {
	t.Helper()
	for _, e := range engines {
		for i := 0; i < keys; i++ {
			if _, err := e.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
				if errors.Is(err, store.ErrNotOwned) {
					continue
				}
				t.Fatalf("loading k-%d: %v", i, err)
			}
		}
	}
}

func newKVLoopback(t *testing.T, nodes, machines, initial int) *transport.Loopback {
	t.Helper()
	lb, err := transport.NewLoopback(transport.LoopbackConfig{
		Nodes: nodes,
		Store: kvStoreConfig(machines, initial),
		Register: func(eng *store.Engine) error {
			if err := registerKV(eng); err != nil {
				return err
			}
			return eng.SetArgsDecoder(storetest.Args[int])
		},
		DecodeRow: decodeKVRow,
		Recovery:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lb.Close() })
	return lb
}

func newLocal(t *testing.T, machines, initial int) *transport.Local {
	t.Helper()
	eng, err := store.NewEngine(kvStoreConfig(machines, initial))
	if err != nil {
		t.Fatal(err)
	}
	if err := registerKV(eng); err != nil {
		t.Fatal(err)
	}
	rm := recovery.NewManager(eng)
	eng.Start()
	t.Cleanup(eng.Stop)
	return transport.NewLocal(eng, rm)
}

func chaosExecutorConfig() squall.Config {
	return squall.Config{
		ChunkRows:       30,
		RowCost:         time.Microsecond,
		ChunkOverhead:   20 * time.Microsecond,
		Spacing:         50 * time.Microsecond,
		RateFactor:      1,
		MaxChunkRetries: 3,
		RetryBackoff:    50 * time.Microsecond,
		MaxRetryBackoff: time.Millisecond,
	}
}

// runChaosScript drives the acceptance scenario against any topology: a
// faulty 1->4 scale-out, then — with crash set — a crash of machine 1 (hosted
// by the second node in two-node mode), a 4->1 scale-in attempt that must
// abort on the down machine and a restore, and last the 4->1 scale-in that
// must succeed. The returned fingerprint captures every outcome the two
// modes must agree on: per-step results, retry/abort counters, the final
// plan, and row conservation.
func runChaosScript(t *testing.T, topo transport.Topology, seed int64, drop float64, crash bool, keys int) string {
	t.Helper()
	inj, err := faults.New(faults.Config{Seed: seed, ChunkDrop: drop})
	if err != nil {
		t.Fatal(err)
	}
	topo.SetFaultInjector(inj)
	ex, err := squall.NewExecutor(topo, chaosExecutorConfig())
	if err != nil {
		t.Fatal(err)
	}

	fp := ""
	step := func(name string, fn func() error) {
		err := fn()
		var me *squall.MoveError
		switch {
		case err == nil:
			fp += name + ": ok\n"
		case errors.As(err, &me):
			if !me.RolledBack {
				t.Fatalf("%s: abort did not roll back: %v", name, me)
			}
			fp += fmt.Sprintf("%s: abort (%s)\n", name, wire.CodeOf(err))
		default:
			// A refusal before any chunk moved (e.g. the scale-in would
			// drain a down machine) — same class, same code, both modes.
			fp += fmt.Sprintf("%s: refused (%s)\n", name, wire.CodeOf(err))
		}
		if got := topo.TotalRows(); got != keys {
			t.Fatalf("%s: TotalRows = %d, want %d", name, got, keys)
		}
	}

	step("scale-out 1->4", func() error { return ex.Reconfigure(1, 4, 0) })

	if crash {
		if err := topo.Crash(1); err != nil {
			t.Fatalf("crash machine 1: %v", err)
		}
		if got := topo.DownMachines(); len(got) != 1 || got[0] != 1 {
			t.Fatalf("DownMachines = %v after crash, want [1]", got)
		}
		// Scaling in with machine 1 dead must abort on ErrPartitionDown
		// fencing and roll the plan back — identically in both modes.
		before := fmt.Sprint(topo.Plan())
		step("scale-in 4->1 (machine 1 down)", func() error { return ex.Reconfigure(4, 1, 0) })
		if got := fmt.Sprint(topo.Plan()); got != before {
			t.Fatal("aborted scale-in did not restore the pre-move plan")
		}

		st, err := topo.Restore(1)
		if err != nil {
			t.Fatalf("restore machine 1: %v", err)
		}
		if st.Machine != 1 || st.Partitions == 0 {
			t.Fatalf("restore stats = %+v, want machine 1 with partitions rebuilt", st)
		}
		if got := topo.DownMachines(); len(got) != 0 {
			t.Fatalf("DownMachines = %v after restore, want none", got)
		}
	}

	last := "scale-in 4->1"
	if crash {
		last += " (restored)"
	}
	step(last, func() error { return ex.Reconfigure(4, 1, 0) })

	stats := ex.Stats()
	fp += fmt.Sprintf("retries %d aborts %d rollback-chunks %d\n", stats.Retries, stats.Aborts, stats.RollbackChunks)
	fp += fmt.Sprintf("final plan %s\nrows %d\n", fmt.Sprint(topo.Plan()), topo.TotalRows())
	return fp
}

// TestLocalRemoteParity is the refactor's acceptance gate: the fixed-seed
// chaos scenario — scale-out under chunk drops, a machine crash, the fenced
// abort, restore, scale-in — produces the identical fingerprint whether the
// cluster is one process (the reference oracle) or two node processes behind
// the wire. The second input is a plain 1->4->1 round trip at a drop rate low
// enough that every chunk gets through on a retry: the faulted networked
// migration must land on the in-process plan with the same retry count.
func TestLocalRemoteParity(t *testing.T) {
	const seed, keys = 42, 500
	for _, in := range []struct {
		name  string
		drop  float64
		crash bool
	}{
		{"chunk-drop=0.5 with crash", 0.5, true},
		{"chunk-drop=0.05 round trip", 0.05, false},
	} {
		t.Run(in.name, func(t *testing.T) {
			local := newLocal(t, 4, 1)
			loadAll(t, []*store.Engine{local.Engine}, keys)
			if _, err := local.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			want := runChaosScript(t, local, seed, in.drop, in.crash, keys)

			lb := newKVLoopback(t, 2, 4, 1)
			loadAll(t, lb.Engines(), keys)
			if err := lb.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			got := runChaosScript(t, lb.Remote(), seed, in.drop, in.crash, keys)

			if got != want {
				t.Fatalf("multi-process run diverged from single-process oracle:\n--- local ---\n%s--- remote ---\n%s", want, got)
			}
			if n := lb.Remote().FlipErrors(); n != 0 {
				t.Fatalf("flip broadcast errors: %d", n)
			}
		})
	}
}

// TestRemoteMirrors checks the coordinator bootstrap: geometry, plan and row
// counts come from the nodes themselves and match the oracle's view.
func TestRemoteMirrors(t *testing.T) {
	const keys = 200
	lb := newKVLoopback(t, 2, 4, 1)
	loadAll(t, lb.Engines(), keys)
	r := lb.Remote()

	if cfg := r.Config(); cfg.MaxMachines != 4 || cfg.PartitionsPerMachine != 2 || cfg.Buckets != 240 {
		t.Fatalf("remote config = %+v", cfg)
	}
	if got := r.ActiveMachines(); got != 1 {
		t.Fatalf("ActiveMachines = %d, want 1", got)
	}
	if got := r.TotalRows(); got != keys {
		t.Fatalf("TotalRows = %d, want %d", got, keys)
	}
	if got, want := fmt.Sprint(r.Plan()), fmt.Sprint(lb.Engines()[0].Plan()); got != want {
		t.Fatalf("plan mirror %s != node plan %s", got, want)
	}
	for b := 0; b < 240; b += 17 {
		if got, want := r.OwnerOf(b), lb.Engines()[0].OwnerOf(b); got != want {
			t.Fatalf("OwnerOf(%d) = %d, want %d", b, got, want)
		}
	}
}

// TestForwarding posts transactions for every key to a single node's front
// end; keys hosted by the other node must be transparently forwarded and
// answered with the right value.
func TestForwarding(t *testing.T) {
	const keys = 60
	lb := newKVLoopback(t, 2, 2, 2)
	loadAll(t, lb.Engines(), keys)

	for i := 0; i < keys; i++ {
		req := wire.Request{Txn: "get", Key: fmt.Sprintf("k-%d", i)}
		body, _ := json.Marshal(req)
		resp, err := http.Post(lb.Addrs()[0]+wire.PathTxn, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out wire.Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("k-%d: status %d code %s: %s", i, resp.StatusCode, out.Code, out.Error)
		}
		var v int
		if err := json.Unmarshal(out.Value, &v); err != nil || v != i {
			t.Fatalf("k-%d = %s (%v), want %d", i, out.Value, err, i)
		}
	}
	fwd := int64(0)
	for _, s := range lb.Servers() {
		fwd += s.Counters().Forwarded
	}
	if fwd == 0 {
		t.Fatal("no requests were forwarded; every key resolved locally")
	}
}

// TestRemotePartitionDownOverWire crashes a machine hosted by the second
// node and checks the fencing a client sees: the transaction forwarded to
// the dead machine comes back 503/partition_down, and after restore it
// succeeds again.
func TestRemotePartitionDownOverWire(t *testing.T) {
	const keys = 60
	lb := newKVLoopback(t, 2, 2, 2)
	loadAll(t, lb.Engines(), keys)
	r := lb.Remote()

	// Find a key hosted by machine 1 (node 1).
	eng := lb.Engines()[0]
	key := ""
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k-%d", i)
		if eng.MachineOfPartition(eng.PartitionOfKey(k)) == 1 {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key maps to machine 1")
	}

	if err := r.Crash(1); err != nil {
		t.Fatal(err)
	}
	req := wire.Request{Txn: "get", Key: key}
	body, _ := json.Marshal(req)
	resp, err := http.Post(lb.Addrs()[0]+wire.PathTxn, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out wire.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || out.Code != wire.CodePartitionDown {
		t.Fatalf("crashed-machine get: status %d code %s, want 503 %s", resp.StatusCode, out.Code, wire.CodePartitionDown)
	}

	if _, err := r.Restore(1); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(lb.Addrs()[0]+wire.PathTxn, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out = wire.Response{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("post-restore get: status %d code %s: %s", resp.StatusCode, out.Code, out.Error)
	}
}

// TestDuplicateInstallIdempotent drives the store install path directly with
// a duplicated and replayed chunk: re-delivering the same chunk must add no
// rows, and TotalRows is conserved through arbitrary replays.
func TestDuplicateInstallIdempotent(t *testing.T) {
	const keys = 200
	lb := newKVLoopback(t, 2, 2, 2)
	loadAll(t, lb.Engines(), keys)
	r := lb.Remote()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Pick a source partition on node 0 (machine 0) and a destination on
	// node 1 (machine 1), and move a few of its buckets by hand.
	const from, to = 0, 2 // partitions: machine 0 part 0, machine 1 part 0
	buckets := lb.Engines()[0].OwnedBuckets(from)
	if len(buckets) < 3 {
		t.Fatalf("partition %d owns %d buckets", from, len(buckets))
	}
	buckets = buckets[:3]

	req := wire.NodeMove{Buckets: buckets, From: from, To: to}
	meta, frames, err := lb.Peers()[0].Extract(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	first, err := lb.Peers()[1].Install(ctx, req, meta, frames)
	if err != nil {
		t.Fatal(err)
	}
	if first != meta.Rows {
		t.Fatalf("first install added %d rows, chunk carries %d", first, meta.Rows)
	}
	// Replay the identical chunk twice more — duplicated delivery.
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := lb.Peers()[1].Install(ctx, req, meta, frames); err != nil {
			t.Fatalf("duplicate install %d: %v", attempt, err)
		}
	}
	if got := r.TotalRows(); got != keys {
		t.Fatalf("TotalRows = %d after duplicate installs, want %d", got, keys)
	}
	if got := lb.Engines()[1].OwnerOf(buckets[0]); got != to {
		t.Fatalf("bucket %d owned by %d on node 1, want %d", buckets[0], got, to)
	}
}

// TestNetFaultsConserveRows runs reconfigurations under an aggressive
// link-fault plane — every chunk duplicated, many reordered, some slowed —
// and checks the invariants the chaos plane exists to prove: row
// conservation and full readability afterwards.
func TestNetFaultsConserveRows(t *testing.T) {
	const keys = 300
	lb := newKVLoopback(t, 2, 4, 1)
	loadAll(t, lb.Engines(), keys)
	r := lb.Remote()

	net, err := faults.NewNet(faults.NetConfig{
		Seed:        7,
		LinkDup:     1,
		LinkReorder: 0.5,
		LinkSlow:    0.1,
		LinkDelay:   100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.SetNetInjector(net)

	ex, err := squall.NewExecutor(r, chaosExecutorConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []int{4, 1} {
		from := r.ActiveMachines()
		if err := ex.Reconfigure(from, target, 0); err != nil {
			t.Fatalf("%d->%d: %v", from, target, err)
		}
		if got := r.TotalRows(); got != keys {
			t.Fatalf("%d->%d: TotalRows = %d, want %d", from, target, got, keys)
		}
	}
	if st := net.Stats(); st.Dups == 0 {
		t.Fatalf("net injector saw no duplicates: %+v", st)
	}

	// Every key still readable through the front end (with forwarding).
	for i := 0; i < keys; i += 7 {
		req := wire.Request{Txn: "get", Key: fmt.Sprintf("k-%d", i)}
		body, _ := json.Marshal(req)
		resp, err := http.Post(lb.Addrs()[1]+wire.PathTxn, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out wire.Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("k-%d after net chaos: status %d code %s: %s", i, resp.StatusCode, out.Code, out.Error)
		}
	}
}
