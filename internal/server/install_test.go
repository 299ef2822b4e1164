package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"pstore/internal/recovery"
	"pstore/internal/store"
	"pstore/internal/store/storetest"
	"pstore/internal/wal"
	"pstore/internal/wire"
)

// installNode is one durable node of a 2-node layout (machine i on node i,
// two partitions each, every bucket on machine 0 to begin with) over its own
// MemFS, reachable through its server's handlers.
type installNode struct {
	eng *store.Engine
	rm  *recovery.Manager
	fs  *wal.MemFS
	srv *Server
}

func newInstallNode(t *testing.T, id int) *installNode {
	t.Helper()
	eng, err := store.NewEngine(store.Config{
		MaxMachines: 2, PartitionsPerMachine: 2, Buckets: 64,
		QueueCapacity: 1 << 10, InitialMachines: 1, HostedMachines: []int{id},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register("put", func(tx *store.Tx) (any, error) {
		return nil, tx.Put("kv", tx.Key, tx.Args)
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Register("get", func(tx *store.Tx) (any, error) {
		v, _, err := tx.Get("kv", tx.Key)
		return v, err
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetArgsDecoder(storetest.Args[int]); err != nil {
		t.Fatal(err)
	}
	fs := wal.NewMemFS(int64(id) + 1)
	rm, err := recovery.New(eng, recovery.Config{DataDir: "data", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rm.Close() })
	eng.Start()
	t.Cleanup(eng.Stop)
	srv, err := New(Config{Engine: eng, Node: &NodeConfig{
		ID: id, Nodes: 2, Recovery: rm,
		DecodeRow: func(_ string, raw json.RawMessage) (any, error) {
			var v int
			return v, json.Unmarshal(raw, &v)
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return &installNode{eng: eng, rm: rm, fs: fs, srv: srv}
}

// sendChunk extracts buckets from src's partition from and posts them to
// dst's /v1/node/install for partition to, as Remote.moveBuckets would.
func sendChunk(t *testing.T, src, dst *installNode, buckets []int, from, to int) *httptest.ResponseRecorder {
	t.Helper()
	data, err := src.eng.ExtractBuckets(buckets, from, to, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	meta, frames, err := wire.ChunkFromBucketData(data)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := wire.EncodeFrame(&body, wire.NodeMove{Buckets: buckets, From: from, To: to}); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteChunkStream(&body, meta, frames); err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	dst.srv.handleNodeInstall(w, httptest.NewRequest(http.MethodPost, wire.PathNodeInstall, &body))
	return w
}

// imageSets lists a node's image sets, oldest first, each decoded to its
// frames' buckets.
func imageSets(t *testing.T, fs *wal.MemFS) (names []string, buckets [][]int) {
	t.Helper()
	all, err := fs.ReadDir("data/img")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range all {
		if strings.HasSuffix(n, ".tmp") {
			continue
		}
		f, err := fs.Open("data/img/" + n)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		frames, _, err := wal.DecodeImageSet(data)
		if err != nil {
			t.Fatalf("image set %s: %v", n, err)
		}
		var bs []int
		for _, fr := range frames {
			bs = append(bs, fr.Bucket)
		}
		sort.Ints(bs)
		names, buckets = append(names, n), append(buckets, bs)
	}
	return names, buckets
}

// TestInstallImagesOnlyTheChunk: a cross-node install re-baselines exactly the
// buckets it carried — one image set of len(req.Buckets) frames, whatever the
// destination partition already held — and a crash of the destination machine
// right after it restores every row and value, the chunk's and the earlier
// residents', including writes made on top of the installed image.
func TestInstallImagesOnlyTheChunk(t *testing.T) {
	a, b := newInstallNode(t, 0), newInstallNode(t, 1)
	const keys = 400
	for i := 0; i < keys; i++ {
		if _, err := a.eng.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	owned := a.eng.OwnedBuckets(0)
	first, second := owned[:9], owned[9:14]
	for round, chunk := range [][]int{first, second} {
		w := sendChunk(t, a, b, chunk, 0, 2)
		if w.Code != http.StatusOK {
			t.Fatalf("install %d: %d %s", round, w.Code, w.Body.String())
		}
		names, buckets := imageSets(t, b.fs)
		if len(names) != round+1 {
			t.Fatalf("after install %d the destination holds image sets %v, want one per install", round, names)
		}
		want := append([]int(nil), chunk...)
		sort.Ints(want)
		if got := buckets[round]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("install %d of %d buckets imaged %v, want exactly the chunk %v", round, len(chunk), got, want)
		}
	}

	// Writes on top of the installed images, then the crash.
	moved := make(map[int]bool)
	for _, bk := range append(append([]int(nil), first...), second...) {
		moved[bk] = true
	}
	values := make(map[string]any)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k-%d", i)
		v, err := b.eng.Execute("get", k, nil)
		if errors.Is(err, store.ErrNotOwned) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			v = i * 10
			if _, err := b.eng.Execute("put", k, v); err != nil {
				t.Fatal(err)
			}
		}
		values[k] = v
	}
	if len(values) == 0 || len(values) != b.eng.TotalRows() {
		t.Fatalf("destination serves %d of its %d rows", len(values), b.eng.TotalRows())
	}
	rowsBefore := b.eng.TotalRows()
	if err := b.rm.Crash(1); err != nil {
		t.Fatal(err)
	}
	st, err := b.rm.Restore(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshots != len(moved) {
		t.Fatalf("restore installed %d images, want the %d moved buckets'", st.Snapshots, len(moved))
	}
	if got := b.eng.TotalRows(); got != rowsBefore {
		t.Fatalf("rows after crash + restore: %d, before: %d", got, rowsBefore)
	}
	for k, want := range values {
		if got, err := b.eng.Execute("get", k, nil); err != nil || got != want {
			t.Fatalf("%s after crash + restore = %v (%v), want %v", k, got, err, want)
		}
	}
}

// TestInstallRefusedWhenImagesFail: an install whose image set cannot be
// synced is refused — the coordinator must not flip ownership to a node that
// could not restore the chunk — the node turns unhealthy, and nothing was
// installed as a baseline.
func TestInstallRefusedWhenImagesFail(t *testing.T) {
	a, b := newInstallNode(t, 0), newInstallNode(t, 1)
	for i := 0; i < 200; i++ {
		if _, err := a.eng.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("disk full")
	b.fs.SetSyncHook(func(name string) error {
		if strings.Contains(name, "set-") {
			return boom
		}
		return nil
	})
	w := sendChunk(t, a, b, a.eng.OwnedBuckets(0)[:6], 0, 2)
	if w.Code == http.StatusOK || !strings.Contains(w.Body.String(), boom.Error()) {
		t.Fatalf("install over a failing disk answered %d %s", w.Code, w.Body.String())
	}
	h := httptest.NewRecorder()
	b.srv.handleHealth(h, httptest.NewRequest(http.MethodGet, wire.PathHealth, nil))
	if h.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after a failed image write: %d %s, want 503", h.Code, h.Body.String())
	}
	if names, _ := imageSets(t, b.fs); len(names) != 0 {
		t.Fatalf("failed install left image sets %v", names)
	}
	if got := b.rm.BaselineSeq(); got != 0 {
		t.Fatalf("failed install bumped the baseline to %d", got)
	}
	if got := b.rm.WALStats().CompactedSegments; got != 0 {
		t.Fatalf("failed install compacted %d segments", got)
	}
}
