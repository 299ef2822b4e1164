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
	return newInstallNodeOn(t, id, wal.NewMemFS(int64(id)+1))
}

// newInstallNodeOn is newInstallNode over a data directory on fs, which a
// node of an earlier life may have left behind.
func newInstallNodeOn(t *testing.T, id int, fs *wal.MemFS) *installNode {
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
	if err := eng.Register("del", func(tx *store.Tx) (any, error) {
		return nil, tx.Delete("kv", tx.Key)
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetArgsDecoder(storetest.Args[int]); err != nil {
		t.Fatal(err)
	}
	rm, err := recovery.New(eng, recovery.Config{DataDir: "data", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rm.Close() })
	eng.Start()
	t.Cleanup(eng.Stop)
	srv, err := New(Config{Engine: eng, Node: &NodeConfig{
		ID: id, Nodes: 2, Recovery: rm,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return &installNode{eng: eng, rm: rm, fs: fs, srv: srv}
}

// sendChunk extracts buckets from src's partition from and posts them to
// dst's /v1/node/install for partition to, as Remote.moveBuckets would. It
// returns the answer and the chunk.
func sendChunk(t *testing.T, src, dst *installNode, buckets []int, from, to int) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	data, err := src.eng.ExtractBuckets(buckets, from, to, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := wire.EncodeChunk(buckets, data)
	if err != nil {
		t.Fatal(err)
	}
	return postChunk(t, dst, wire.NodeMove{Buckets: buckets, From: from, To: to}, chunk), chunk
}

// postChunk posts a chunk to dst's /v1/node/install.
func postChunk(t *testing.T, dst *installNode, req wire.NodeMove, chunk []byte) *httptest.ResponseRecorder {
	t.Helper()
	var body bytes.Buffer
	if err := wire.EncodeFrame(&body, req); err != nil {
		t.Fatal(err)
	}
	body.Write(chunk)
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

// values reads every key a node serves.
func values(t *testing.T, n *installNode, keys int) map[string]any {
	t.Helper()
	out := make(map[string]any)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k-%d", i)
		v, err := n.eng.Execute("get", k, nil)
		if errors.Is(err, store.ErrNotOwned) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if v != nil {
			out[k] = v
		}
	}
	return out
}

// coldStart stops n as a kill would and starts a node of the same id from
// its data directory.
func coldStart(t *testing.T, n *installNode, id int) *installNode {
	t.Helper()
	n.eng.Stop()
	n.rm.Close()
	m := newInstallNodeOn(t, id, n.fs)
	if _, err := m.rm.ColdStart(); err != nil {
		t.Fatal(err)
	}
	return m
}

// installTwoChunks loads keys rows on a and moves two chunks of partition 0's
// buckets to b's partition 2, then overwrites every third key b now serves;
// it returns the moved buckets and the first chunk's move and bytes.
func installTwoChunks(t *testing.T, a, b *installNode, keys int) ([]int, wire.NodeMove, []byte) {
	t.Helper()
	for i := 0; i < keys; i++ {
		if _, err := a.eng.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	owned := a.eng.OwnedBuckets(0)
	var first []byte
	for round, buckets := range [][]int{owned[:9], owned[9:14]} {
		w, chunk := sendChunk(t, a, b, buckets, 0, 2)
		if w.Code != http.StatusOK {
			t.Fatalf("install %d: %d %s", round, w.Code, w.Body.String())
		}
		if round == 0 {
			first = chunk
		}
	}
	for k, v := range values(t, b, keys) {
		if i := v.(int); i%3 == 0 {
			if _, err := b.eng.Execute("put", k, i*10); err != nil {
				t.Fatal(err)
			}
		}
	}
	return owned[:14], wire.NodeMove{Buckets: owned[:9], From: 0, To: 2}, first
}

// TestInstallLogsOnlyTheChunk: a cross-node install writes no image: the
// chunk reaches the destination's disk as a record of its log, ahead of the
// flip's plan record, and a duplicate delivery logs nothing and changes
// nothing. A crash of the destination machine then restores every row and
// value from the log — the chunks' and the writes made on top of them.
func TestInstallLogsOnlyTheChunk(t *testing.T) {
	a, b := newInstallNode(t, 0), newInstallNode(t, 1)
	const keys = 400
	moved, req, first := installTwoChunks(t, a, b, keys)
	if names, _ := imageSets(t, b.fs); len(names) != 0 {
		t.Fatalf("the installs wrote image sets %v", names)
	}
	before := values(t, b, keys) // reads are logged too: count after them
	appends := b.rm.WALStats().Appends
	if w := postChunk(t, b, req, first); w.Code != http.StatusOK || b.rm.WALStats().Appends != appends {
		t.Fatalf("a duplicate of the first chunk answered %d %s and logged %d records", w.Code, w.Body.String(), b.rm.WALStats().Appends-appends)
	}
	if got := values(t, b, keys); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Fatalf("a duplicate of the first chunk undid the writes made on top of it:\n got %v\nwant %v", got, before)
	}
	bad, err := wire.EncodeChunk([]int{64}, store.NewBucketData())
	if err != nil {
		t.Fatal(err)
	}
	if w := postChunk(t, b, wire.NodeMove{Buckets: []int{64}, From: 0, To: 2}, bad); w.Code != http.StatusBadRequest {
		t.Fatalf("a chunk naming bucket 64 of 64 answered %d %s, want 400", w.Code, w.Body.String())
	}
	appends = b.rm.WALStats().Appends
	if w := postChunk(t, b, wire.NodeMove{Buckets: moved[:9], From: 2, To: -1}, first); w.Code != http.StatusBadRequest || b.rm.WALStats().Appends != appends {
		t.Fatalf("a chunk for partition -1 answered %d %s", w.Code, w.Body.String())
	}

	rowsBefore := b.eng.TotalRows()
	if err := b.rm.Crash(1); err != nil {
		t.Fatal(err)
	}
	st, err := b.rm.Restore(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshots != 0 || st.Replayed < len(moved) {
		t.Fatalf("restore installed %d images and replayed %d records; want none and at least the %d buckets' chunk shares", st.Snapshots, st.Replayed, len(moved))
	}
	if got := b.eng.TotalRows(); got != rowsBefore {
		t.Fatalf("rows after crash + restore: %d, before: %d", got, rowsBefore)
	}
	if got := values(t, b, keys); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Fatalf("values after crash + restore differ:\n got %v\nwant %v", got, before)
	}
}

// TestInstallColdStartsFromTheRecord: a node that received chunks and never
// checkpointed cold-starts with their rows, and with the writes made on top.
func TestInstallColdStartsFromTheRecord(t *testing.T) {
	a, b := newInstallNode(t, 0), newInstallNode(t, 1)
	const keys = 300
	installTwoChunks(t, a, b, keys)
	want, rows := values(t, b, keys), b.eng.TotalRows()
	if len(want) == 0 || b.rm.Stats().Checkpoints != 0 {
		t.Fatalf("the destination serves %d keys after %d checkpoints; the test needs some and none", len(want), b.rm.Stats().Checkpoints)
	}
	b = coldStart(t, b, 1)
	if got := values(t, b, keys); b.eng.TotalRows() != rows || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cold start rebuilt %d rows, %v; before the kill %d, %v", b.eng.TotalRows(), got, rows, want)
	}
}

// TestInstallBackEmptyColdStartsEmpty: a bucket that leaves a node with rows
// its image there holds, is emptied elsewhere and moves back empty cold-starts
// empty on its old node: the chunk record replays over the old image.
func TestInstallBackEmptyColdStartsEmpty(t *testing.T) {
	a, b := newInstallNode(t, 0), newInstallNode(t, 1)
	const keys = 200
	for i := 0; i < keys; i++ {
		if _, err := a.eng.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.rm.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	chunk := a.eng.OwnedBuckets(0)[:6]
	if w, _ := sendChunk(t, a, b, chunk, 0, 2); w.Code != http.StatusOK {
		t.Fatalf("install on b: %d %s", w.Code, w.Body.String())
	}
	if err := a.eng.ApplyOwnership(chunk, 2); err != nil { // the coordinator's flip
		t.Fatal(err)
	}
	emptied := values(t, b, keys)
	for k := range emptied {
		if _, err := b.eng.Execute("del", k, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(emptied) == 0 || b.eng.TotalRows() != 0 {
		t.Fatalf("b emptied %d keys and holds %d rows; the test needs some and then none", len(emptied), b.eng.TotalRows())
	}
	if w, _ := sendChunk(t, b, a, chunk, 2, 0); w.Code != http.StatusOK {
		t.Fatalf("install back on a: %d %s", w.Code, w.Body.String())
	}
	rows := a.eng.TotalRows()
	if rows != keys-len(emptied) {
		t.Fatalf("a holds %d rows after the empty chunk came back, want %d", rows, keys-len(emptied))
	}
	a = coldStart(t, a, 0)
	if got := a.eng.TotalRows(); got != rows {
		t.Fatalf("a cold-started with %d rows, %d before the kill: the emptied buckets came back from the old image", got, rows)
	}
	for k := range emptied {
		if v, err := a.eng.Execute("get", k, nil); err != nil || v != nil {
			t.Fatalf("emptied %s cold-started as %v (%v)", k, v, err)
		}
	}
}

// TestInstallRefusedWhenLogFails: an install whose record cannot be made
// durable is refused — the coordinator must not flip ownership to a node that
// could not recover the chunk — the node turns unhealthy, and nothing was
// installed or flipped.
func TestInstallRefusedWhenLogFails(t *testing.T) {
	a, b := newInstallNode(t, 0), newInstallNode(t, 1)
	for i := 0; i < 200; i++ {
		if _, err := a.eng.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("disk full")
	b.fs.SetSyncHook(func(name string) error {
		if strings.Contains(name, "seg-") {
			return boom
		}
		return nil
	})
	chunk := a.eng.OwnedBuckets(0)[:6]
	w, _ := sendChunk(t, a, b, chunk, 0, 2)
	if w.Code == http.StatusOK || !strings.Contains(w.Body.String(), boom.Error()) {
		t.Fatalf("install over a failing disk answered %d %s", w.Code, w.Body.String())
	}
	h := httptest.NewRecorder()
	b.srv.handleHealth(h, httptest.NewRequest(http.MethodGet, wire.PathHealth, nil))
	if h.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after a failed log write: %d %s, want 503", h.Code, h.Body.String())
	}
	if rows, owner := b.eng.TotalRows(), b.eng.OwnerOf(chunk[0]); rows != 0 || owner == 2 {
		t.Fatalf("the refused install left %d rows and bucket %d owned by %d", rows, chunk[0], owner)
	}
	if names, _ := imageSets(t, b.fs); len(names) != 0 {
		t.Fatalf("failed install left image sets %v", names)
	}
}

// TestReplicaRefusesInstall: placement is a primary's. A chunk sent to a
// synced replica of the destination node is refused under the code a
// replica's sync refusal carries, and the replica's plan and rows stay as its
// primary's log left them: a chunk logged into the follower's own WAL and
// installed there would fork the replicated history.
func TestReplicaRefusesInstall(t *testing.T) {
	a, b, f := newInstallNode(t, 0), newInstallNode(t, 1), newInstallNode(t, 1)
	for i := 0; i < 100; i++ {
		if _, err := a.eng.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	// f follows b, the chunk's destination node.
	code, body := serveNode(b.srv.handleReplSync, http.MethodPost, wire.PathReplSync, wire.ReplSync{})
	if code != "" {
		t.Fatalf("sync from b: %s", code)
	}
	r := bytes.NewReader(body)
	var meta wire.ReplSyncMeta
	if err := wire.DecodeFrame(r, &meta); err != nil {
		t.Fatal(err)
	}
	f.srv.repl.mu.Lock()
	err := f.srv.become(roleSyncing)
	f.srv.repl.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.srv.InstallReplicaState(meta, body[len(body)-r.Len():]); err != nil {
		t.Fatal(err)
	}
	if f.srv.role() != roleReplica {
		t.Fatalf("f is %s after its sync, want replica", f.srv.role())
	}

	plan, rows, appends := fmt.Sprint(f.eng.Plan()), f.eng.TotalRows(), f.rm.WALStats().Appends
	w, _ := sendChunk(t, a, f, a.eng.OwnedBuckets(0)[:4], 0, 2)
	var resp wire.Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Code != wire.CodeFenced {
		t.Fatalf("an install on a replica answered %d %s, want %s", w.Code, w.Body.String(), wire.CodeFenced)
	}
	if got := fmt.Sprint(f.eng.Plan()); got != plan {
		t.Fatalf("the refused install changed the replica's plan:\n got %s\nwant %s", got, plan)
	}
	if got := f.eng.TotalRows(); got != rows {
		t.Fatalf("the refused install left the replica %d rows, want %d", got, rows)
	}
	if got := f.rm.WALStats().Appends; got != appends {
		t.Fatalf("the refused install appended %d records to the replica's log", got-appends)
	}
}
