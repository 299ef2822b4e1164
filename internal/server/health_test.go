package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"pstore/internal/recovery"
	"pstore/internal/store"
	"pstore/internal/wal"
	"pstore/internal/wire"
)

// TestHealthzReportsWALFailure is the dead-log regression test: a node whose
// WAL latches a fail-stop error can no longer promise durability — the write
// whose record tore, and every write after it, fails at commit with a
// retryable 503-class error instead of being acknowledged from memory,
// /v1/healthz flips to 503 (so the coordinator's failure detector declares
// the node dead) and the node status carries the latched error.
func TestHealthzReportsWALFailure(t *testing.T) {
	cfg := store.Config{
		MaxMachines:          1,
		PartitionsPerMachine: 2,
		Buckets:              64,
		QueueCapacity:        1 << 10,
		InitialMachines:      1,
	}
	eng, err := store.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register("put", func(tx *store.Tx) (any, error) {
		return nil, tx.Put("kv", tx.Key, tx.Args)
	}); err != nil {
		t.Fatal(err)
	}
	fs := wal.NewMemFS(1)
	rm, err := recovery.New(eng, recovery.Config{DataDir: "data", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	t.Cleanup(eng.Stop)
	srv, err := New(Config{
		Engine: eng,
		Node:   &NodeConfig{ID: 0, Nodes: 1, Recovery: rm},
	})
	if err != nil {
		t.Fatal(err)
	}

	health := func() (int, string) {
		w := httptest.NewRecorder()
		srv.handleHealth(w, httptest.NewRequest(http.MethodGet, wire.PathHealth, nil))
		return w.Code, w.Body.String()
	}
	nodeStatus := func() wire.NodeStatus {
		w := httptest.NewRecorder()
		srv.handleNodeStatus(w, httptest.NewRequest(http.MethodGet, wire.PathNodeStatus, nil))
		if w.Code != 200 {
			t.Fatalf("node status: %d %s", w.Code, w.Body.String())
		}
		var st wire.NodeStatus
		if err := json.NewDecoder(w.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	if _, err := eng.Execute("put", "k", 1); err != nil {
		t.Fatal(err)
	}
	if code, body := health(); code != 200 {
		t.Fatalf("healthy node: %d %s", code, body)
	}
	if st := nodeStatus(); st.WALError != "" || st.Role != "primary" {
		t.Fatalf("healthy status: WALError=%q Role=%q", st.WALError, st.Role)
	}

	// Kill the disk: the next durable append tears and latches the log. The
	// submitter of that write is told so — the commit error rides the reply —
	// and so is everyone after it: the log is fail-stop.
	fs.CrashAfterWrites(1)
	for i := 0; i < 2; i++ {
		_, err := eng.Execute("put", "k", 2+i)
		if !errors.Is(err, store.ErrCommitFailed) || !errors.Is(err, wal.ErrCrashed) {
			t.Fatalf("put %d on a dead log: %v, want a commit failure wrapping the disk error", i, err)
		}
		if code := wire.CodeOf(err); wire.StatusOf(code) != http.StatusServiceUnavailable {
			t.Fatalf("commit failure travels as %q (%d), want a retryable 503", code, wire.StatusOf(code))
		}
	}
	if rm.Err() == nil {
		t.Fatal("WAL error did not latch")
	}

	code, body := health()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("dead-log healthz: %d %s, want 503", code, body)
	}
	var out struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil || out.OK || out.Error == "" {
		t.Fatalf("dead-log healthz body %q (%v)", body, err)
	}
	if st := nodeStatus(); st.WALError == "" {
		t.Fatal("node status does not surface the latched WAL error")
	}
}
