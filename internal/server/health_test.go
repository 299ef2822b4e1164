package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pstore/internal/client"
	"pstore/internal/store"
	"pstore/internal/wal"
	"pstore/internal/wire"
)

// putOnly gives a testNode the one procedure put, of a V.
func putOnly[V any](cfg *testNodeConfig) {
	cfg.procs = map[string]store.Procedure{
		"put": store.Proc(func(tx *store.Tx, args V) (any, error) { return nil, tx.Put("kv", tx.Key, args) }),
	}
}

// TestHealthzReportsWALFailure is the dead-log regression test: a node whose
// WAL latches a fail-stop error can no longer promise durability — the write
// whose record tore, and every write after it, fails at commit with a
// retryable 503-class error instead of being acknowledged from memory,
// /v1/healthz flips to 503 (so the coordinator's failure detector declares
// the node dead) and the node status carries the latched error.
func TestHealthzReportsWALFailure(t *testing.T) {
	fs := wal.NewMemFS(1)
	n := newTestNode(t, putOnly[int], func(cfg *testNodeConfig) { cfg.fs = fs })
	eng, rm, srv := n.eng, n.rm, n.srv

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

// TestRefusedRecordIsBadRequest: a command whose record the WAL refuses (args
// between wal.MaxRecordBytes and the frame cap) would be refused however often
// it is sent, so it travels as a 400, not as a 503 the client retries forever:
// one attempt, one frame, nothing latched.
func TestRefusedRecordIsBadRequest(t *testing.T) {
	n := newTestNode(t, putOnly[string], served, func(cfg *testNodeConfig) { cfg.fs = wal.NewMemFS(1) })
	rm, srv := n.rm, n.srv
	cl := loopbackClient(t, n.url, client.Config{RetryRefused: 5})

	_, err := cl.Execute(context.Background(), "put", "k", strings.Repeat("x", wal.MaxRecordBytes))
	var remote *client.RemoteError
	if !errors.As(err, &remote) || remote.Status != http.StatusBadRequest || remote.Code != wire.CodeBadRequest {
		t.Fatalf("oversize put: %v, want 400 %s", err, wire.CodeBadRequest)
	}
	if cc, sc := cl.Counters(), srv.Counters(); cc.Retried != 0 || sc.Frames != 1 || sc.BadRequests != 1 {
		t.Fatalf("%d retries, %d frames, %d bad requests; want one attempt answered 400", cc.Retried, sc.Frames, sc.BadRequests)
	}
	if err := rm.Err(); err != nil {
		t.Fatalf("the refusal latched the log: %v", err)
	}
}
