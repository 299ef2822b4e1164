package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/client"
	"pstore/internal/store"
	"pstore/internal/wire"
	"pstore/internal/workload"
)

// testEngine builds a started engine whose procedures cover every error the
// wire must map: each "err-*" transaction returns its namesake typed error.
func testEngine(t *testing.T) *store.Engine {
	t.Helper()
	cfg := store.Config{
		MaxMachines:          1,
		PartitionsPerMachine: 2,
		Buckets:              64,
		ServiceTime:          0,
		QueueCapacity:        1 << 10,
		InitialMachines:      1,
	}
	eng, err := store.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	procs := map[string]store.TxnFunc{
		"echo":         func(tx *store.Tx) (any, error) { return tx.Key, nil },
		"err-overload": func(*store.Tx) (any, error) { return nil, fmt.Errorf("queue full: %w", store.ErrOverload) },
		"err-deadline": func(*store.Tx) (any, error) { return nil, fmt.Errorf("expired: %w", store.ErrDeadlineExceeded) },
		"err-down":     func(*store.Tx) (any, error) { return nil, fmt.Errorf("crashed: %w", store.ErrPartitionDown) },
		"err-stopped":  func(*store.Tx) (any, error) { return nil, store.ErrStopped },
		"err-business": func(*store.Tx) (any, error) { return nil, errors.New("insufficient stock") },
	}
	for name, p := range procs {
		if err := eng.Register(name, p); err != nil {
			t.Fatal(err)
		}
	}
	eng.Start()
	t.Cleanup(eng.Stop)
	return eng
}

func postTxn(t *testing.T, s *Server, req wire.Request, header map[string]string) (*httptest.ResponseRecorder, wire.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, wire.PathTxn, bytes.NewReader(body))
	for k, v := range header {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.handleTxn(w, r)
	var resp wire.Response
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return w, resp
}

// TestErrorMappingTable drives one request per typed engine error through
// the front end and checks the full contract: HTTP status, stable code,
// retry hint where the code is retryable, the right server counter, and the
// one count of wire rejections (Rejected429), which only a 429 moves.
func TestErrorMappingTable(t *testing.T) {
	eng := testEngine(t)
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		txn      string
		status   int
		code     string
		wantHint bool
		counter  func(Counters) int64
	}{
		{"success", "echo", 200, "", false, func(c Counters) int64 { return c.OK }},
		{"overload", "err-overload", 429, wire.CodeOverload, true, func(c Counters) int64 { return c.Rejected429 }},
		{"deadline", "err-deadline", 504, wire.CodeDeadline, false, func(c Counters) int64 { return c.Deadline504 }},
		{"partition-down", "err-down", 503, wire.CodePartitionDown, true, func(c Counters) int64 { return c.Down503 }},
		{"stopped", "err-stopped", 503, wire.CodeStopped, true, func(c Counters) int64 { return c.Down503 }},
		{"business-error", "err-business", 422, wire.CodeTxn, false, func(c Counters) int64 { return c.TxnErrors }},
		{"unknown-txn", "no-such-txn", 400, wire.CodeUnknownTxn, false, func(c Counters) int64 { return c.BadRequests }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := tc.counter(srv.Counters())
			wireBefore := srv.Counters().Rejected429
			w, resp := postTxn(t, srv, wire.Request{Txn: tc.txn, Key: "k1"}, nil)
			if w.Code != tc.status {
				t.Errorf("HTTP status = %d, want %d", w.Code, tc.status)
			}
			if resp.Status != tc.status {
				t.Errorf("embedded status = %d, want %d", resp.Status, tc.status)
			}
			if resp.Code != tc.code {
				t.Errorf("code = %q, want %q", resp.Code, tc.code)
			}
			if tc.wantHint {
				if resp.RetryAfterMs < 1 {
					t.Errorf("retry hint = %d, want >= 1", resp.RetryAfterMs)
				}
				if h := w.Header().Get(wire.HeaderRetryAfterMs); h != strconv.FormatInt(resp.RetryAfterMs, 10) {
					t.Errorf("%s header = %q, want %d", wire.HeaderRetryAfterMs, h, resp.RetryAfterMs)
				}
				if w.Header().Get("Retry-After") == "" {
					t.Error("Retry-After header missing")
				}
			} else if resp.RetryAfterMs != 0 {
				t.Errorf("retry hint = %d, want 0", resp.RetryAfterMs)
			}
			if got := tc.counter(srv.Counters()); got != before+1 {
				t.Errorf("counter went %d -> %d, want +1", before, got)
			}
			wantWire := wireBefore
			if tc.status == 429 {
				wantWire++
			}
			if got := srv.Counters().Rejected429; got != wantWire {
				t.Errorf("Rejected429 = %d, want %d", got, wantWire)
			}
		})
	}
}

func TestBadRequests(t *testing.T) {
	eng := testEngine(t)
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	// Garbage body.
	r := httptest.NewRequest(http.MethodPost, wire.PathTxn, bytes.NewReader([]byte("{not json")))
	w := httptest.NewRecorder()
	srv.handleTxn(w, r)
	if w.Code != 400 {
		t.Errorf("garbage body: HTTP %d, want 400", w.Code)
	}
	// Unparseable deadline header.
	w2, resp := postTxn(t, srv, wire.Request{Txn: "echo", Key: "k"},
		map[string]string{wire.HeaderDeadlineMs: "soon"})
	if w2.Code != 400 || resp.Code != wire.CodeBadRequest {
		t.Errorf("bad deadline header: HTTP %d code %q, want 400 bad_request", w2.Code, resp.Code)
	}
	// Args for a server with no codec configured.
	_, resp = postTxn(t, srv, wire.Request{Txn: "echo", Key: "k", Args: []byte(`{"a":1}`)}, nil)
	if resp.Code != wire.CodeBadRequest {
		t.Errorf("args without codec: code %q, want bad_request", resp.Code)
	}
	if got := srv.Counters().BadRequests; got != 3 {
		t.Errorf("BadRequests = %d, want 3", got)
	}
}

// serveLoopback runs srv on a loopback listener until the test ends and
// returns its base URL.
func serveLoopback(t *testing.T, srv *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return "http://" + l.Addr().String()
}

func loopbackClient(t *testing.T, url string, cfg client.Config) *client.Client {
	t.Helper()
	cfg.Addr = url
	cl, err := client.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestBatchOrdered sends one batch over the stream and checks the results come
// back in submission order with per-frame outcomes.
func TestBatchOrdered(t *testing.T) {
	eng := testEngine(t)
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	cl := loopbackClient(t, serveLoopback(t, srv), client.Config{})
	const n = 32
	reqs := make([]wire.Request, n)
	for i := range reqs {
		reqs[i] = wire.Request{Txn: "echo", Key: fmt.Sprintf("key-%02d", i)}
		if i%7 == 3 {
			reqs[i].Txn = "err-business"
		}
	}
	resps, err := cl.ExecuteBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != n {
		t.Fatalf("%d responses for %d requests", len(resps), n)
	}
	for i, resp := range resps {
		if i%7 == 3 {
			if resp.Status != 422 || resp.Code != wire.CodeTxn {
				t.Errorf("frame %d: status %d code %q, want 422 txn_error", i, resp.Status, resp.Code)
			}
			continue
		}
		want := fmt.Sprintf("%q", fmt.Sprintf("key-%02d", i))
		if resp.Status != 200 || string(resp.Value) != want {
			t.Errorf("frame %d: status %d value %s, want 200 %s", i, resp.Status, resp.Value, want)
		}
	}
	c := srv.Counters()
	if c.Streams != 1 || c.Frames != n || c.Requests != 0 {
		t.Errorf("counters: %d streams %d frames %d requests, want 1, %d and 0", c.Streams, c.Frames, c.Requests, n)
	}
}

// TestBatchSharesDeadline sends a batch whose deadline one frame cannot meet:
// the batch fails as a whole when the deadline passes, not when the slow frame
// ends, and the stream it was sent on serves the next call.
func TestBatchSharesDeadline(t *testing.T) {
	eng, err := store.NewEngine(store.Config{
		MaxMachines: 1, PartitionsPerMachine: 2, Buckets: 64, QueueCapacity: 1 << 10, InitialMachines: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	for name, p := range map[string]store.TxnFunc{
		"echo": func(tx *store.Tx) (any, error) { return tx.Key, nil },
		"slow": func(tx *store.Tx) (any, error) { <-release; return tx.Key, nil },
	} {
		if err := eng.Register(name, p); err != nil {
			t.Fatal(err)
		}
	}
	eng.Start()
	t.Cleanup(eng.Stop)
	defer close(release)
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	url := serveLoopback(t, srv)
	// Two keys on different partitions, so the fast one is not queued behind
	// the slow one.
	slowKey, fastKey := "k0", ""
	for i := 1; fastKey == ""; i++ {
		if k := fmt.Sprintf("k%d", i); eng.PartitionOfKey(k) != eng.PartitionOfKey(slowKey) {
			fastKey = k
		}
	}
	cl := loopbackClient(t, url, client.Config{Deadline: 50 * time.Millisecond})
	start := time.Now()
	_, err = cl.ExecuteBatch(context.Background(), []wire.Request{{Txn: "echo", Key: fastKey}, {Txn: "slow", Key: slowKey}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch with a frame past the deadline: %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("batch failed after %v, deadline was 50ms", waited)
	}
	if v, err := cl.Execute(context.Background(), "echo", fastKey, nil); err != nil || string(v) != fmt.Sprintf("%q", fastKey) {
		t.Fatalf("call after the expired batch: %s, %v", v, err)
	}
	if c := srv.Counters(); c.Streams != 1 {
		t.Fatalf("%d streams, want the expired batch to leave its stream open", c.Streams)
	}
}

// TestLoopbackB2W is the end-to-end wire test: a b2w-loaded engine behind a
// real TCP listener, driven by the same driver that runs in-process, through
// the client library and a RemoteExecutor. The trace must complete with zero
// transport errors; business errors are expected benchmark behavior.
func TestLoopbackB2W(t *testing.T) {
	cfg := store.Config{
		MaxMachines:          2,
		PartitionsPerMachine: 2,
		Buckets:              128,
		ServiceTime:          0,
		QueueCapacity:        1 << 12,
		InitialMachines:      2,
	}
	eng, err := store.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2w.Register(eng); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	t.Cleanup(eng.Stop)
	spec := b2w.LoadSpec{Carts: 40, Checkouts: 15, Stocks: 25, LinesPerCart: 2, Seed: 2}
	if err := b2w.Load(eng, spec); err != nil {
		t.Fatal(err)
	}

	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})

	cl, err := client.New(client.Config{Addr: l.Addr().String(), MaxInFlight: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	exec, err := b2w.NewRemoteExecutor(context.Background(), cl)
	if err != nil {
		t.Fatal(err)
	}

	vals := make([]float64, 10)
	for i := range vals {
		vals[i] = 50
	}
	series := workload.NewSeries(time.Now(), time.Minute, vals)
	d := &b2w.Driver{Exec: exec, Spec: spec, Seed: 3}
	stats, err := d.Run(context.Background(), series, 10*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Arrival generation is deterministic, so every arrival must be
	// accounted for as executed, failed, refused, or shed. How many actually
	// complete depends on machine speed (the race detector alone costs ~10×),
	// so the completion floor is deliberately modest — transport health is
	// pinned by the zero-transport-errors check, not by throughput.
	attempted := stats.Executed + stats.Failed + stats.Refused + stats.Shed
	if attempted < 300 {
		t.Fatalf("only %d transactions attempted over the wire", attempted)
	}
	total := stats.Executed + stats.Failed
	if total < 50 {
		t.Fatalf("only %d transactions completed over the wire", total)
	}
	if stats.Failed > total/4 {
		t.Fatalf("%d of %d failed — more than business errors explain", stats.Failed, total)
	}
	if got := cl.Counters().TransportErrors; got != 0 {
		t.Fatalf("%d transport errors over loopback", got)
	}
	sc := srv.Counters()
	if sc.OK == 0 || sc.Frames != sc.OK+sc.TxnErrors || sc.Streams != 1 {
		t.Fatalf("server counters inconsistent: %+v", sc)
	}
}

// TestShutdownRequested checks the wire shutdown handshake.
func TestShutdownRequested(t *testing.T) {
	eng := testEngine(t)
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.ShutdownRequested():
		t.Fatal("shutdown channel closed before any request")
	default:
	}
	r := httptest.NewRequest(http.MethodPost, wire.PathShutdown, nil)
	w := httptest.NewRecorder()
	srv.handleShutdown(w, r)
	if w.Code != 200 {
		t.Fatalf("shutdown HTTP %d, want 200", w.Code)
	}
	select {
	case <-srv.ShutdownRequested():
	case <-time.After(time.Second):
		t.Fatal("shutdown channel not closed")
	}
}
