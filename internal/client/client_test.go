package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstore/internal/store"
	"pstore/internal/wire"
)

// streamHandler serves the stream endpoint the way internal/server does,
// answering every request frame with reply's Response.
func streamHandler(reply func(context.Context, wire.StreamFrame) wire.Response) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, br, err := wire.AcceptStream(w, r)
		if err != nil {
			return
		}
		_ = wire.ServeStream(context.Background(), conn, br, func(ctx context.Context, f wire.StreamFrame) []byte {
			b, _ := json.Marshal(reply(ctx, f))
			return b
		})
	})
}

// wireHandler scripts a server: it answers each txn request with the next
// response in the sequence, recording the deadlines it saw.
type wireHandler struct {
	mu        sync.Mutex
	responses []wire.Response
	calls     int
	deadlines []uint32
}

func (h *wireHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	streamHandler(func(_ context.Context, f wire.StreamFrame) wire.Response {
		h.mu.Lock()
		defer h.mu.Unlock()
		resp := wire.Response{Status: 200, Value: []byte(`"ok"`)}
		if h.calls < len(h.responses) {
			resp = h.responses[h.calls]
		}
		h.calls++
		h.deadlines = append(h.deadlines, f.DeadlineMs)
		return resp
	}).ServeHTTP(w, r)
}

func testClient(t *testing.T, h http.Handler, cfg Config) *Client {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	cfg.Addr = ts.URL
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestExecuteSuccess(t *testing.T) {
	h := &wireHandler{}
	c := testClient(t, h, Config{})
	v, err := c.Execute(context.Background(), "echo", "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != `"ok"` {
		t.Fatalf("value = %s", v)
	}
	cc := c.Counters()
	if cc.Started != 1 || cc.Completed != 1 {
		t.Fatalf("counters = %+v", cc)
	}
}

// TestSentinelMapping checks that refused work surfaces with the same typed
// errors an in-process caller would see.
func TestSentinelMapping(t *testing.T) {
	cases := []struct {
		resp     wire.Response
		sentinel error
	}{
		{wire.Response{Status: 429, Code: wire.CodeOverload, Error: "full"}, store.ErrOverload},
		{wire.Response{Status: 504, Code: wire.CodeDeadline, Error: "late"}, store.ErrDeadlineExceeded},
		{wire.Response{Status: 503, Code: wire.CodePartitionDown, Error: "down"}, store.ErrPartitionDown},
		{wire.Response{Status: 400, Code: wire.CodeUnknownTxn, Error: "what"}, store.ErrUnknownTxn},
	}
	for _, tc := range cases {
		h := &wireHandler{responses: []wire.Response{tc.resp}}
		c := testClient(t, h, Config{})
		_, err := c.Execute(context.Background(), "t", "k", nil)
		if !errors.Is(err, tc.sentinel) {
			t.Errorf("status %d: errors.Is(%v, %v) = false", tc.resp.Status, err, tc.sentinel)
		}
		var remote *RemoteError
		if !errors.As(err, &remote) || remote.Code != tc.resp.Code {
			t.Errorf("status %d: not a RemoteError with code %q: %v", tc.resp.Status, tc.resp.Code, err)
		}
	}
}

// TestRetryHonorsHint checks a refused request is retried after the server's
// hint and succeeds, and that the wait really happened.
func TestRetryHonorsHint(t *testing.T) {
	const hintMs = 30
	h := &wireHandler{responses: []wire.Response{
		{Status: 429, Code: wire.CodeOverload, Error: "full", RetryAfterMs: hintMs},
	}}
	c := testClient(t, h, Config{RetryRefused: 2})
	start := time.Now()
	v, err := c.Execute(context.Background(), "t", "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != `"ok"` {
		t.Fatalf("value = %s", v)
	}
	if waited := time.Since(start); waited < hintMs*time.Millisecond {
		t.Fatalf("retried after %v, hint was %dms", waited, hintMs)
	}
	cc := c.Counters()
	if cc.Retried != 1 || cc.Refused != 0 || cc.Completed != 1 {
		t.Fatalf("counters = %+v", cc)
	}
}

func TestRefusedAfterRetriesExhausted(t *testing.T) {
	h := &wireHandler{responses: []wire.Response{
		{Status: 429, Code: wire.CodeOverload, RetryAfterMs: 1},
		{Status: 429, Code: wire.CodeOverload, RetryAfterMs: 1},
		{Status: 429, Code: wire.CodeOverload, RetryAfterMs: 1},
	}}
	c := testClient(t, h, Config{RetryRefused: 2})
	_, err := c.Execute(context.Background(), "t", "k", nil)
	if !errors.Is(err, store.ErrOverload) {
		t.Fatalf("err = %v, want overload", err)
	}
	cc := c.Counters()
	if cc.Retried != 2 || cc.Refused != 1 {
		t.Fatalf("counters = %+v", cc)
	}
}

// TestInFlightCap checks arrivals beyond MaxInFlight shed locally with
// ErrSaturated (which matches store.ErrOverload) without touching the wire.
func TestInFlightCap(t *testing.T) {
	release := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(1)
	var once sync.Once
	slow := streamHandler(func(context.Context, wire.StreamFrame) wire.Response {
		once.Do(entered.Done)
		<-release
		return wire.Response{Status: 200, Value: []byte("null")}
	})
	c := testClient(t, slow, Config{MaxInFlight: 1})

	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		_, _ = c.Execute(context.Background(), "t", "k", nil)
	}()
	entered.Wait() // the one slot is now held server-side

	_, err := c.Execute(context.Background(), "t", "k2", nil)
	if !errors.Is(err, ErrSaturated) || !errors.Is(err, store.ErrOverload) {
		t.Fatalf("err = %v, want ErrSaturated wrapping ErrOverload", err)
	}
	close(release)
	bg.Wait()
	cc := c.Counters()
	if cc.Shed != 1 || cc.Started != 1 {
		t.Fatalf("counters = %+v", cc)
	}
}

// TestDeadlineHeader checks the configured deadline reaches the server in
// the request frame.
func TestDeadlineHeader(t *testing.T) {
	h := &wireHandler{}
	c := testClient(t, h, Config{Deadline: 250 * time.Millisecond})
	if _, err := c.Execute(context.Background(), "t", "k", nil); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.deadlines) != 1 || h.deadlines[0] < 1 || h.deadlines[0] > 250 {
		t.Fatalf("frame deadlines = %v, want one of 1..250 ms", h.deadlines)
	}
}

// TestDeadlineExpiry checks a request that outlives its deadline surfaces as
// a typed deadline error counted as refused, not a transport error.
func TestDeadlineExpiry(t *testing.T) {
	stall := streamHandler(func(ctx context.Context, _ wire.StreamFrame) wire.Response {
		// Outlive the client's 30ms budget; the stream's context ends when
		// the client closes it.
		select {
		case <-ctx.Done():
		case <-time.After(2 * time.Second):
		}
		return wire.Response{Status: 200}
	})
	c := testClient(t, stall, Config{Deadline: 30 * time.Millisecond})
	_, err := c.Execute(context.Background(), "t", "k", nil)
	if !errors.Is(err, store.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	cc := c.Counters()
	if cc.Refused != 1 || cc.TransportErrors != 0 {
		t.Fatalf("counters = %+v", cc)
	}
}

func TestTransportErrorCounted(t *testing.T) {
	c, err := New(Config{Addr: "127.0.0.1:1"}) // nothing listens on port 1
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Execute(context.Background(), "t", "k", nil); err == nil {
		t.Fatal("expected a transport error")
	}
	if got := c.Counters().TransportErrors; got != 1 {
		t.Fatalf("TransportErrors = %d, want 1", got)
	}
}

func TestExecuteBatch(t *testing.T) {
	var frames atomic.Int64
	batch := streamHandler(func(_ context.Context, f wire.StreamFrame) wire.Response {
		var req wire.Request
		if err := json.Unmarshal(f.Payload, &req); err != nil {
			return wire.Response{Status: 400, Code: wire.CodeBadRequest}
		}
		frames.Add(1)
		return wire.Response{Status: 200, Value: []byte(strconv.Quote(req.Key))}
	})
	c := testClient(t, batch, Config{})
	reqs := []wire.Request{{Txn: "echo", Key: "a"}, {Txn: "echo", Key: "b"}, {Txn: "echo", Key: "c"}}
	resps, err := c.ExecuteBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 3 || frames.Load() != 3 {
		t.Fatalf("got %d responses, server saw %d frames", len(resps), frames.Load())
	}
	for i, want := range []string{`"a"`, `"b"`, `"c"`} {
		if string(resps[i].Value) != want {
			t.Fatalf("frame %d value = %s, want %s", i, resps[i].Value, want)
		}
	}
	if cc := c.Counters(); cc.Completed != 3 {
		t.Fatalf("counters = %+v", cc)
	}
}
