package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// streamPeer is the answering end the Mux tests call: an HTTP server whose
// stream endpoint runs handle, and which can be killed the way a SIGKILL kills
// a node — every accepted connection closed under the callers' feet.
type streamPeer struct {
	url string

	mu       sync.Mutex
	conns    []net.Conn
	accepted int
}

func newStreamPeer(t *testing.T, handle func(context.Context, StreamFrame) []byte) *streamPeer {
	t.Helper()
	p := &streamPeer{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, br, err := AcceptStream(w, r)
		if err != nil {
			return
		}
		p.mu.Lock()
		p.conns = append(p.conns, conn)
		p.accepted++
		p.mu.Unlock()
		_ = ServeStream(context.Background(), conn, br, handle)
	}))
	p.url = ts.URL
	t.Cleanup(func() {
		p.kill()
		ts.Close()
	})
	return p
}

func (p *streamPeer) kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

func (p *streamPeer) connections() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accepted
}

func newTestMux(t *testing.T, url string) *Mux {
	t.Helper()
	m := NewMux(func() string { return url })
	t.Cleanup(m.Close)
	return m
}

// call sends one frame and returns its reply.
func call(ctx context.Context, m *Mux, payload string) (string, error) {
	replies, err := m.Do(ctx, []StreamFrame{{Payload: []byte(payload)}})
	if err != nil {
		return "", err
	}
	return string(replies[0]), nil
}

// gates answers every request with "re:"+payload once the gate named by the
// payload is open; a payload with no gate is answered at once.
type gates map[string]chan struct{}

func (g gates) handle(ctx context.Context, f StreamFrame) []byte {
	if gate, ok := g[string(f.Payload)]; ok {
		<-gate
	}
	return append([]byte("re:"), f.Payload...)
}

func TestStreamFrameRoundTrip(t *testing.T) {
	frames := []StreamFrame{
		{ID: 1, DeadlineMs: 250, Hops: 2, Payload: []byte(`{"txn":"noop","key":"k"}`)},
		{ID: 1<<64 - 1, Payload: []byte{}},
		{ID: 7, DeadlineMs: 1<<32 - 1, Hops: 255, Payload: bytes.Repeat([]byte("x"), MaxFrame)},
	}
	var buf []byte
	for _, f := range frames {
		var err error
		if buf, err = AppendStreamFrame(buf, f); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf)
	for i, want := range frames {
		got, err := ReadStreamFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.ID != want.ID || got.DeadlineMs != want.DeadlineMs || got.Hops != want.Hops || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got id %d deadline %d hops %d (%d bytes), want id %d deadline %d hops %d (%d bytes)",
				i, got.ID, got.DeadlineMs, got.Hops, len(got.Payload),
				want.ID, want.DeadlineMs, want.Hops, len(want.Payload))
		}
	}
	if _, err := ReadStreamFrame(r); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestStreamFrameRefused pins what neither end may accept: frames over the
// cap, frames shorter than their own header and frames cut anywhere.
func TestStreamFrameRefused(t *testing.T) {
	if _, err := AppendStreamFrame(nil, StreamFrame{Payload: make([]byte, MaxFrame+1)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("encoding an oversize payload: %v, want ErrFrameTooLarge", err)
	}
	prefix := func(n uint32) []byte { return binary.BigEndian.AppendUint32(nil, n) }
	if _, err := ReadStreamFrame(bytes.NewReader(prefix(streamHeader + MaxFrame + 1))); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize length prefix: %v, want ErrFrameTooLarge", err)
	}
	if _, err := ReadStreamFrame(bytes.NewReader(prefix(streamHeader - 1))); !errors.Is(err, errShortStreamFrame) {
		t.Errorf("length prefix below the header: %v, want errShortStreamFrame", err)
	}
	whole, err := AppendStreamFrame(nil, StreamFrame{ID: 9, Payload: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(whole); cut++ {
		if _, err := ReadStreamFrame(bytes.NewReader(whole[:cut])); err != io.ErrUnexpectedEOF {
			t.Fatalf("frame cut at %d/%d: %v, want io.ErrUnexpectedEOF", cut, len(whole), err)
		}
	}
}

// TestServeStreamEndsOnBadFrame checks the answering end gives up on a stream
// it can no longer parse — there is no way to find the next frame — and says
// why, instead of answering garbage.
func TestServeStreamEndsOnBadFrame(t *testing.T) {
	good, err := AppendStreamFrame(nil, StreamFrame{ID: 1, Payload: []byte("ok")})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		tail []byte
		want error
	}{
		{"oversize", binary.BigEndian.AppendUint32(nil, streamHeader+MaxFrame+1), ErrFrameTooLarge},
		{"torn", good[:len(good)-1], io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			caller, server := net.Pipe()
			defer caller.Close()
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				_, _ = io.Copy(io.Discard, caller) // replies, until the stream ends
			}()
			go func() {
				_, _ = caller.Write(append(append([]byte(nil), good...), tc.tail...))
				if tc.want == io.ErrUnexpectedEOF {
					caller.Close()
				}
			}()
			served := make(chan error, 1)
			go func() {
				served <- ServeStream(context.Background(), server, bufio.NewReader(server), gates{}.handle)
			}()
			select {
			case err := <-served:
				if !errors.Is(err, tc.want) {
					t.Fatalf("ServeStream returned %v, want %v", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("ServeStream still serving after a bad frame")
			}
			select {
			case <-drained:
			case <-time.After(5 * time.Second):
				t.Fatal("connection still open after a bad frame")
			}
		})
	}
}

// TestServeStreamCapsHandlers sends one stream more requests than it may run at
// once, none of which finishes until released: the answering end stops reading
// at the cap instead of starting a goroutine per frame a caller cares to send,
// and picks the rest up as handlers finish.
func TestServeStreamCapsHandlers(t *testing.T) {
	const extra = 16
	var (
		mu           sync.Mutex
		running, top int
	)
	release := make(chan struct{})
	m := newTestMux(t, newStreamPeer(t, func(ctx context.Context, f StreamFrame) []byte {
		mu.Lock()
		running++
		top = max(top, running)
		mu.Unlock()
		<-release
		mu.Lock()
		running--
		mu.Unlock()
		return f.Payload
	}).url)
	atCap := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return running == maxStreamHandlers
	}
	done := make(chan error, 1)
	go func() {
		replies, err := m.Do(context.Background(), make([]StreamFrame, maxStreamHandlers+extra))
		if err == nil && len(replies) != maxStreamHandlers+extra {
			err = errors.New("replies missing")
		}
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); !atCap(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the stream never reached its handler cap")
		}
	}
	time.Sleep(20 * time.Millisecond) // room for a reader that does not stop to overshoot
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if top != maxStreamHandlers {
		t.Fatalf("%d handlers ran at once, want the cap of %d", top, maxStreamHandlers)
	}
}

// TestStreamRepliesOutOfOrder has the peer answer the second call before the
// first and checks each caller gets its own reply, and that one Do of several
// frames gets them back in frame order whatever order they finished in.
func TestStreamRepliesOutOfOrder(t *testing.T) {
	g := gates{"slow": make(chan struct{})}
	m := newTestMux(t, newStreamPeer(t, g.handle).url)
	ctx := context.Background()

	slow := make(chan string, 1)
	go func() {
		reply, err := call(ctx, m, "slow")
		if err != nil {
			reply = "error: " + err.Error()
		}
		slow <- reply
	}()
	// "fast" is sent on the same connection after "slow" and overtakes it.
	for m.Stats().Frames == 0 {
		time.Sleep(time.Millisecond)
	}
	if reply, err := call(ctx, m, "fast"); err != nil || reply != "re:fast" {
		t.Fatalf("fast call: %q, %v", reply, err)
	}
	select {
	case reply := <-slow:
		t.Fatalf("slow call answered %q before its gate opened", reply)
	default:
	}

	batch := make(chan []string, 1)
	go func() {
		replies, err := m.Do(ctx, []StreamFrame{
			{Payload: []byte("slow")}, {Payload: []byte("a")}, {Payload: []byte("b")},
		})
		if err != nil {
			batch <- []string{"error: " + err.Error()}
			return
		}
		out := make([]string, len(replies))
		for i, r := range replies {
			out[i] = string(r)
		}
		batch <- out
	}()
	for m.Stats().Frames < 5 {
		time.Sleep(time.Millisecond)
	}
	close(g["slow"])
	if reply := <-slow; reply != "re:slow" {
		t.Fatalf("slow call: %q", reply)
	}
	if got := strings.Join(<-batch, ","); got != "re:slow,re:a,re:b" {
		t.Fatalf("batch replies %q, want them in frame order", got)
	}
	if st := m.Stats(); st.Dials != 1 || st.MaxInFlight < 2 {
		t.Fatalf("stats %+v, want one dial and at least two calls in flight at once", st)
	}
}

// TestStreamDeadlineAbandonsOneCall lets one call's context expire while
// another is pending on the same connection: only the expired call fails, the
// other is answered, later calls reuse the connection, and the abandoned
// call's late reply is dropped without harm.
func TestStreamDeadlineAbandonsOneCall(t *testing.T) {
	g := gates{"late": make(chan struct{}), "held": make(chan struct{})}
	peer := newStreamPeer(t, g.handle)
	m := newTestMux(t, peer.url)

	held := make(chan string, 1)
	go func() {
		reply, err := call(context.Background(), m, "held")
		if err != nil {
			reply = "error: " + err.Error()
		}
		held <- reply
	}()
	for m.Stats().Frames == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := call(ctx, m, "late"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired call: %v, want context.DeadlineExceeded", err)
	}
	// A call that arrives with its deadline already behind it must not reach
	// the connection at all: a write under that deadline would fail at once and
	// take the stream, and the held call, down with it.
	past, cancelPast := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelPast()
	if _, err := call(past, m, "never sent"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call with a past deadline: %v, want context.DeadlineExceeded", err)
	}
	if frames := m.Stats().Frames; frames != 2 {
		t.Fatalf("%d frames sent, want the past-deadline call to have sent none", frames)
	}
	close(g["held"])
	if reply := <-held; reply != "re:held" {
		t.Fatalf("the call pending beside the expired ones: %q", reply)
	}
	close(g["late"]) // its reply now arrives for an id nobody waits on
	if reply, err := call(context.Background(), m, "next"); err != nil || reply != "re:next" {
		t.Fatalf("call after the expiry: %q, %v", reply, err)
	}
	if n := peer.connections(); n != 1 {
		t.Fatalf("%d connections, want the one the expired call left alive", n)
	}
}

// TestStreamPeerDeathFailsPendingAndRedials kills the peer's end with calls
// pending that have no deadline of their own: all of them must fail at once,
// and the next call must open a new connection.
func TestStreamPeerDeathFailsPendingAndRedials(t *testing.T) {
	g := gates{"held": make(chan struct{})}
	defer close(g["held"])
	peer := newStreamPeer(t, g.handle)
	m := newTestMux(t, peer.url)

	const pending = 3
	errs := make(chan error, pending)
	for i := 0; i < pending; i++ {
		go func() {
			_, err := call(context.Background(), m, "held")
			errs <- err
		}()
	}
	for m.Stats().Frames < pending {
		time.Sleep(time.Millisecond)
	}
	peer.kill()
	for i := 0; i < pending; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a call pending on a dead stream succeeded")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d pending calls still waiting after the peer died", pending-i, pending)
		}
	}
	if reply, err := call(context.Background(), m, "again"); err != nil || reply != "re:again" {
		t.Fatalf("call after the peer died: %q, %v", reply, err)
	}
	if st := m.Stats(); st.Dials != 2 || st.Redials != 1 || peer.connections() != 2 {
		t.Fatalf("stats %+v with %d connections, want the one redial", st, peer.connections())
	}
}

// TestStreamFollowsAddress moves the address between calls: the old
// connection is closed and the next call reaches the new peer.
func TestStreamFollowsAddress(t *testing.T) {
	tag := func(name string) func(context.Context, StreamFrame) []byte {
		return func(context.Context, StreamFrame) []byte { return []byte(name) }
	}
	a, b := newStreamPeer(t, tag("a")), newStreamPeer(t, tag("b"))
	var mu sync.Mutex
	url := a.url
	m := NewMux(func() string {
		mu.Lock()
		defer mu.Unlock()
		return url
	})
	defer m.Close()
	if reply, err := call(context.Background(), m, "x"); err != nil || reply != "a" {
		t.Fatalf("first call: %q, %v", reply, err)
	}
	mu.Lock()
	url = b.url
	mu.Unlock()
	if reply, err := call(context.Background(), m, "x"); err != nil || reply != "b" {
		t.Fatalf("call after the move: %q, %v", reply, err)
	}
	if st := m.Stats(); st.Dials != 2 || st.Redials != 1 {
		t.Fatalf("stats %+v, want a second dial", st)
	}
}

// TestStreamUpgradeRefusedIsAnError points a Mux at servers that do not speak
// the stream protocol. There is no other transport to fall back to, so the
// call fails and says which peer refused.
func TestStreamUpgradeRefusedIsAnError(t *testing.T) {
	plain := httptest.NewServer(http.NotFoundHandler())
	defer plain.Close()
	m := newTestMux(t, plain.URL)
	if _, err := call(context.Background(), m, "x"); err == nil || !strings.Contains(err.Error(), "refused the stream upgrade (HTTP 404)") {
		t.Fatalf("call to a server without the endpoint: %v", err)
	}

	// And the answering end refuses a plain request for the endpoint.
	peer := newStreamPeer(t, gates{}.handle)
	resp, err := http.Get(peer.url + PathStream)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Fatalf("GET without Upgrade: HTTP %d, want %d", resp.StatusCode, http.StatusUpgradeRequired)
	}

	if _, err := call(context.Background(), newTestMux(t, "127.0.0.1:1"), "x"); err == nil {
		t.Fatal("call to an address that is not a URL succeeded")
	}
}

// TestStreamOversizeCallLeavesConnectionAlive refuses a payload over the cap
// before anything is written, so the calls sharing the connection are not hurt.
func TestStreamOversizeCallLeavesConnectionAlive(t *testing.T) {
	peer := newStreamPeer(t, gates{}.handle)
	m := newTestMux(t, peer.url)
	if _, err := call(context.Background(), m, "first"); err != nil {
		t.Fatal(err)
	}
	if _, err := call(context.Background(), m, strings.Repeat("x", MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize call: %v, want ErrFrameTooLarge", err)
	}
	if reply, err := call(context.Background(), m, "after"); err != nil || reply != "re:after" {
		t.Fatalf("call after the refused one: %q, %v", reply, err)
	}
	if n := peer.connections(); n != 1 {
		t.Fatalf("%d connections, want 1", n)
	}
}

func TestMuxClosed(t *testing.T) {
	g := gates{"held": make(chan struct{})}
	defer close(g["held"])
	m := newTestMux(t, newStreamPeer(t, g.handle).url)
	pending := make(chan error, 1)
	go func() {
		_, err := call(context.Background(), m, "held")
		pending <- err
	}()
	for m.Stats().Frames == 0 {
		time.Sleep(time.Millisecond)
	}
	m.Close()
	if err := <-pending; !errors.Is(err, ErrMuxClosed) {
		t.Fatalf("call pending at Close: %v, want ErrMuxClosed", err)
	}
	if _, err := call(context.Background(), m, "x"); !errors.Is(err, ErrMuxClosed) {
		t.Fatalf("call after Close: %v, want ErrMuxClosed", err)
	}
}
