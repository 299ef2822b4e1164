package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"
)

// This file is the transaction transport: one persistent connection between
// two processes, carrying request frames one way and reply frames the other,
// each reply matched to its request by id and sent as soon as it is ready.
// The connection starts as an HTTP request for PathStream that both ends turn
// into a raw socket (Upgrade), so it shares the node's listen port. A client
// and a forwarding node call through a Mux; a server answers with ServeStream.

// PathStream is the endpoint a transaction stream is opened on.
const PathStream = "/v1/stream"

// streamProto is the Upgrade token both ends must name.
const streamProto = "pstore-stream/1"

// streamStall bounds the two places one end waits on the other while holding a
// stream's write lock: connect plus handshake, and a single write. A peer that
// accepts and says nothing, or stops reading, loses the stream after this long
// instead of holding the lock, and every caller behind it, forever.
const streamStall = 5 * time.Second

// maxStreamHandlers caps the requests one accepted stream executes at once; the
// stream's reader stops reading while that many are running.
const maxStreamHandlers = 1024

// StreamFrame is one frame of a transaction stream. A request frame carries an
// encoded Request and, in its header, what the /v1/txn adapter takes from HTTP
// headers; a reply frame carries an encoded Response under the request's ID
// and leaves the other fields zero.
type StreamFrame struct {
	// ID matches a reply to its request. The calling end picks it; the
	// answering end only echoes it.
	ID uint64
	// DeadlineMs is the budget the request has left, relative so the two
	// clocks need not agree. Zero means none. Mux.Do sets it from its context.
	DeadlineMs uint32
	// Hops is how many nodes have relayed the request (0 from a client).
	Hops uint8
	// Payload is the encoded Request or Response, at most MaxFrame bytes.
	Payload []byte
}

// streamHeader is what a frame carries between its length prefix and its
// payload: id (8), deadline (4), hops (1).
const streamHeader = 13

// errShortStreamFrame is returned for a length prefix smaller than the header.
var errShortStreamFrame = errors.New("wire: stream frame shorter than its header")

// AppendStreamFrame appends f's encoding to dst: a 4-byte big-endian length of
// everything that follows, the header, the payload.
func AppendStreamFrame(dst []byte, f StreamFrame) ([]byte, error) {
	if len(f.Payload) > MaxFrame {
		return dst, ErrFrameTooLarge
	}
	dst = slices.Grow(dst, 4+streamHeader+len(f.Payload))
	dst = binary.BigEndian.AppendUint32(dst, uint32(streamHeader+len(f.Payload)))
	dst = binary.BigEndian.AppendUint64(dst, f.ID)
	dst = binary.BigEndian.AppendUint32(dst, f.DeadlineMs)
	dst = append(dst, f.Hops)
	return append(dst, f.Payload...), nil
}

// ReadStreamFrame reads one frame. A clean EOF before any byte returns io.EOF;
// a frame cut short returns io.ErrUnexpectedEOF; a length prefix outside
// [header, header+MaxFrame] is refused before anything is allocated for it.
func ReadStreamFrame(r io.Reader) (StreamFrame, error) {
	var hdr [4 + streamHeader]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		if errors.Is(err, io.EOF) {
			return StreamFrame{}, io.EOF
		}
		return StreamFrame{}, io.ErrUnexpectedEOF
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < streamHeader {
		return StreamFrame{}, errShortStreamFrame
	}
	if n > streamHeader+MaxFrame {
		return StreamFrame{}, ErrFrameTooLarge
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return StreamFrame{}, io.ErrUnexpectedEOF
	}
	f := StreamFrame{
		ID:         binary.BigEndian.Uint64(hdr[4:]),
		DeadlineMs: binary.BigEndian.Uint32(hdr[12:]),
		Hops:       hdr[16],
		Payload:    make([]byte, n-streamHeader),
	}
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		return StreamFrame{}, io.ErrUnexpectedEOF
	}
	return f, nil
}

// budgetMs is the DeadlineMs a request frame sent under ctx carries: what is
// left of ctx's deadline, at least 1, or 0 when it has none.
func budgetMs(ctx context.Context) uint32 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(dl).Milliseconds()
	return uint32(max(1, min(ms, 1<<32-1)))
}

// AcceptStream is the answering end of the handshake: it checks that r asks
// for the stream protocol, takes the connection away from the HTTP server and
// confirms with 101. The connection comes back with the server's header and
// idle timeouts cleared — a stream is idle whenever its caller is. On failure
// the HTTP error has been written.
func AcceptStream(w http.ResponseWriter, r *http.Request) (net.Conn, *bufio.Reader, error) {
	hj, ok := w.(http.Hijacker)
	if !ok || !strings.EqualFold(r.Header.Get("Upgrade"), streamProto) {
		http.Error(w, "wire: "+PathStream+" speaks only Upgrade: "+streamProto, http.StatusUpgradeRequired)
		return nil, nil, errors.New("wire: not a stream upgrade")
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil, nil, err
	}
	_, _ = rw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + streamProto + "\r\n\r\n")
	if err = rw.Flush(); err == nil {
		err = conn.SetDeadline(time.Time{})
	}
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, rw.Reader, nil
}

// dialStream is the calling end of the handshake. A peer that answers anything
// but 101 for this protocol is an error: there is no other transport to fall
// back to.
func dialStream(ctx context.Context, base string) (net.Conn, *bufio.Reader, error) {
	u, err := url.Parse(base)
	if err != nil || u.Scheme != "http" || u.Host == "" {
		return nil, nil, fmt.Errorf("wire: stream address %q is not an http://host:port URL", base)
	}
	ctx, cancel := context.WithTimeout(ctx, streamStall)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", u.Host)
	if err != nil {
		return nil, nil, err
	}
	dl, _ := ctx.Deadline()
	_ = conn.SetDeadline(dl)
	br := bufio.NewReader(conn)
	_, err = fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", PathStream, u.Host, streamProto)
	if err == nil {
		var resp *http.Response
		if resp, err = http.ReadResponse(br, nil); err == nil &&
			(resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), streamProto)) {
			err = fmt.Errorf("wire: %s refused the stream upgrade (HTTP %d)", base, resp.StatusCode)
		}
	}
	if err == nil {
		err = conn.SetDeadline(time.Time{})
	}
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, br, nil
}

// ServeStream answers one accepted stream until it ends: every request frame
// runs handle on its own goroutine, at most maxStreamHandlers of them at once,
// and its result goes back under the request's id the moment it is ready, so
// replies leave in completion order. A caller that stops reading its replies
// for streamStall loses the stream. The context handle receives ends with the
// stream. ServeStream returns once the connection is closed and every handler
// has finished; a clean close by the caller returns nil.
func ServeStream(ctx context.Context, conn net.Conn, br *bufio.Reader, handle func(context.Context, StreamFrame) []byte) error {
	ctx, cancel := context.WithCancel(ctx)
	var (
		wmu      sync.Mutex
		handlers sync.WaitGroup
		running  = make(chan struct{}, maxStreamHandlers)
	)
	defer func() {
		cancel()
		conn.Close()
		handlers.Wait()
	}()
	for {
		f, err := ReadStreamFrame(br)
		if err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		running <- struct{}{}
		handlers.Add(1)
		go func() {
			defer func() { <-running; handlers.Done() }()
			reply, err := AppendStreamFrame(nil, StreamFrame{ID: f.ID, Payload: handle(ctx, f)})
			if err == nil {
				wmu.Lock()
				_ = conn.SetWriteDeadline(time.Now().Add(streamStall))
				_, err = conn.Write(reply)
				wmu.Unlock()
			}
			if err != nil {
				// A reply that cannot be framed or written in full would leave its
				// caller waiting; ending the stream fails the call instead.
				conn.Close()
			}
		}()
	}
}

// ErrMuxClosed is returned by calls on a closed Mux.
var ErrMuxClosed = errors.New("wire: stream closed")

// MuxStats counts what one Mux has done.
type MuxStats struct {
	// Dials counts connections opened; Redials those after the first.
	Dials   int64 `json:"dials"`
	Redials int64 `json:"redials"`
	// Frames counts request frames sent.
	Frames int64 `json:"frames"`
	// MaxInFlight is the most requests that were awaiting replies at once.
	MaxInFlight int `json:"max_in_flight"`
}

// Mux is the calling end of a transaction stream to one address: any number
// of goroutines call through one connection. The connection is dialled by the
// first call that needs it and again by the first call after it died, never
// in the background. Safe for concurrent use.
type Mux struct {
	addr func() string

	// mu guards everything below, and dialling and writing happen under it: a
	// call's frames leave in one Write, so nothing is ever buffered that a
	// timer would have to flush.
	mu      sync.Mutex
	conn    net.Conn // nil: not connected
	url     string   // what conn is connected to
	nextID  uint64
	pending map[uint64]slot
	closed  bool
	stats   MuxStats

	readers sync.WaitGroup
}

// slot is where one awaited reply goes: reply i of a Do.
type slot struct {
	w *waiter
	i int
}

// waiter collects the replies of one Do.
type waiter struct {
	replies [][]byte
	left    int
	done    chan error // buffered 1: nil after the last reply, or why the stream died
}

// NewMux builds a Mux over the base URL addr returns ("http://host:port").
// addr is asked on every call; when its answer changes, the connection to the
// old address is closed — failing what was pending on it — and the call dials
// the new one.
func NewMux(addr func() string) *Mux {
	return &Mux{addr: addr, pending: make(map[uint64]slot)}
}

// Do sends frames in one write and waits for the reply to each, returned in
// the frames' order; it fills in the IDs and, from ctx, the deadlines. A stream
// that dies fails every call pending on it at once. When ctx ends first —
// before the write or after it — Do gives up on its own replies only: the
// connection and the other calls on it carry on.
func (m *Mux) Do(ctx context.Context, frames []StreamFrame) ([][]byte, error) {
	if len(frames) == 0 {
		return nil, nil
	}
	w := &waiter{replies: make([][]byte, len(frames)), left: len(frames), done: make(chan error, 1)}
	m.mu.Lock()
	err := m.send(ctx, frames, w)
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	select {
	case err := <-w.done:
		if err != nil {
			return nil, err
		}
		return w.replies, nil
	case <-ctx.Done():
		m.mu.Lock()
		m.forget(frames)
		m.mu.Unlock()
		return nil, ctx.Err()
	}
}

// send connects if need be, registers frames under fresh ids and writes them.
// A caller whose ctx ended while it queued for the lock leaves without touching
// the connection, and the write is bounded by streamStall, not by ctx: the
// connection belongs to every caller, so one caller's deadline must not be what
// breaks it.
func (m *Mux) send(ctx context.Context, frames []StreamFrame, w *waiter) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var buf []byte
	for i := range frames {
		frames[i].ID, frames[i].DeadlineMs = m.nextID+uint64(i), budgetMs(ctx)
		var err error
		if buf, err = AppendStreamFrame(buf, frames[i]); err != nil {
			return err
		}
	}
	if err := m.connect(ctx); err != nil {
		return err
	}
	m.nextID += uint64(len(frames))
	for i := range frames {
		m.pending[frames[i].ID] = slot{w, i}
	}
	m.stats.Frames += int64(len(frames))
	m.stats.MaxInFlight = max(m.stats.MaxInFlight, len(m.pending))
	_ = m.conn.SetWriteDeadline(time.Now().Add(streamStall))
	if _, err := m.conn.Write(buf); err != nil {
		// Part of a frame may have left; the stream cannot be used again.
		m.forget(frames)
		err = fmt.Errorf("wire: stream to %s: %w", m.url, err)
		m.drop(m.conn, err)
		return err
	}
	return nil
}

// connect leaves m.conn connected to the current address, dialling if there is
// no connection or the address moved.
func (m *Mux) connect(ctx context.Context) error {
	if m.closed {
		return ErrMuxClosed
	}
	url := m.addr()
	if m.conn != nil && m.url == url {
		return nil
	}
	if m.conn != nil {
		m.drop(m.conn, fmt.Errorf("wire: stream to %s closed: peer is now at %s", m.url, url))
	}
	conn, br, err := dialStream(ctx, url)
	if err != nil {
		return fmt.Errorf("wire: opening stream to %s: %w", url, err)
	}
	m.conn, m.url = conn, url
	if m.stats.Dials++; m.stats.Dials > 1 {
		m.stats.Redials++
	}
	m.readers.Add(1)
	go m.read(conn, br)
	return nil
}

// read delivers replies until the connection ends.
func (m *Mux) read(conn net.Conn, br *bufio.Reader) {
	defer m.readers.Done()
	for {
		f, err := ReadStreamFrame(br)
		m.mu.Lock()
		if err != nil {
			m.drop(conn, fmt.Errorf("wire: stream to %s: %w", conn.RemoteAddr(), err))
			m.mu.Unlock()
			return
		}
		if s, ok := m.pending[f.ID]; ok { // absent: its caller gave up
			delete(m.pending, f.ID)
			s.w.replies[s.i] = f.Payload
			if s.w.left--; s.w.left == 0 {
				s.w.done <- nil
			}
		}
		m.mu.Unlock()
	}
}

// drop retires conn, if it is still the current connection, and fails every
// call pending on it with cause. A late report about a connection already
// replaced cannot touch its successor's calls.
func (m *Mux) drop(conn net.Conn, cause error) {
	if m.conn != conn {
		return
	}
	m.conn = nil
	conn.Close()
	for id, s := range m.pending {
		delete(m.pending, id)
		select {
		case s.w.done <- cause:
		default: // a waiter with several frames pending has its error already
		}
	}
}

// forget takes frames' ids out of the pending table.
func (m *Mux) forget(frames []StreamFrame) {
	for i := range frames {
		delete(m.pending, frames[i].ID)
	}
}

// Stats snapshots the counters.
func (m *Mux) Stats() MuxStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Close fails pending calls, closes the connection and waits for the reader
// to exit. Later calls return ErrMuxClosed.
func (m *Mux) Close() {
	m.mu.Lock()
	m.closed = true
	if m.conn != nil {
		m.drop(m.conn, ErrMuxClosed)
	}
	m.mu.Unlock()
	m.readers.Wait()
}
