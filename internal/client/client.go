// Package client is the Go client library for the P-Store network front
// end (internal/server). It sends every transaction over one persistent
// multiplexed stream (wire.Mux), caps in-flight requests client-side
// (arrivals beyond the cap are shed and counted, the same admission role the
// b2w driver's semaphore plays in-process), propagates per-request deadlines
// in the frames, honors the server's machine-readable retry hints on
// 429/503, and maps wire error
// codes back onto the engine's typed errors — so errors.Is(err,
// store.ErrOverload) behaves identically whether the engine is a function
// call or a socket away.
package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"pstore/internal/metrics"
	"pstore/internal/store"
	"pstore/internal/wire"
)

// ErrSaturated is returned when the client's in-flight cap is reached: the
// request was shed client-side without touching the network. It wraps
// store.ErrOverload so callers' refusal accounting treats local and remote
// backpressure uniformly.
var ErrSaturated = fmt.Errorf("client: in-flight cap reached: %w", store.ErrOverload)

// RemoteError is a failure the server executed and reported: the procedure
// ran and returned an application error, or the request itself was invalid.
// Transport failures are never RemoteErrors.
type RemoteError struct {
	// Code is the stable wire error code.
	Code string
	// Status is the HTTP status the failure traveled under.
	Status int
	// Message is the server's error text.
	Message string
	// RetryAfter is the server's backoff hint (zero when none was given).
	RetryAfter time.Duration
}

// Error formats the remote failure.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("client: remote %s (HTTP %d): %s", e.Code, e.Status, e.Message)
}

// Unwrap exposes the typed store sentinel the code stands for, so
// errors.Is against store.ErrOverload / ErrDeadlineExceeded /
// ErrPartitionDown / ErrUnknownTxn works across the wire.
func (e *RemoteError) Unwrap() error { return wire.SentinelOf(e.Code) }

// Config assembles a Client.
type Config struct {
	// Addr is the server address: "host:port" or a full "http://..." base
	// URL. Required.
	Addr string
	// MaxInFlight caps concurrent requests; submissions beyond it are shed
	// with ErrSaturated. Zero means 256.
	MaxInFlight int
	// Deadline is the per-request deadline, sent to the server in the
	// request frame and enforced locally via context. Zero sends none and
	// imposes no local bound.
	Deadline time.Duration
	// RetryRefused is how many times a refused request (429, or 503 with a
	// hint) is retried after honoring the server's retry hint. Zero means
	// refusals surface immediately.
	RetryRefused int
	// MaxRetryWait caps one retry's backoff regardless of the hint. Zero
	// means time.Second.
	MaxRetryWait time.Duration
	// Recorder, when set, receives client-observed latencies (Record per
	// completed request) and client-side sheds (CountClientShed), feeding
	// the same metrics plane the in-process driver uses.
	Recorder *metrics.Recorder
}

// Counters are the client's cumulative counts.
type Counters struct {
	// Started counts requests that passed the in-flight cap; Completed
	// counts those that returned success.
	Started   int64
	Completed int64
	// Refused counts requests that ended refused (429/503/504) after any
	// retries; Retried counts individual retry attempts made on hints.
	Refused int64
	Retried int64
	// Shed counts submissions dropped at the in-flight cap.
	Shed int64
	// TransportErrors counts network- or protocol-level failures — requests
	// whose outcome is unknown because no well-formed wire response
	// arrived. Application errors (CodeTxn) are not transport errors.
	TransportErrors int64
}

// Client talks to one server. Safe for concurrent use.
type Client struct {
	cfg     Config
	baseURL string
	// stream carries the transactions; httpc only the catalog, info, health
	// and shutdown calls.
	stream *wire.Mux
	httpc  *http.Client
	sem    chan struct{}

	started   atomic.Int64
	completed atomic.Int64
	refused   atomic.Int64
	retried   atomic.Int64
	shed      atomic.Int64
	transport atomic.Int64
}

// New builds a client. Nothing is dialled until the first call.
func New(cfg Config) (*Client, error) {
	if cfg.Addr == "" {
		return nil, errors.New("client: Config.Addr is required")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.MaxRetryWait <= 0 {
		cfg.MaxRetryWait = time.Second
	}
	base := cfg.Addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	return &Client{
		cfg:     cfg,
		baseURL: base,
		stream:  wire.NewMux(func() string { return base }),
		httpc:   &http.Client{Transport: &http.Transport{}},
		sem:     make(chan struct{}, cfg.MaxInFlight),
	}, nil
}

// Close closes the stream, failing calls still pending on it, and releases
// pooled connections.
func (c *Client) Close() {
	c.stream.Close()
	c.httpc.CloseIdleConnections()
}

// Counters snapshots the client's counters.
func (c *Client) Counters() Counters {
	return Counters{
		Started:         c.started.Load(),
		Completed:       c.completed.Load(),
		Refused:         c.refused.Load(),
		Retried:         c.retried.Load(),
		Shed:            c.shed.Load(),
		TransportErrors: c.transport.Load(),
	}
}

// Execute runs one transaction and returns its raw JSON result. Errors map
// onto the engine's typed errors where a wire code corresponds to one;
// application errors surface as *RemoteError.
func (c *Client) Execute(ctx context.Context, txn, key string, args any) (json.RawMessage, error) {
	select {
	case c.sem <- struct{}{}:
	default:
		c.shed.Add(1)
		if c.cfg.Recorder != nil {
			c.cfg.Recorder.CountClientShed()
		}
		return nil, ErrSaturated
	}
	defer func() { <-c.sem }()
	c.started.Add(1)

	var rawArgs json.RawMessage
	if args != nil {
		b, err := json.Marshal(args)
		if err != nil {
			return nil, fmt.Errorf("client: encoding %q args: %w", txn, err)
		}
		rawArgs = b
	}
	body, err := json.Marshal(wire.Request{Txn: txn, Key: key, Args: rawArgs})
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}

	if c.cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.Deadline)
		defer cancel()
	}
	start := time.Now()
	for attempt := 0; ; attempt++ {
		resp, err := c.roundTrip(ctx, body)
		if err != nil {
			return nil, err
		}
		if resp.Status == 200 {
			c.completed.Add(1)
			if c.cfg.Recorder != nil {
				c.cfg.Recorder.Record(time.Now(), time.Since(start))
			}
			return resp.Value, nil
		}
		remote := &RemoteError{
			Code:       resp.Code,
			Status:     resp.Status,
			Message:    resp.Error,
			RetryAfter: time.Duration(resp.RetryAfterMs) * time.Millisecond,
		}
		if !c.retryable(remote) || attempt >= c.cfg.RetryRefused {
			if remote.Status == 429 || remote.Status == 503 || remote.Status == 504 {
				c.refused.Add(1)
			}
			return nil, remote
		}
		c.retried.Add(1)
		if err := c.backoff(ctx, remote.RetryAfter); err != nil {
			c.refused.Add(1)
			return nil, remote
		}
	}
}

// retryable reports whether a failure is worth resubmitting: refused work
// (429) and down partitions (503), both of which the server stamps with a
// hint. Deadline expiries are not retried — the budget is already spent.
func (c *Client) retryable(e *RemoteError) bool {
	return e.Status == 429 || e.Status == 503
}

// backoff sleeps for the server's hint, capped by MaxRetryWait, honoring
// ctx.
func (c *Client) backoff(ctx context.Context, hint time.Duration) error {
	if hint <= 0 {
		hint = 10 * time.Millisecond
	}
	if hint > c.cfg.MaxRetryWait {
		hint = c.cfg.MaxRetryWait
	}
	t := time.NewTimer(hint)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// roundTrip sends one request frame and decodes the reply. Failures before a
// well-formed response are transport errors.
func (c *Client) roundTrip(ctx context.Context, body []byte) (*wire.Response, error) {
	replies, err := c.stream.Do(ctx, []wire.StreamFrame{{Payload: body}})
	if err != nil {
		// The wire deadline elapsing locally is a deadline outcome, not a
		// broken transport.
		if ctx.Err() != nil {
			c.refused.Add(1)
			return nil, fmt.Errorf("client: request deadline: %w: %w", store.ErrDeadlineExceeded, ctx.Err())
		}
		c.transport.Add(1)
		return nil, fmt.Errorf("client: transport: %w", err)
	}
	var resp wire.Response
	if err := json.Unmarshal(replies[0], &resp); err != nil {
		c.transport.Add(1)
		return nil, fmt.Errorf("client: decoding response: %w", err)
	}
	return &resp, nil
}

// ExecuteBatch sends requests as frames in one write and returns one response
// per request, in order; the server runs them concurrently and they share
// ctx's deadline. The batch passes the in-flight cap as a single unit.
// Transport failures return an error; per-request failures are reported in
// each Response.
func (c *Client) ExecuteBatch(ctx context.Context, reqs []wire.Request) ([]wire.Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	select {
	case c.sem <- struct{}{}:
	default:
		c.shed.Add(1)
		if c.cfg.Recorder != nil {
			c.cfg.Recorder.CountClientShed()
		}
		return nil, ErrSaturated
	}
	defer func() { <-c.sem }()
	c.started.Add(int64(len(reqs)))

	if c.cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.Deadline)
		defer cancel()
	}
	frames := make([]wire.StreamFrame, len(reqs))
	for i := range reqs {
		body, err := json.Marshal(reqs[i])
		if err != nil {
			return nil, fmt.Errorf("client: encoding batch frame %d: %w", i, err)
		}
		frames[i] = wire.StreamFrame{Payload: body}
	}
	start := time.Now()
	replies, err := c.stream.Do(ctx, frames)
	if err != nil {
		c.transport.Add(1)
		return nil, fmt.Errorf("client: batch transport: %w", err)
	}
	resps := make([]wire.Response, len(replies))
	for i := range replies {
		if err := json.Unmarshal(replies[i], &resps[i]); err != nil {
			c.transport.Add(1)
			return nil, fmt.Errorf("client: decoding batch frame %d: %w", i, err)
		}
		if resps[i].Status == 200 {
			c.completed.Add(1)
		} else if resps[i].Status == 429 || resps[i].Status == 503 || resps[i].Status == 504 {
			c.refused.Add(1)
		}
	}
	if c.cfg.Recorder != nil {
		c.cfg.Recorder.Record(time.Now(), time.Since(start))
	}
	return resps, nil
}

// Txns fetches the server's transaction catalog, in dense-id order.
func (c *Client) Txns(ctx context.Context) ([]string, error) {
	var out struct {
		Txns []string `json:"txns"`
	}
	if err := c.getJSON(ctx, wire.PathTxns, &out); err != nil {
		return nil, err
	}
	return out.Txns, nil
}

// Info fetches the server's info payload into v.
func (c *Client) Info(ctx context.Context, v any) error {
	return c.getJSON(ctx, wire.PathInfo, v)
}

// Health reports whether the server answers its health endpoint.
func (c *Client) Health(ctx context.Context) error {
	var out struct {
		OK bool `json:"ok"`
	}
	if err := c.getJSON(ctx, wire.PathHealth, &out); err != nil {
		return err
	}
	if !out.OK {
		return errors.New("client: server reports not ok")
	}
	return nil
}

// Shutdown asks the serving process to stop once in-flight work drains.
func (c *Client) Shutdown(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+wire.PathShutdown, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return fmt.Errorf("client: shutdown: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: shutdown rejected with HTTP %d", resp.StatusCode)
	}
	return nil
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return fmt.Errorf("client: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, wire.MaxFrame)).Decode(v)
}
