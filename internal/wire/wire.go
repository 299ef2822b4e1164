// Package wire defines the protocol spoken between the P-Store network
// front end (internal/server) and its Go client library (internal/client):
// the JSON request/response shapes, the multiplexed frame stream that carries
// them between processes (stream.go), the HTTP headers the curl-able /v1/txn
// adapter uses for deadlines and retry hints, the length-prefixed framing
// inside node- and repl-plane bodies, and the stable error codes that map the
// engine's typed errors
// (store.ErrOverload, store.ErrDeadlineExceeded, store.ErrPartitionDown,
// ...) onto the wire and back. Both sides import only this package, so the
// protocol cannot drift between them.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"pstore/internal/store"
	"pstore/internal/wal"
)

// Protocol endpoints. Transactions travel over the stream opened at
// PathStream; the txn endpoint executes one transaction per HTTP request, for
// curl and for anything that has no stream.
const (
	PathTxn      = "/v1/txn"
	PathTxns     = "/v1/txns"
	PathInfo     = "/v1/info"
	PathHealth   = "/v1/healthz"
	PathShutdown = "/v1/shutdown"
)

// HTTP headers of the txn endpoint. Deadlines travel request-to-server as
// milliseconds; retry hints travel server-to-client the same way (Retry-After
// only has one-second resolution, far too coarse for millisecond queue
// estimates). On a stream both travel in the frame.
const (
	HeaderDeadlineMs   = "X-Pstore-Deadline-Ms"
	HeaderRetryAfterMs = "X-Pstore-Retry-After-Ms"
)

// Request is one transaction submission.
type Request struct {
	// Txn is the registered transaction name.
	Txn string `json:"txn"`
	// Key is the routing (partitioning) key.
	Key string `json:"key"`
	// Args carries the procedure's parameters, encoded per-transaction
	// (the server decodes them through its configured codec). Absent or
	// null means no arguments.
	Args json.RawMessage `json:"args,omitempty"`
}

// Response is the outcome of one Request. Exactly one of Value or Code is
// meaningful: a successful execution carries the procedure result in Value;
// a failure carries a stable Code, a human-readable Error, and, when the
// failure is retryable backpressure, a RetryAfterMs hint.
type Response struct {
	// Status is the HTTP status the response would carry standalone; a
	// stream has no other place for it.
	Status int `json:"status"`
	// Value is the JSON-encoded procedure result (null for procedures
	// returning nothing).
	Value json.RawMessage `json:"value,omitempty"`
	// Code is the stable machine-readable error code ("" on success).
	Code string `json:"code,omitempty"`
	// Error is the human-readable error message ("" on success).
	Error string `json:"error,omitempty"`
	// RetryAfterMs is the server's backoff hint for retryable refusals
	// (overload, partition down): how long the client should wait before
	// resubmitting. Zero means no hint.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// Error codes. CodeOf maps engine errors onto them; SentinelOf maps them
// back to the typed store errors so a remote client's errors.Is checks
// behave exactly like an in-process caller's.
const (
	// CodeOverload: refused by admission control or a full queue (HTTP 429).
	CodeOverload = "overload"
	// CodeDeadline: expired in a partition queue, or the request's wire
	// deadline elapsed before completion (HTTP 504).
	CodeDeadline = "deadline_exceeded"
	// CodePartitionDown: the owning partition's machine is crashed and not
	// yet recovered, or it executed the transaction but could not make its
	// log record durable (store.ErrCommitFailed) — either way the partition
	// could not commit the work and the client may retry (HTTP 503).
	CodePartitionDown = "partition_down"
	// CodeUnknownTxn: the transaction name is not registered (HTTP 400).
	CodeUnknownTxn = "unknown_txn"
	// CodeStopped: the engine is shut down (HTTP 503).
	CodeStopped = "stopped"
	// CodeBadRequest: the request body or arguments did not parse, or its
	// command record is too large for the log (HTTP 400).
	CodeBadRequest = "bad_request"
	// CodeTxn: the procedure executed and returned an application error —
	// a business outcome, not a transport failure (HTTP 422).
	CodeTxn = "txn_error"
	// CodeNotOwned: the partition targeted is not hosted on this node —
	// transient during an ownership flip, so HTTP 503 with a retry hint; a
	// node front end with peers forwards instead of refusing.
	CodeNotOwned = "not_owned"
	// CodeInternal: any other engine error (HTTP 500).
	CodeInternal = "internal"
)

// CodeOf returns the wire code for an engine error, or "" for nil.
func CodeOf(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, store.ErrOverload):
		return CodeOverload
	case errors.Is(err, store.ErrDeadlineExceeded):
		return CodeDeadline
	case errors.Is(err, wal.ErrRecordRefused):
		// Too large for the log however often it is sent: the request's fault.
		return CodeBadRequest
	case errors.Is(err, store.ErrPartitionDown), errors.Is(err, store.ErrCommitFailed):
		return CodePartitionDown
	case errors.Is(err, store.ErrUnknownTxn):
		return CodeUnknownTxn
	case errors.Is(err, store.ErrStopped):
		return CodeStopped
	case errors.Is(err, store.ErrNotOwned):
		return CodeNotOwned
	case errors.Is(err, ErrFenced):
		return CodeFenced
	default:
		return CodeTxn
	}
}

// StatusOf returns the HTTP status a wire code travels under.
func StatusOf(code string) int {
	switch code {
	case "":
		return 200
	case CodeOverload:
		return 429
	case CodeDeadline:
		return 504
	case CodePartitionDown, CodeStopped, CodeNotOwned:
		return 503
	case CodeUnknownTxn, CodeBadRequest:
		return 400
	case CodeTxn:
		return 422
	case CodeFenced:
		return 409
	default:
		return 500
	}
}

// SentinelOf returns the typed store error a wire code stands for, or nil
// for codes with no engine-level sentinel (txn_error, bad_request,
// internal). Client-side errors wrap the sentinel so errors.Is against the
// store errors works identically in-process and over the wire.
func SentinelOf(code string) error {
	switch code {
	case CodeOverload:
		return store.ErrOverload
	case CodeDeadline:
		return store.ErrDeadlineExceeded
	case CodePartitionDown:
		return store.ErrPartitionDown
	case CodeUnknownTxn:
		return store.ErrUnknownTxn
	case CodeStopped:
		return store.ErrStopped
	case CodeNotOwned:
		return store.ErrNotOwned
	case CodeFenced:
		return ErrFenced
	default:
		return nil
	}
}

// MaxFrame bounds one frame's payload. Generous for any transaction
// this engine serves, small enough that a corrupt length prefix cannot ask
// the reader to allocate gigabytes.
const MaxFrame = 1 << 20

// ErrFrameTooLarge is returned for frames whose length prefix exceeds
// MaxFrame.
var ErrFrameTooLarge = fmt.Errorf("wire: frame exceeds %d bytes", MaxFrame)

// WriteFrame writes one length-prefixed frame: a 4-byte big-endian payload
// length followed by the payload.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame. A clean EOF before any header
// byte returns io.EOF; a truncated header or payload returns
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	return payload, nil
}

// EncodeFrame marshals v and writes it as one frame.
func EncodeFrame(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return WriteFrame(w, payload)
}

// DecodeFrame reads one frame and unmarshals it into v.
func DecodeFrame(r io.Reader, v any) error {
	payload, err := ReadFrame(r)
	if err != nil {
		return err
	}
	return json.Unmarshal(payload, v)
}
