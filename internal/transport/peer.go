package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"pstore/internal/wal"
	"pstore/internal/wire"
)

// Peer is the client half of the node RPC vocabulary: one per node process,
// holding a pooled HTTP client. All methods are safe for concurrent use.
type Peer struct {
	base string
	hc   *http.Client
}

// NewPeer builds a client for a node at addr ("host:port" or a full
// http:// URL).
func NewPeer(addr string) *Peer {
	base := addr
	if len(base) < 7 || base[:7] != "http://" {
		base = "http://" + base
	}
	return &Peer{
		base: base,
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 30 * time.Second},
		},
	}
}

// Addr returns the peer's base URL.
func (p *Peer) Addr() string { return p.base }

// peerError converts a non-200 node reply into an error that wraps the
// store sentinel its wire code stands for, so errors.Is works across the
// process boundary exactly as it does in-process.
func peerError(status int, body []byte) error {
	var resp wire.Response
	if err := json.Unmarshal(body, &resp); err != nil || resp.Code == "" {
		return fmt.Errorf("transport: node replied %d: %s", status, bytes.TrimSpace(body))
	}
	if sent := wire.SentinelOf(resp.Code); sent != nil {
		return fmt.Errorf("transport: %s: %w", resp.Error, sent)
	}
	return fmt.Errorf("transport: node replied %s: %s", resp.Code, resp.Error)
}

// do posts in (JSON; nil for GET) to path and returns the raw 200 body.
func (p *Peer) do(ctx context.Context, method, path string, in any) ([]byte, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, p.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, peerError(resp.StatusCode, out)
	}
	return out, nil
}

func (p *Peer) postJSON(ctx context.Context, path string, in, out any) error {
	body, err := p.do(ctx, http.MethodPost, path, in)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// Status fetches the node's self-description.
func (p *Peer) Status(ctx context.Context) (wire.NodeStatus, error) {
	var st wire.NodeStatus
	body, err := p.do(ctx, http.MethodGet, wire.PathNodeStatus, nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// WaitHealthy polls Status until the node answers or the deadline passes.
func (p *Peer) WaitHealthy(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		attempt, cancel := context.WithTimeout(ctx, time.Second)
		_, err := p.Status(attempt)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: node %s not healthy after %v: %w", p.base, timeout, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// Move executes a same-node MoveBuckets on the peer.
func (p *Peer) Move(ctx context.Context, req wire.NodeMove) (int, error) {
	var out wire.NodeRows
	if err := p.postJSON(ctx, wire.PathNodeMove, req, &out); err != nil {
		return 0, err
	}
	return out.Rows, nil
}

// Extract pulls a chunk out of the peer's source partition and returns it
// with the row count its frame headers declare; its payloads are relayed, not
// decoded. The peer flips its local ownership as part of the extract.
func (p *Peer) Extract(ctx context.Context, req wire.NodeMove) (chunk []byte, rows int, err error) {
	chunk, err = p.do(ctx, http.MethodPost, wire.PathNodeExtract, req)
	if err != nil {
		return nil, 0, err
	}
	frames, _, err := wal.DecodeImageSet(chunk)
	if err != nil {
		return nil, 0, fmt.Errorf("transport: extracted chunk: %w", err)
	}
	for _, f := range frames {
		rows += f.Rows
	}
	return chunk, rows, nil
}

// Install delivers a chunk into the peer's destination partition; the peer
// flips its local ownership after the install lands.
func (p *Peer) Install(ctx context.Context, req wire.NodeMove, chunk []byte) (int, error) {
	var buf bytes.Buffer
	if err := wire.EncodeFrame(&buf, req); err != nil {
		return 0, err
	}
	buf.Write(chunk)
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+wire.PathNodeInstall, bytes.NewReader(buf.Bytes()))
	if err != nil {
		return 0, err
	}
	httpReq.Header.Set("Content-Type", wire.ContentTypeChunk)
	resp, err := p.hc.Do(httpReq)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, peerError(resp.StatusCode, body)
	}
	var out wire.NodeRows
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, err
	}
	return out.Rows, nil
}

// Flip applies an ownership reassignment with no data movement.
func (p *Peer) Flip(ctx context.Context, buckets []int, owner int) error {
	return p.postJSON(ctx, wire.PathNodeFlip, wire.NodeFlip{Buckets: buckets, Owner: owner}, nil)
}

// Crash fences a machine hosted by the peer.
func (p *Peer) Crash(ctx context.Context, machine int) error {
	return p.postJSON(ctx, wire.PathNodeCrash, wire.NodeMachine{Machine: machine}, nil)
}

// Restore rebuilds a crashed machine from the peer's node-local checkpoint
// and command log.
func (p *Peer) Restore(ctx context.Context, machine int) (wire.NodeRestoreResult, error) {
	var out wire.NodeRestoreResult
	err := p.postJSON(ctx, wire.PathNodeRestore, wire.NodeMachine{Machine: machine}, &out)
	return out, err
}

// Checkpoint installs a fresh recovery baseline on every live partition the
// peer hosts, returning the bucket images installed.
func (p *Peer) Checkpoint(ctx context.Context) (int, error) {
	var out wire.NodeRows
	if err := p.postJSON(ctx, wire.PathNodeCheckpoint, struct{}{}, &out); err != nil {
		return 0, err
	}
	return out.Rows, nil
}

// SetActive sets the peer's active machine count.
func (p *Peer) SetActive(ctx context.Context, n int) error {
	return p.postJSON(ctx, wire.PathNodeMachines, wire.NodeActive{Active: n}, nil)
}

// Shutdown asks the node process to exit via the serve shutdown handshake.
func (p *Peer) Shutdown(ctx context.Context) error {
	_, err := p.do(ctx, http.MethodPost, wire.PathShutdown, nil)
	return err
}
