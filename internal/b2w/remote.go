package b2w

import (
	"context"
	"fmt"

	"pstore/internal/client"
	"pstore/internal/store"
)

// RemoteExecutor submits the driver's transactions through the network
// front end instead of a local engine: the same driver binary becomes a
// separate-process load generator hammering a real socket. The server's
// backpressure arrives as typed errors (the client maps 429/504/503 back to
// store.ErrOverload / ErrDeadlineExceeded / ErrPartitionDown), so the
// driver's refused-work accounting is transport-agnostic.
type RemoteExecutor struct {
	c     *client.Client
	names []string
	ids   map[string]store.TxnID
}

// NewRemoteExecutor builds an executor over a connected client. It fetches
// the server's transaction catalog once, so Resolve answers locally with
// the server's own dense handles and an unregistered name fails before the
// trace starts.
func NewRemoteExecutor(ctx context.Context, c *client.Client) (*RemoteExecutor, error) {
	names, err := c.Txns(ctx)
	if err != nil {
		return nil, fmt.Errorf("b2w: fetching remote transaction catalog: %w", err)
	}
	ids := make(map[string]store.TxnID, len(names))
	for i, name := range names {
		ids[name] = store.TxnID(i)
	}
	return &RemoteExecutor{c: c, names: names, ids: ids}, nil
}

// Resolve answers from the server's catalog.
func (r *RemoteExecutor) Resolve(name string) (store.TxnID, bool) {
	id, ok := r.ids[name]
	return id, ok
}

// ExecuteID submits one transaction over the wire. The result is the raw
// JSON value (the driver only inspects errors).
func (r *RemoteExecutor) ExecuteID(id store.TxnID, key string, args any) (any, error) {
	if id < 0 || int(id) >= len(r.names) {
		return nil, store.ErrUnknownTxn
	}
	raw, err := r.c.Execute(context.Background(), r.names[id], key, args)
	if err != nil {
		return nil, err
	}
	return raw, nil
}

// InFlightLimit leaves the bound to the client: its in-flight cap already
// bounds concurrency, and its sheds are counted as refusals, so the
// driver semaphore just needs to be at least as large. 4096 goroutines of
// headroom keeps the client cap the binding constraint.
func (r *RemoteExecutor) InFlightLimit() int { return 4096 }
