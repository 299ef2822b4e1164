package cluster

import (
	"context"
	"errors"
	"testing"

	"pstore/internal/store"
)

// TestSubmitIDContext checks the wire front end's entry point on an engine
// under a running loop: a live context executes normally, and a context
// already expired at submission is refused with the typed errors the server
// maps to 429/504.
func TestSubmitIDContext(t *testing.T) {
	n := openNode(t, testEngineConfig(), nil, nil)
	c, err := NewRemote(Config{Squall: testSquallConfig()}, local(n))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	id, ok := n.Engine.Handle("noop")
	if !ok {
		t.Fatal("noop not registered")
	}
	if _, err := n.Engine.ExecuteIDContext(context.Background(), id, "key-1", nil); err != nil {
		t.Fatalf("live context: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = n.Engine.ExecuteIDContext(ctx, id, "key-1", nil)
	if err == nil {
		t.Fatal("expired context: expected an error")
	}
	if !errors.Is(err, store.ErrOverload) && !errors.Is(err, store.ErrDeadlineExceeded) && !errors.Is(err, ctx.Err()) {
		t.Fatalf("expired context: error %v is not a typed refusal", err)
	}
}
