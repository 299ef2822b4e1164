package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestApplyBackpressureWaiterEndsWithRequest: a ship handler held back by a
// full apply queue waits only as long as its sender does. When the request's
// context ends the waiter gives its turn up and takes no place, so a sender
// that reconnects and retries leaves nothing parked behind it.
func TestApplyBackpressureWaiterEndsWithRequest(t *testing.T) {
	a := newApplier(nil)
	for i := 0; i < ApplyQueueDepth; i++ {
		if err := a.reserve(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	waited := make(chan error, 1)
	go func() { waited <- a.reserve(ctx) }()
	select {
	case err := <-waited:
		t.Fatalf("reserve on a full queue returned %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	if err := <-waited; !errors.Is(err, context.Canceled) {
		t.Fatalf("reserve after its request ended: %v, want context.Canceled", err)
	}
	if a.reserved != ApplyQueueDepth {
		t.Fatalf("%d places reserved after the waiter left, want %d", a.reserved, ApplyQueueDepth)
	}
	// A place given back goes to the next live request.
	a.release()
	if err := a.reserve(context.Background()); err != nil {
		t.Fatal(err)
	}
}
