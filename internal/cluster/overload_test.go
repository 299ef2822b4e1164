package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pstore/internal/elastic"
	"pstore/internal/node/nodetest"
	"pstore/internal/store"
)

// signalRecorder is a do-nothing controller that records every overload
// signal the runtime delivers, so the test can check the delivery contract.
type signalRecorder struct {
	mu   sync.Mutex
	sigs []elastic.OverloadSignal
}

func (s *signalRecorder) Name() string { return "signal-recorder" }

func (s *signalRecorder) Tick(int, bool, float64) (*elastic.Decision, error) { return nil, nil }

func (s *signalRecorder) Overloaded(sig elastic.OverloadSignal) {
	s.mu.Lock()
	s.sigs = append(s.sigs, sig)
	s.mu.Unlock()
}

func (s *signalRecorder) snapshot() []elastic.OverloadSignal {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]elastic.OverloadSignal(nil), s.sigs...)
}

// TestClusterOverloadSignalDelivery drives a deliberately under-provisioned
// cluster past its queue deadline and checks the runtime's side of the
// overload contract: refused work shows up as counter deltas in the signal
// delivered to an OverloadObserver controller every cycle (zero cycles
// included), and cycles with refusals also publish OverloadObserved events
// whose counts sum to the engine's own counters.
func TestClusterOverloadSignalDelivery(t *testing.T) {
	ctrl := &signalRecorder{}
	engCfg := store.Config{
		MaxMachines:          2,
		PartitionsPerMachine: 1,
		Buckets:              16,
		ServiceTime:          time.Millisecond,
		QueueCapacity:        64,
		InitialMachines:      1,
		Deadline:             2 * time.Millisecond,
	}
	n := nodetest.Node(t, noopConfig(engCfg))
	c, err := NewRemote(Config{
		Squall:     testSquallConfig(),
		Controller: ctrl,
		Cycle:      3 * time.Millisecond,
		Recorder:   attachRecorder(t, n),
	}, local(n))
	if err != nil {
		t.Fatal(err)
	}
	events, unsub := c.Subscribe(4096)
	defer unsub()
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// Flood far past 1 machine x 1ms service time: queue sojourn blows the
	// 2ms deadline, so the engine must start refusing work.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i += 7 {
				select {
				case <-stop:
					return
				default:
				}
				_, err := n.Engine.Execute("noop", fmt.Sprintf("key-%d", i), nil)
				if err != nil && !errors.Is(err, store.ErrOverload) && !errors.Is(err, store.ErrDeadlineExceeded) {
					return
				}
			}
		}(w)
	}

	deadline := time.Now().Add(10 * time.Second)
	refusedSeen := false
	for time.Now().Before(deadline) && !refusedSeen {
		for _, sig := range ctrl.snapshot() {
			if sig.Refused() > 0 {
				refusedSeen = true
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if !refusedSeen {
		t.Fatal("no overload signal with refused work reached the controller")
	}

	// Let a few quiet cycles pass so the zero-delivery leg is observable too.
	time.Sleep(20 * time.Millisecond)
	c.Stop()

	sigs := ctrl.snapshot()
	var sigRefused int64
	zeroSeen := false
	for _, sig := range sigs {
		if sig.Refused() == 0 {
			zeroSeen = true
		}
		sigRefused += sig.Refused()
	}
	if !zeroSeen {
		t.Error("observer never saw a zero signal: delivery is not every-cycle")
	}

	// Drain events published so far and cross-check against the counters.
	var evRefused int64
	overloadEvents := 0
drain:
	for {
		select {
		case ev, ok := <-events:
			if !ok { // Stop closed the subscription
				break drain
			}
			if o, ok := ev.(OverloadObserved); ok {
				overloadEvents++
				if o.Rejected+o.DeadlineExceeded == 0 {
					t.Errorf("OverloadObserved with zero counts: %+v", o)
				}
				evRefused += o.Rejected + o.DeadlineExceeded
			}
		default:
			break drain
		}
	}
	if overloadEvents == 0 {
		t.Fatal("no OverloadObserved events published despite refusals")
	}
	cnt := n.Engine.Counters()
	engRefused := cnt.Rejected + cnt.DeadlineExceeded
	if engRefused == 0 {
		t.Fatal("engine counters show no refusals")
	}
	// Signals are per-cycle deltas of the same counters: their sum can only
	// trail the engine total (the final partial cycle is never delivered).
	if sigRefused > engRefused {
		t.Errorf("signals sum to %d refusals, engine counted only %d", sigRefused, engRefused)
	}
	if evRefused > engRefused {
		t.Errorf("events sum to %d refusals, engine counted only %d", evRefused, engRefused)
	}
}
