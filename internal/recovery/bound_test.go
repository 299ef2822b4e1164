package recovery_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pstore/internal/wal"
)

// TestLogBoundOneRoundAtATime: writers on every partition take the log past
// its bound many times over while a round is held, and the bound starts no
// second round until the first has finished.
func TestLogBoundOneRoundAtATime(t *testing.T) {
	const segBytes, writers, writes = 1 << 10, 8, 200
	e, m := newEngine(t, roundLayout(wal.NewMemFS(1), segBytes))
	var started, inFlight, most atomic.Int64
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	t.Cleanup(func() {
		release()
		m.SetRound(nil) // waits for the held round before the engine stops
	})
	m.SetRound(func() {
		started.Add(1)
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for cur := most.Load(); n > cur && !most.CompareAndSwap(cur, n); cur = most.Load() {
		}
		<-hold
		_, _ = m.Checkpoint() // counted, not checked: a failed round is due again
	})
	write := func() {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < writes; i++ {
					if _, err := e.Execute("put", fmt.Sprintf("w%d-%d", w, i%16), i); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}

	write()
	if got := m.WALStats().AppendedBytes; got < 8*segBytes {
		t.Fatalf("%d writes appended %d bytes; the test needs several bounds' worth", writers*writes, got)
	}
	if n := started.Load(); n != 1 {
		t.Fatalf("%d rounds started while the first was held, want 1", n)
	}
	release()
	write()
	m.SetRound(nil)
	if n := started.Load(); n < 2 {
		t.Fatalf("%d rounds started in all; the released bound should have started more", n)
	}
	if n := most.Load(); n != 1 {
		t.Fatalf("%d rounds ran at once, want 1", n)
	}
}
