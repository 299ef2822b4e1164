package store

import (
	"io"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"testing"
	"time"
)

// holdEngine is a one-partition engine whose only registered cost is the
// default service time d.
func holdEngine(t testing.TB, d time.Duration) *Engine {
	t.Helper()
	e, err := NewEngine(Config{
		MaxMachines:          1,
		PartitionsPerMachine: 1,
		Buckets:              4,
		ServiceTime:          d,
		QueueCapacity:        1024,
		InitialMachines:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	return e
}

// holdPartition is the partition of a holdEngine that is never started, for
// tests that call hold themselves in the executor's place.
func holdPartition(t testing.TB, d time.Duration) *partition {
	t.Helper()
	p := holdEngine(t, d).parts[0]
	t.Cleanup(p.timer.close)
	return p
}

// pollerNoise keeps the runtime re-entering its network poller: one loopback
// TCP echo about every 700 µs, which is what an HTTP read or a shipper ack
// does to a node in the middle of a partition's hold. The returned function
// stops it and waits for its goroutines.
func pollerNoise(t *testing.T) (stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c) // echo until the client hangs up
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	quit := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer c.Close()
		b := make([]byte, 1)
		for {
			select {
			case <-quit:
				return
			default:
			}
			if _, err := c.Write(b); err != nil {
				return
			}
			if _, err := io.ReadFull(c, b); err != nil {
				return
			}
			time.Sleep(700 * time.Microsecond)
		}
	}()
	return func() {
		close(quit)
		ln.Close()
		wg.Wait()
	}
}

// overshoots times n sleeps of d and returns how far past d each one ran,
// sorted.
func overshoots(n int, d time.Duration, sleep func(time.Duration)) []time.Duration {
	over := make([]time.Duration, n)
	for i := range over {
		start := time.Now()
		sleep(d)
		over[i] = time.Since(start) - d
	}
	sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })
	return over
}

func mean(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// TestHoldPrecisionUnderPollerWakeups: a hold ends at its deadline even while
// other goroutines keep waking the runtime's poller — the condition under
// which time.Sleep, whose remainder the poller rounds up to a whole
// millisecond on every re-entry, runs some 0.4 ms long. The same loop over
// time.Sleep is logged beside it, not asserted.
func TestHoldPrecisionUnderPollerWakeups(t *testing.T) {
	const (
		n = 300
		d = 3 * time.Millisecond
	)
	p := holdPartition(t, d)
	stop := pollerNoise(t)
	defer stop()

	held := overshoots(n, d, p.hold)
	slept := overshoots(n, d, time.Sleep)
	t.Logf("hold:       overshoot median %v, mean %v, p99 %v", held[n/2], mean(held), held[n*99/100])
	t.Logf("time.Sleep: overshoot median %v, mean %v, p99 %v", slept[n/2], mean(slept), slept[n*99/100])
	if held[0] < 0 {
		t.Errorf("a hold of %v returned %v early", d, -held[0])
	}
	if held[n/2] > 250*time.Microsecond {
		t.Errorf("median hold overshoot %v, want at most 250µs", held[n/2])
	}
	c := p.eng.Counters()
	if c.Holds != n {
		t.Errorf("Counters.Holds = %d after %d holds", c.Holds, n)
	}
	// The counter clocks the wake-up against the hold's own deadline, taken a
	// moment after the test's start stamp: never more than what the test saw.
	if got, seen := time.Duration(c.HoldOverNs), mean(held)*n; got <= 0 || got > seen {
		t.Errorf("Counters.HoldOverNs = %v, test measured %v in total", got, seen)
	}
}

// TestHoldSurvivesSignals: a hold never ends before its deadline, whatever
// interrupts the process meanwhile — the runtime's preemption signal, SIGURG,
// and the profiler's SIGPROF both land on threads blocked in the poller or in
// a read and end those calls early with EINTR.
func TestHoldSurvivesSignals(t *testing.T) {
	const d = 20 * time.Millisecond
	p := holdPartition(t, d)
	pester := func(sig syscall.Signal) (stop func()) {
		quit, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-quit:
					return
				case <-time.After(time.Millisecond):
					_ = syscall.Kill(os.Getpid(), sig)
				}
			}
		}()
		return func() { close(quit); <-done }
	}
	holds := func(under string) {
		for i := 0; i < 10; i++ {
			start := time.Now()
			p.hold(d)
			if got := time.Since(start); got < d {
				t.Errorf("hold %d under %s returned after %v, before its %v deadline", i, under, got, d)
			}
		}
	}

	stop := pester(syscall.SIGURG)
	holds("SIGURG")
	stop()

	// SIGPROF, both as the profiler sends it and sent to the process.
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Fatal(err)
	}
	defer pprof.StopCPUProfile()
	defer pester(syscall.SIGPROF)()
	holds("SIGPROF")
}

// TestHoldCapacity: a partition delivers the rate its service time promises.
// 300 transactions of 3 ms, all queued before the first runs, drain in
// 300 × 3.2 ms; at time.Sleep's 3.44 ms a hold they took over a second.
func TestHoldCapacity(t *testing.T) {
	const (
		n   = 300
		svc = 3 * time.Millisecond
	)
	e := holdEngine(t, svc)
	entered, gate := make(chan struct{}), make(chan struct{})
	if err := e.Register("gate", func(*Tx) (any, error) { close(entered); <-gate; return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := e.SetServiceTime("gate", 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("work", func(*Tx) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	e.Start()

	var wg sync.WaitGroup
	submit := func(name string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Execute(name, "k", nil); err != nil {
				t.Error(err)
			}
		}()
	}
	submit("gate")
	<-entered
	for i := 0; i < n; i++ {
		submit("work")
	}
	for e.parts[0].q.dataLen() < n {
		runtime.Gosched()
	}
	start := time.Now()
	close(gate)
	wg.Wait()
	elapsed := time.Since(start)
	t.Logf("%d transactions of %v drained in %v (%v each)", n, svc, elapsed, elapsed/n)
	if limit := n * 3200 * time.Microsecond; elapsed > limit {
		t.Errorf("%d transactions of %v took %v, want at most %v", n, svc, elapsed, limit)
	}
	if c := e.Counters(); c.Holds != n {
		t.Errorf("Counters.Holds = %d, want %d (a service time of 0 is not a hold)", c.Holds, n)
	}
}

// BenchmarkPartitionHold reports what a 3 ms hold costs beyond its 3 ms.
func BenchmarkPartitionHold(b *testing.B) {
	const d = 3 * time.Millisecond
	p := holdPartition(b, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.hold(d)
	}
	b.StopTimer()
	c := p.eng.Counters()
	b.ReportMetric(float64(c.HoldOverNs)/float64(c.Holds), "overshoot-ns/op")
}
