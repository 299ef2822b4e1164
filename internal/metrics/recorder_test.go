package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func newTestRecorder(t *testing.T) (*Recorder, time.Time) {
	t.Helper()
	start := time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)
	r, err := NewRecorder(start, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return r, start
}

func TestNewRecorderValidation(t *testing.T) {
	if _, err := NewRecorder(time.Now(), 0); err == nil {
		t.Error("zero window accepted")
	}
}

func TestRecorderPercentiles(t *testing.T) {
	r, start := newTestRecorder(t)
	// 100 latencies of 1..100 ms in window 0.
	for i := 1; i <= 100; i++ {
		r.Record(start.Add(500*time.Millisecond), time.Duration(i)*time.Millisecond)
	}
	if got := r.Percentile(0, 50); math.Abs(got-50) > 1 {
		t.Errorf("p50 = %v, want ~50", got)
	}
	if got := r.Percentile(0, 99); math.Abs(got-99) > 1 {
		t.Errorf("p99 = %v, want ~99", got)
	}
	if got := r.Percentile(0, 100); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
	if got := r.Percentile(5, 50); got != 0 {
		t.Errorf("empty window percentile = %v, want 0", got)
	}
	if got := r.Percentile(-1, 50); got != 0 {
		t.Errorf("negative window percentile = %v, want 0", got)
	}
}

func TestRecorderThroughput(t *testing.T) {
	r, start := newTestRecorder(t)
	for i := 0; i < 30; i++ {
		r.Record(start.Add(time.Duration(i)*100*time.Millisecond), time.Millisecond)
	}
	// 10 records land in window 0, 10 in window 1, 10 in window 2.
	if got := r.Throughput(0); got != 10 {
		t.Errorf("throughput(0) = %v, want 10", got)
	}
	series := r.ThroughputSeries()
	if len(series) != 3 {
		t.Fatalf("throughput series length %d, want 3", len(series))
	}
	if r.Windows() != 3 {
		t.Errorf("Windows = %d, want 3", r.Windows())
	}
}

func TestSLAViolations(t *testing.T) {
	r, start := newTestRecorder(t)
	// Window 0: fast. Window 1: slow. Window 2: fast.
	r.Record(start, 10*time.Millisecond)
	r.Record(start.Add(1100*time.Millisecond), 900*time.Millisecond)
	r.Record(start.Add(2100*time.Millisecond), 20*time.Millisecond)
	if got := r.SLAViolations(50, 500); got != 1 {
		t.Errorf("violations = %d, want 1", got)
	}
	if got := r.SLAViolations(50, 5); got != 3 {
		t.Errorf("violations at 5ms = %d, want 3", got)
	}
}

func TestMachineSeries(t *testing.T) {
	r, start := newTestRecorder(t)
	// Create 4 windows of latency data.
	for w := 0; w < 4; w++ {
		r.Record(start.Add(time.Duration(w)*time.Second+500*time.Millisecond), time.Millisecond)
	}
	r.RecordMachines(start, 2)
	r.RecordMachines(start.Add(2500*time.Millisecond), 5)
	series := r.MachineSeries()
	want := []float64{2, 2, 5, 5}
	for i, v := range want {
		if series[i] != v {
			t.Errorf("machines[%d] = %v, want %v", i, series[i], v)
		}
	}
	avg := r.AverageMachines()
	if math.Abs(avg-3.5) > 1e-9 {
		t.Errorf("AverageMachines = %v, want 3.5", avg)
	}
}

func TestReconfiguringWindows(t *testing.T) {
	r, start := newTestRecorder(t)
	for w := 0; w < 5; w++ {
		r.Record(start.Add(time.Duration(w)*time.Second+time.Millisecond), time.Millisecond)
	}
	r.RecordReconfiguration(start.Add(1200*time.Millisecond), start.Add(3300*time.Millisecond))
	got := r.ReconfiguringWindows()
	want := []bool{false, true, true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("reconfiguring[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTopCDF(t *testing.T) {
	r, start := newTestRecorder(t)
	// 200 windows with p50 latencies 1..200 ms.
	for w := 0; w < 200; w++ {
		r.Record(start.Add(time.Duration(w)*time.Second), time.Duration(w+1)*time.Millisecond)
	}
	top := r.TopCDF(50, 0.01)
	if len(top) != 2 {
		t.Fatalf("top 1%% of 200 windows = %d values, want 2", len(top))
	}
	if top[0] != 199 || top[1] != 200 {
		t.Errorf("top values = %v, want [199 200]", top)
	}
	// Degenerate: tiny topFrac still returns at least one value.
	if got := r.TopCDF(50, 1e-9); len(got) != 1 {
		t.Errorf("tiny topFrac returned %d values, want 1", len(got))
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r, start := newTestRecorder(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(start.Add(time.Duration(i)*time.Millisecond), time.Millisecond)
				if i%50 == 0 {
					r.RecordMachines(start.Add(time.Duration(i)*time.Millisecond), g+1)
					_ = r.PercentileSeries(99)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Throughput(0); got != 4000 {
		t.Errorf("total recorded = %v, want 4000", got)
	}
}

// TestRecorderShardedMergePreservesSamples records from many goroutines
// across several windows and checks that the merged view loses nothing and
// percentiles reflect all samples regardless of shard interleaving.
func TestRecorderShardedMergePreservesSamples(t *testing.T) {
	r, start := newTestRecorder(t)
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Spread samples over 4 windows with distinct latencies.
				w := (g + i) % 4
				at := start.Add(time.Duration(w)*time.Second + time.Duration(g*perG+i)*time.Microsecond)
				r.Record(at, time.Duration(i%100+1)*time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	total := 0.0
	for w := 0; w < r.Windows(); w++ {
		total += r.Throughput(w)
	}
	if int(total) != goroutines*perG {
		t.Errorf("merged %v samples, want %d", total, goroutines*perG)
	}
	// Samples are 1..100 ms uniform; p50 of every window must sit near 50.
	for w := 0; w < r.Windows(); w++ {
		if p := r.Percentile(w, 50); p < 40 || p > 60 {
			t.Errorf("window %d p50 = %v, want ~50", w, p)
		}
	}
}

func BenchmarkRecorderRecord(b *testing.B) {
	start := time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)
	r, err := NewRecorder(start, time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			r.Record(start.Add(time.Duration(i)*time.Microsecond), time.Millisecond)
			i++
		}
	})
}

func TestRecordBeforeStartClamps(t *testing.T) {
	r, start := newTestRecorder(t)
	r.Record(start.Add(-5*time.Second), time.Millisecond)
	if r.Windows() != 1 {
		t.Errorf("early record created %d windows, want 1", r.Windows())
	}
}
