// Package metrics collects the performance measurements the paper's
// evaluation reports: windowed latency percentiles, throughput, SLA
// violation counts (Table 2), top-1% percentile CDFs (Figure 10) and
// machine-allocation timelines (Figure 9).
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// recordShards is the number of independent append buffers a stream spreads
// record calls over. Must be a power of two.
const recordShards = 64

// sample is one recorded value, tagged with its aggregation window.
type sample struct {
	w  int32
	ms float64
}

// recordShard is one append buffer. The leading pad keeps neighboring
// shards' locks off the same cache line.
type recordShard struct {
	_   [64]byte
	mu  sync.Mutex
	buf []sample
}

// stream accumulates values (milliseconds) into fixed-width time windows.
// The record path appends to one of several sharded buffers chosen by the
// record timestamp — no shared mutex — and readers merge the shards into the
// windowed view on demand.
type stream struct {
	start  time.Time
	window time.Duration

	shards [recordShards]recordShard

	// mu guards the merged window state.
	mu     sync.Mutex
	values [][]float64 // per window, milliseconds
	counts []int
	// sorted caches each window's sorted values; sortedN is the sample
	// count the cache covers. percentile re-sorts a window only when new
	// samples arrived since — the cluster decision loop reads percentiles
	// every cycle, almost always from settled windows.
	sorted  [][]float64
	sortedN []int
}

// record files one value observed at `at`. The shard is picked by mixing
// the record timestamp, so concurrent recorders spread over independent
// buffers instead of serializing on one lock.
func (s *stream) record(at time.Time, d time.Duration) {
	since := at.Sub(s.start)
	w := int(since / s.window)
	if w < 0 {
		w = 0
	}
	ms := float64(d) / float64(time.Millisecond)
	h := uint64(since) * 0x9E3779B97F4A7C15
	sh := &s.shards[(h>>32)&(recordShards-1)]
	sh.mu.Lock()
	sh.buf = append(sh.buf, sample{w: int32(w), ms: ms})
	sh.mu.Unlock()
}

// flushLocked merges every shard's pending samples into the windowed view.
// The caller must hold s.mu.
func (s *stream) flushLocked() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, smp := range sh.buf {
			w := int(smp.w)
			for len(s.values) <= w {
				s.values = append(s.values, nil)
				s.counts = append(s.counts, 0)
				s.sorted = append(s.sorted, nil)
				s.sortedN = append(s.sortedN, 0)
			}
			s.values[w] = append(s.values[w], smp.ms)
			s.counts[w]++
		}
		sh.buf = sh.buf[:0]
		sh.mu.Unlock()
	}
}

// windows returns the number of aggregation windows observed so far.
func (s *stream) windows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	return len(s.values)
}

// count returns the number of samples in window w.
func (s *stream) count(w int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	if w < 0 || w >= len(s.counts) {
		return 0
	}
	return s.counts[w]
}

// countSeries returns the per-window sample counts.
func (s *stream) countSeries() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	out := make([]int, len(s.counts))
	copy(out, s.counts)
	return out
}

// percentile returns the p-th percentile value of window w.
func (s *stream) percentile(w int, p float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	return s.percentileLocked(w, p)
}

// percentileLocked serves a percentile from the sorted-window cache,
// re-sorting only windows that received samples since the last call. The
// caller must hold s.mu and have flushed.
func (s *stream) percentileLocked(w int, p float64) float64 {
	if w < 0 || w >= len(s.values) || len(s.values[w]) == 0 {
		return 0
	}
	if s.sortedN[w] != len(s.values[w]) {
		s.sorted[w] = append(s.sorted[w][:0], s.values[w]...)
		sort.Float64s(s.sorted[w])
		s.sortedN[w] = len(s.values[w])
	}
	return percentileOfSorted(s.sorted[w], p)
}

// percentileSeries returns the p-th percentile value of every window.
func (s *stream) percentileSeries(p float64) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	out := make([]float64, len(s.values))
	for w := range s.values {
		out[w] = s.percentileLocked(w, p)
	}
	return out
}

// Recorder accumulates per-transaction latencies into fixed-width time
// windows (the paper uses one-second windows for SLA accounting), plus the
// machine-allocation and reconfiguration timelines. It is safe for concurrent
// use by many client goroutines. Counters of refused work, migration health
// and crash recovery live in the layers that count them (store.Counters,
// squall.Stats, recovery.Stats), not here.
type Recorder struct {
	start  time.Time
	window time.Duration

	// lat is client-observed transaction latency.
	lat stream

	// mu guards the timelines below.
	mu            sync.Mutex
	machines      []machineSample
	reconfiguring []reconfigSpan
}

type machineSample struct {
	at time.Time
	n  int
}

type reconfigSpan struct {
	from, to time.Time
}

// NewRecorder returns a recorder with the given aggregation window,
// starting its clock at start.
func NewRecorder(start time.Time, window time.Duration) (*Recorder, error) {
	if window <= 0 {
		return nil, fmt.Errorf("metrics: window %v must be positive", window)
	}
	return &Recorder{start: start, window: window, lat: stream{start: start, window: window}}, nil
}

// Record files one completed transaction that finished at `at` with the
// given latency.
func (r *Recorder) Record(at time.Time, latency time.Duration) {
	r.lat.record(at, latency)
}

// RecordMachines notes that the cluster size changed to n at time `at`.
func (r *Recorder) RecordMachines(at time.Time, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.machines = append(r.machines, machineSample{at: at, n: n})
}

// RecordReconfiguration notes that a data migration was in progress between
// from and to.
func (r *Recorder) RecordReconfiguration(from, to time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reconfiguring = append(r.reconfiguring, reconfigSpan{from: from, to: to})
}

// Windows returns the number of aggregation windows observed so far.
func (r *Recorder) Windows() int { return r.lat.windows() }

// Throughput returns the transactions completed in window w divided by the
// window length, in transactions per second.
func (r *Recorder) Throughput(w int) float64 {
	return float64(r.lat.count(w)) / r.window.Seconds()
}

// Percentile returns the p-th percentile latency (in milliseconds) of
// window w, or 0 if the window is empty. p is in (0, 100].
func (r *Recorder) Percentile(w int, p float64) float64 {
	return r.lat.percentile(w, p)
}

func percentileOfSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	idx := int(p/100*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// PercentileSeries returns the p-th percentile latency of every window.
func (r *Recorder) PercentileSeries(p float64) []float64 {
	return r.lat.percentileSeries(p)
}

// ThroughputSeries returns per-window throughput in transactions/second.
func (r *Recorder) ThroughputSeries() []float64 {
	counts := r.lat.countSeries()
	out := make([]float64, len(counts))
	for w, c := range counts {
		out[w] = float64(c) / r.window.Seconds()
	}
	return out
}

// SLAViolations counts the windows whose p-th percentile latency exceeds
// threshold (in milliseconds) — the paper's Table 2 metric with one-second
// windows and a 500 ms threshold.
func (r *Recorder) SLAViolations(p float64, thresholdMs float64) int {
	series := r.PercentileSeries(p)
	n := 0
	for _, v := range series {
		if v > thresholdMs {
			n++
		}
	}
	return n
}

// MachineSeries samples the recorded machine-allocation timeline at every
// aggregation window boundary and returns one cluster size per window.
func (r *Recorder) MachineSeries() []float64 {
	n := r.lat.windows()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, n)
	if len(r.machines) == 0 {
		return out
	}
	cur := r.machines[0].n
	k := 0
	for w := range out {
		boundary := r.start.Add(time.Duration(w+1) * r.window)
		for k < len(r.machines) && !r.machines[k].at.After(boundary) {
			cur = r.machines[k].n
			k++
		}
		out[w] = float64(cur)
	}
	return out
}

// AverageMachines returns the time-average cluster size over the recorded
// timeline, the "Average Machines Allocated" column of Table 2.
func (r *Recorder) AverageMachines() float64 {
	series := r.MachineSeries()
	if len(series) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range series {
		sum += v
	}
	return sum / float64(len(series))
}

// ReconfiguringWindows reports, per window, whether a migration overlapped
// it (the light-green spans of Figure 9c/d).
func (r *Recorder) ReconfiguringWindows() []bool {
	n := r.lat.windows()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]bool, n)
	for _, span := range r.reconfiguring {
		w0 := int(span.from.Sub(r.start) / r.window)
		w1 := int(span.to.Sub(r.start) / r.window)
		for w := max(w0, 0); w <= w1 && w < len(out); w++ {
			out[w] = true
		}
	}
	return out
}

// TopCDF returns the CDF of the worst topFrac fraction (e.g. 0.01 for the
// paper's "top 1%") of the per-window p-th percentile latencies: the sorted
// worst values, suitable for plotting cumulative probability (Figure 10).
func (r *Recorder) TopCDF(p float64, topFrac float64) []float64 {
	series := r.PercentileSeries(p)
	var nonzero []float64
	for _, v := range series {
		if v > 0 {
			nonzero = append(nonzero, v)
		}
	}
	sort.Float64s(nonzero)
	k := int(float64(len(nonzero)) * topFrac)
	if k < 1 {
		k = min(1, len(nonzero))
	}
	return nonzero[len(nonzero)-k:]
}
