package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// nearestRank is the zero-based index of the p-th percentile (0 < p < 100)
// among n sorted samples: ceil(n·p/100) - 1.
func nearestRank(n int, p float64) int {
	return min(max(int(math.Ceil(float64(n)*p/100))-1, 0), n-1)
}

// percentile returns the p-th percentile of sorted values by the
// nearest-rank rule. It refuses a percentile that fewer than ten samples
// lie beyond: such a value is one outlier, not a tail.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	rank := nearestRank(n, p)
	if beyond := n - 1 - rank; p > 50 && beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (need 10)", p, n, beyond)
	}
	return sorted[rank], nil
}

// median is the 50th percentile; it sorts a copy.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so -repeat
// prints the same spread the driver computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := median(s)
		return v, v, v
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent is the ID of the span that caused this one (0 for the root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Tags   string        `json:"tags,omitempty"`
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children count
// once).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// requestSpans lays out the four spans of one traced request: the root runs
// from the intended send time to the reply and its children split it at the
// hand-off to the sender queue and at the write to the connection. Of a
// request that was sent more than once, client.call is the last attempt and
// gen.wait holds the earlier ones with their back-off.
func requestSpans(r *request, node int) []span {
	base := r.id*4 + 1
	tags := fmt.Sprintf("node=%d batch=%d write=%t status=%d attempts=%d", node, r.batch, r.write, r.status, r.attempts)
	return []span{
		{ID: base, Req: r.id, Name: "request", Start: r.due, End: r.done, Tags: r.txn},
		{ID: base + 1, Parent: base, Req: r.id, Name: "gen.sched", Start: r.due, End: r.queued},
		{ID: base + 2, Parent: base, Req: r.id, Name: "gen.wait", Start: r.queued, End: r.sent},
		{ID: base + 3, Parent: base, Req: r.id, Name: "client.call", Start: r.sent, End: r.done, Tags: tags},
	}
}
