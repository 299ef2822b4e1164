package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// printHuman writes one run per block: counts, then every metric with its
// unit.
func printHuman(w io.Writer, doc document) {
	fmt.Fprintf(w, "seed %d, %d s per run, %d senders, open loop; flush policy: %s\n",
		doc.Seed, doc.Seconds, doc.Senders, doc.FlushPolicy)
	for _, r := range doc.Results {
		fmt.Fprintf(w, "%s (seed %d): correct=%t attempted=%d failed=%d business_errors=%d retried=%d refusals=%v samples=%d slo_ms=%g p90_ms=%.2f p99_ms=%.2f recovery_ms=%.1f acked_lost=%d machine_counts=%v moves=%d\n",
			r.Workload, r.Seed, r.Correct, r.Attempted, r.Failed, r.BusinessErrors, r.Retried, r.Refusals, r.Samples,
			r.SloMs, r.P90Ms, r.P99Ms, r.RecoveryMs, r.AckedLost, r.MachineCounts, r.Moves)
		for _, table := range []struct {
			defs   []metricDef
			values map[string]metric
		}{{endToEnd, r.Metrics}, {perLayer, r.Layers}} {
			for _, d := range table.defs {
				if m, ok := table.values[d.name]; ok {
					fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, m.Value, m.Unit)
				}
			}
		}
	}
}

// spread is one metric of one workload over repeated runs.
type spread struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Runs     int     `json:"runs"`
	Q1       float64 `json:"q1"`
	Median   float64 `json:"median"`
	Q3       float64 `json:"q3"`
	// SpreadPct is (Q3 - Q1) ÷ median, the figure a bound is compared with.
	SpreadPct float64 `json:"spread_pct"`
}

// spreads groups results by workload and summarises every metric they carry.
func spreads(results []*result) []spread {
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	units := map[string]string{}
	var order []key
	for _, r := range results {
		for _, table := range []map[string]metric{r.Metrics, r.Layers} {
			for name, m := range table {
				k := key{r.Workload, name}
				if _, seen := values[k]; !seen {
					order = append(order, k)
				}
				values[k] = append(values[k], m.Value)
				units[name] = m.Unit
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].workload != order[j].workload {
			return order[i].workload < order[j].workload
		}
		return order[i].metric < order[j].metric
	})
	out := make([]spread, 0, len(order))
	for _, k := range order {
		q1, q2, q3 := quartiles(values[k])
		s := spread{Workload: k.workload, Metric: k.metric, Unit: units[k.metric],
			Runs: len(values[k]), Q1: q1, Median: q2, Q3: q3}
		if q2 != 0 {
			s.SpreadPct = 100 * (q3 - q1) / q2
		}
		out = append(out, s)
	}
	return out
}

// benchmarkFile is the part of BENCHMARK.json the harness reads back.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(b, &bf)
}

// compareFiles applies BENCHMARK.json's bounds to two saved documents (each
// the output of a -repeat run) and labels every (end-to-end metric,
// workload) pair: unresolved when either side's own spread is wider than the
// bound, worse when b's median is worse than a's by more than the bound, ok
// otherwise. It returns 1 if any pair is worse.
func compareFiles(aPath, bPath string) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	load := func(path string) (map[[2]string]spread, error) {
		var doc document
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out := map[[2]string]spread{}
		for _, s := range spreads(doc.Results) {
			out[[2]string{s.Workload, s.Metric}] = s
		}
		return out, nil
	}
	a, errA := load(aPath)
	b, errB := load(bPath)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return printComparison(os.Stdout, bf, a, b)
}

func printComparison(w io.Writer, bf benchmarkFile, a, b map[[2]string]spread) int {
	code := 0
	fmt.Fprintf(w, "%-20s %-14s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "a.median", "b.median", "change%", "spread%", "bound%", "label")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			sa, okA := a[[2]string{wl.Name, m.Name}]
			sb, okB := b[[2]string{wl.Name, m.Name}]
			if !okA || !okB {
				continue
			}
			label, change := judge(sa, sb, m.Better == "lower", m.Bound)
			if label == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-20s %-14s %12.4f %12.4f %+8.2f %8.2f %7.2f  %s\n", wl.Name, m.Name,
				sa.Median, sb.Median, 100*change, max(sa.SpreadPct, sb.SpreadPct), 100*m.Bound, label)
		}
	}
	return code
}

// judge labels one pair. change is how much worse b's median is than a's,
// as a share of a's (negative = better).
func judge(a, b spread, lowerIsBetter bool, bound float64) (label string, change float64) {
	if a.Median != 0 {
		change = (b.Median - a.Median) / a.Median
		if !lowerIsBetter {
			change = -change
		}
	}
	switch {
	case max(a.SpreadPct, b.SpreadPct) > 100*bound:
		return "unresolved", change
	case change > bound:
		return "worse", change
	default:
		return "ok", change
	}
}
