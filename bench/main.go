// Command bench is the deployed-stack benchmark: it builds ./cmd/pstore,
// spawns real `pstore serve -node` processes, drives them over the wire with
// one open-loop generator and prints every metric by name. See README.md in
// this directory for the workloads, the metrics and how they relate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// defaultSeconds is the length of one timed run when -seconds is not given;
// BENCHMARK.json's run_seconds says the same.
const defaultSeconds = 20

// flushPolicy is stated with every result: nothing about durability is
// simulated, and nothing about it is a storage device's either.
const flushPolicy = "each node fsyncs its real WAL under -workdir on every group commit; the files sit in this machine's page cache"

func main() {
	os.Exit(run())
}

// run is main with deferred clean-up: every path out of it has stopped and
// waited for every process the benchmark started.
func run() int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload by name and print the driver's one-line result last (default: all four, as one JSON document)")
	seed := fs.Int64("seed", 1, "the only source of randomness: arrival times, transactions and keys")
	seconds := fs.Int("seconds", defaultSeconds, "length of one timed run, in whole seconds")
	trace := fs.Int("trace", 0, "1 adds the traced pass: per-layer metrics, the ladder, the probes, and span files under -out")
	repeat := fs.Int("repeat", 1, "run each workload N times on seeds seed, seed+1, … and print each metric's median and quartiles")
	compare := fs.Bool("compare", false, "compare two saved documents: -compare a.json b.json labels every (metric, workload) pair ok, worse or unresolved")
	workDir := fs.String("workdir", filepath.Join("bench", "out", "work"), "where the nodes' data directories go (each run gets fresh ones)")
	outDir := fs.String("out", filepath.Join("bench", "out"), "where node logs and span files go")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 || *repeat < 1 || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeat must be at least 1, and there are no positional arguments")
		return 2
	}
	specs := workloads
	if *workload != "" {
		w, err := findWorkload(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		specs = []workloadSpec{w}
	}

	if err := becomeSubreaper(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer reapOrphans()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer stopCurrentStack() // a panic unwinds through here too

	buildStart := time.Now()
	bin, err := buildPstore(*workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	buildS := time.Since(buildStart).Seconds()
	day, err := loadDiurnalDay()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	e := &env{bin: bin, workDir: *workDir, outDir: *outDir, day: day}
	doc := document{Seed: *seed, Seconds: *seconds, FlushPolicy: flushPolicy,
		Senders: senderCount(), BuildS: buildS}

	for _, w := range specs {
		for i := 0; i < *repeat; i++ {
			res, err := runWorkload(ctx, e, w, *seed+int64(i), *seconds, *trace == 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			doc.Results = append(doc.Results, res)
			for _, p := range res.Problems {
				fmt.Fprintf(os.Stderr, "bench: %s: INCORRECT: %s\n", w.name, p)
			}
		}
	}
	if *repeat > 1 {
		doc.Spread = spreads(doc.Results)
	}

	code := 0
	for _, r := range doc.Results {
		if !r.Correct {
			code = 1
		}
	}
	if *workload != "" && *repeat == 1 {
		// The driver's contract: human-readable detail on stderr, one JSON
		// object as the last line of stdout.
		printHuman(os.Stderr, doc)
		if err := json.NewEncoder(os.Stdout).Encode(driverLine(doc.Results[0], *trace == 1)); err != nil {
			return 1
		}
		return code
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return 1
	}
	return code
}

// document is the harness's full output: every run, and with -repeat the
// spread of every metric.
type document struct {
	Seed        int64     `json:"seed"`
	Seconds     int       `json:"seconds"`
	FlushPolicy string    `json:"flush_policy"`
	Senders     int       `json:"senders"`
	BuildS      float64   `json:"build_s"`
	Results     []*result `json:"results"`
	Spread      []spread  `json:"spread,omitempty"`
}

// driverLine is the one-line result the benchmark driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one.
func driverLine(r *result, trace bool) map[string]any {
	metrics := r.Metrics
	if trace {
		metrics = r.Layers
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

// currentStack is the stack that is up right now, for the clean-up when run
// unwinds early (an error, a signal's cancelled context, a panic). Stacks are
// started and stopped on the main goroutine only.
var currentStack *stack

func setCurrentStack(s *stack) { currentStack = s }

func stopCurrentStack() {
	if currentStack != nil {
		currentStack.stop()
	}
}
