// Command pstore is the command-line entry point to the P-Store
// reproduction: it regenerates every table and figure of the paper's
// evaluation, generates synthetic load traces, fits load predictors, runs
// the predictive elasticity planner on a trace, serves a live cluster
// (in-process or over a network front end), and drives a served cluster
// from a separate process as a remote load generator.
//
// Usage:
//
//	pstore list                              list all experiments
//	pstore experiment <id> [flags]           run one experiment (or "all")
//	pstore serve [flags]                     run a live cluster against a trace
//	pstore serve -listen addr [flags]        same, but serve remote clients over HTTP
//	pstore serve -node N -nodes M [flags]    run one partition-group node of a multi-process cluster
//	pstore coord -peers a,b [flags]          drive migration and crash scripts against the nodes
//	pstore drive -connect addr [flags]       replay the trace against a served cluster
//	pstore trace [flags]                     generate a synthetic load trace CSV
//	pstore predict [flags]                   fit a predictor on a trace CSV and forecast
//	pstore plan [flags]                      plan reconfigurations for a trace CSV
//
// The benchmark is not a subcommand: `go run ./bench` spawns real serve -node
// processes and measures them end to end (see bench/README.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"pstore/internal/experiments"
	"pstore/internal/migration"
	"pstore/internal/planner"
	"pstore/internal/predictor"
	"pstore/internal/timeseries"
	"pstore/internal/workload"
)

// commands dispatches subcommand names. Every handler returns a plain
// reason on failure; main prefixes it uniformly, so each subcommand exits 1
// with one consistent "pstore <cmd>: <reason>" message.
var commands = map[string]func([]string) error{
	"list":       func([]string) error { return runList() },
	"experiment": runExperiment,
	"serve":      runServe,
	"coord":      runCoord,
	"drive":      runDrive,
	"trace":      runTrace,
	"predict":    runPredict,
	"plan":       runPlan,
}

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stderr))
}

// dispatch runs the subcommand args names and returns the process exit
// code: 2 with the usage text when there is none or it is unknown, 1 when
// it fails.
func dispatch(args []string, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usageText)
		return 2
	}
	cmd := args[0]
	switch cmd {
	case "-h", "--help", "help":
		fmt.Fprint(stderr, usageText)
		return 0
	}
	run, ok := commands[cmd]
	if !ok {
		fmt.Fprintf(stderr, "pstore: unknown command %q\n", cmd)
		fmt.Fprint(stderr, usageText)
		return 2
	}
	// One operator log: every line a command, or the node it opens, writes to
	// stderr carries the command's name and nothing else.
	log.SetFlags(0)
	log.SetPrefix(cmd + ": ")
	if err := run(args[1:]); err != nil {
		if !errors.Is(err, errReported) {
			fmt.Fprintf(stderr, "pstore %s: %v\n", cmd, err)
		}
		return 1
	}
	return 0
}

// errReported is a failure its subcommand has already reported on stderr.
var errReported = errors.New("failure already reported")

const usageText = `usage:
  pstore list                     list all experiments
  pstore experiment <id|all>      run an experiment (-full for paper-size runs, -seed N)
  pstore serve                    run a live cluster replaying a trace under a controller
  pstore serve -listen addr       serve the cluster over HTTP for remote drivers
  pstore serve -node N -nodes M   run one partition-group node of a multi-process cluster
  pstore coord -peers a,b         drive migration/crash scripts against node processes
  pstore drive -connect addr      replay the served trace from a separate process
  pstore trace                    generate a synthetic B2W-like load trace CSV
  pstore predict                  fit SPAR/AR/ARMA on a trace CSV and report accuracy
  pstore plan                     run the predictive elasticity planner on a trace CSV
`

// newFlagSet builds a subcommand flag set whose errors flow back to main
// for the uniform "pstore <cmd>: <reason>" exit instead of the flag
// package's own os.Exit(2) with ad-hoc formatting.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// parseFlags parses args, printing the subcommand's flag reference (and
// succeeding) when help was requested.
func parseFlags(fs *flag.FlagSet, args []string) (helped bool, err error) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(os.Stderr)
			fmt.Fprintf(os.Stderr, "usage of pstore %s:\n", fs.Name())
			fs.PrintDefaults()
			return true, nil
		}
		return false, err
	}
	return false, nil
}

func runList() error {
	for _, id := range experiments.IDs() {
		title, _ := experiments.Title(id)
		fmt.Printf("%-8s %s\n", id, title)
	}
	return nil
}

func runExperiment(args []string) error {
	fs := newFlagSet("experiment")
	full := fs.Bool("full", false, "run at paper-equivalent size (slower)")
	seed := fs.Int64("seed", 1, "random seed")
	quiet := fs.Bool("quiet", false, "suppress progress logging")
	if helped, err := parseFlags(fs, args); helped || err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("need exactly one experiment id (or \"all\")")
	}
	ids := []string{fs.Arg(0)}
	if fs.Arg(0) == "all" {
		ids = experiments.IDs()
	}
	opts := experiments.Options{Quick: !*full, Seed: *seed}
	if !*quiet {
		opts.Log = os.Stderr
	}
	for _, id := range ids {
		start := time.Now()
		r, err := experiments.Run(id, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Print(r.Text())
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func runTrace(args []string) error {
	fs := newFlagSet("trace")
	days := fs.Int("days", 3, "trace length in days")
	seed := fs.Int64("seed", 1, "random seed")
	bf := fs.Int("blackfriday", -1, "day index of a Black Friday surge (-1 = none)")
	out := fs.String("out", "", "output CSV path (default stdout)")
	kind := fs.String("kind", "b2w", "trace kind: b2w, wiki-en, wiki-de")
	if helped, err := parseFlags(fs, args); helped || err != nil {
		return err
	}
	var series workload.Series
	var err error
	switch *kind {
	case "b2w":
		cfg := workload.DefaultB2WConfig(*seed, *days)
		cfg.BlackFridayDay = *bf
		series, err = workload.SyntheticB2W(cfg)
	case "wiki-en":
		series, err = workload.SyntheticWikipedia(workload.EnglishWikipediaConfig(*seed, *days))
	case "wiki-de":
		series, err = workload.SyntheticWikipedia(workload.GermanWikipediaConfig(*seed, *days))
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return workload.WriteCSV(w, series)
}

func runPredict(args []string) error {
	fs := newFlagSet("predict")
	input := fs.String("input", "", "load trace CSV (from pstore trace)")
	model := fs.String("model", "spar", "model: spar, ar, arma, naive")
	period := fs.Int("period", 1440, "slots per period (1440 for per-minute daily)")
	nPeriods := fs.Int("n", 7, "SPAR: previous periods")
	mRecent := fs.Int("m", 30, "SPAR: recent offsets / AR order")
	tau := fs.Int("tau", 60, "forecast period in slots")
	trainFrac := fs.Float64("train", 0.8, "fraction of the trace used for training")
	if helped, err := parseFlags(fs, args); helped || err != nil {
		return err
	}
	if *input == "" {
		return errors.New("-input is required")
	}
	f, err := os.Open(*input)
	if err != nil {
		return err
	}
	defer f.Close()
	series, err := workload.ReadCSV(f)
	if err != nil {
		return err
	}
	trace := series.Values
	split := int(float64(len(trace)) * *trainFrac)
	if split < 2 || split >= len(trace)-*tau {
		return fmt.Errorf("train split %d leaves no test window", split)
	}

	var p predictor.Predictor
	switch strings.ToLower(*model) {
	case "spar":
		s := predictor.NewSPAR(*period, *nPeriods, *mRecent)
		if err := s.FitHorizons(trace[:split], *tau); err != nil {
			return err
		}
		p = s
	case "ar":
		a := predictor.NewAR(*mRecent)
		if err := a.Fit(trace[:split]); err != nil {
			return err
		}
		p = a
	case "arma":
		a := predictor.NewARMA(*mRecent, max(*mRecent/2, 1))
		if err := a.Fit(trace[:split]); err != nil {
			return err
		}
		p = a
	case "naive":
		n := predictor.NewNaivePeriodic(*period, *nPeriods)
		if err := n.Fit(trace[:split]); err != nil {
			return err
		}
		p = n
	default:
		return fmt.Errorf("unknown model %q", *model)
	}

	var actual, pred []float64
	for now := split; now+*tau < len(trace); now++ {
		v, err := p.Forecast(trace[:now+1], *tau)
		if err != nil {
			return err
		}
		pred = append(pred, v)
		actual = append(actual, trace[now+*tau])
	}
	mre, err := timeseries.MRE(actual, pred)
	if err != nil {
		return err
	}
	rmse, err := timeseries.RMSE(actual, pred)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d test forecasts at tau=%d slots\n", p.Name(), len(pred), *tau)
	fmt.Printf("MRE  %.2f%%\n", mre*100)
	fmt.Printf("RMSE %.1f\n", rmse)
	return nil
}

func runPlan(args []string) error {
	fs := newFlagSet("plan")
	input := fs.String("input", "", "predicted load CSV (one value per planning interval)")
	q := fs.Float64("q", 285, "target per-server throughput Q")
	qmax := fs.Float64("qmax", 350, "maximum per-server throughput Q-hat")
	d := fs.Float64("d", 15.4, "full-database single-thread migration time D, in intervals")
	parts := fs.Int("p", 6, "partitions per server")
	n0 := fs.Int("n0", 1, "machines allocated now")
	if helped, err := parseFlags(fs, args); helped || err != nil {
		return err
	}
	if *input == "" {
		return errors.New("-input is required")
	}
	model := migration.Model{Q: *q, QMax: *qmax, D: *d, P: *parts}
	if err := model.Validate(); err != nil {
		return fmt.Errorf("-q %v, -qmax %v, -d %v, -p %d: %w", *q, *qmax, *d, *parts, err)
	}
	f, err := os.Open(*input)
	if err != nil {
		return err
	}
	defer f.Close()
	series, err := workload.ReadCSV(f)
	if err != nil {
		return err
	}
	pl := planner.Planner{Model: model}
	plan, err := pl.BestMoves(series.Values, *n0)
	if err != nil {
		return err
	}
	fmt.Printf("total cost: %.1f machine-intervals, final cluster: %d machines\n",
		plan.Cost, plan.FinalMachines)
	for _, mv := range plan.Moves {
		fmt.Println(" ", mv)
	}
	return nil
}
