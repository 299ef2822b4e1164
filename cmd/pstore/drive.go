package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/client"
	"pstore/internal/metrics"
	"pstore/internal/workload"
)

// runDrive is the remote load generator: the same b2w driver that serves as
// the in-process reference oracle, pointed at a listening pstore serve
// process through the client library. It reconstructs the server's exact
// trace from /v1/info, replays it over the socket, and reports refused work
// (wire 429s, client sheds) separately from failures.
func runDrive(args []string) error {
	fs := newFlagSet("drive")
	connect := fs.String("connect", "", "server address (host:port) to drive (required)")
	connectWait := fs.Duration("connect-wait", 10*time.Second, "how long to keep retrying until the server answers health checks")
	deadline := fs.Duration("deadline", 0, "per-request wire deadline (0 = the server's default)")
	inflight := fs.Int("inflight", 512, "client in-flight request cap")
	retries := fs.Int("retries", 0, "retries per refused request, honoring server retry hints")
	strict := fs.Bool("strict", false, "exit nonzero if any transport-level failure occurred (refusals and business errors are fine)")
	shutdown := fs.Bool("shutdown", false, "ask the server to shut down after the trace completes")
	if helped, err := parseFlags(fs, args); helped || err != nil {
		return err
	}
	if *connect == "" {
		return errors.New("-connect is required")
	}
	if *connectWait < 0 || *deadline < 0 || *inflight < 1 || *retries < 0 {
		return errors.New("invalid flags: -connect-wait/-deadline/-retries must be >= 0 and -inflight >= 1")
	}

	ctx := context.Background()

	// The recorder needs one wide window so p50/p99 summarize the whole run;
	// sized after /v1/info arrives. A bootstrap client (no recorder) handles
	// the handshake.
	boot, err := client.New(client.Config{Addr: *connect, MaxInFlight: 4})
	if err != nil {
		return err
	}
	if err := waitHealthy(ctx, boot, *connectWait); err != nil {
		boot.Close()
		return err
	}
	var info serveInfo
	err = boot.Info(ctx, &info)
	boot.Close()
	if err != nil {
		return err
	}
	if info.RateScale == 0 || info.Days == 0 {
		return fmt.Errorf("server at %s did not publish trace parameters; is it running \"pstore serve -listen\"?", *connect)
	}

	// Regenerate the server's replay slice from the published parameters:
	// same synthetic trace, same slice, same pacing, same driver seed — the
	// two processes agree on the workload without sharing a byte of state
	// beyond /v1/info.
	full, err := workload.SyntheticB2W(workload.DefaultB2WConfig(info.Seed, 28+info.Days))
	if err != nil {
		return err
	}
	replay := full.Slice(28*workload.MinutesPerDay, full.Len())
	minute := time.Duration(info.MinuteMs * float64(time.Millisecond))
	if minute <= 0 {
		return fmt.Errorf("server published non-positive minute %v", minute)
	}
	traceDur := time.Duration(replay.Len()) * minute

	rec, err := metrics.NewRecorder(time.Now(), 2*traceDur+10*time.Second)
	if err != nil {
		return err
	}
	cl, err := client.New(client.Config{
		Addr:         *connect,
		MaxInFlight:  *inflight,
		Deadline:     *deadline,
		RetryRefused: *retries,
		Recorder:     rec,
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	exec, err := b2w.NewRemoteExecutor(ctx, cl)
	if err != nil {
		return err
	}
	spec := b2w.LoadSpec{Carts: info.Carts, Checkouts: info.Checkouts,
		Stocks: info.Stocks, LinesPerCart: info.LinesPerCart, Seed: info.Seed}
	driver := &b2w.Driver{Exec: exec, Spec: spec, Seed: info.Seed + 1}

	log.Printf("replaying %d day(s) against %s (1 trace minute = %v, rate scale %.4g)",
		info.Days, *connect, minute, info.RateScale)
	start := time.Now()
	stats, err := driver.Run(ctx, replay, minute, info.RateScale)
	if err != nil {
		return err
	}
	cc := cl.Counters()

	fmt.Printf("drove %d transactions (%d failed) in %v\n",
		stats.Executed, stats.Failed, time.Since(start).Round(time.Millisecond))
	// stats.Refused counts every refusal the driver saw; the client's
	// in-flight sheds travel under the same typed error, so subtract them to
	// isolate work the server itself turned away (wire 429/503/504).
	serverRefused := stats.Refused - cc.Shed
	fmt.Printf("refused: %d total (%d refused by server, %d driver-shed, %d client-shed); %d retries on hints\n",
		stats.Refused+stats.Shed, serverRefused, stats.Shed, cc.Shed, cc.Retried)
	fmt.Printf("wire latency: p50 %.2f ms, p99 %.2f ms\n",
		rec.Percentile(0, 50), rec.Percentile(0, 99))
	fmt.Printf("transport: %d errors\n", cc.TransportErrors)

	if *shutdown {
		shCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		if err := cl.Shutdown(shCtx); err != nil {
			return fmt.Errorf("asking server to shut down: %w", err)
		}
		log.Print("server shutdown requested")
	}
	if *strict && cc.TransportErrors > 0 {
		return fmt.Errorf("strict: %d transport-level failures", cc.TransportErrors)
	}
	return nil
}

// waitHealthy polls the server's health endpoint until it answers or the
// wait budget runs out, so drive can be started before (or while) serve is
// still loading its dataset.
func waitHealthy(ctx context.Context, c *client.Client, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	var lastErr error
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		lastErr = c.Health(hctx)
		cancel()
		if lastErr == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy after %v: %w", wait, lastErr)
		}
		time.Sleep(200 * time.Millisecond)
	}
}
