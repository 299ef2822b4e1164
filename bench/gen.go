package main

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pstore/internal/client"
	"pstore/internal/wire"
)

// The generator is open-loop: requests are due on a seeded Poisson schedule
// and are sent whether or not earlier ones have been answered. Latency runs
// from the time a request was DUE, so a stalled connection charges its stall
// to every request that queued behind it (no coordinated omission).
//
// A request is never given up while the system can still answer it: an
// attempt that comes back refused, late or not at all is sent again after a
// back-off, as a store's front end would, and the request's latency keeps
// running from its due time. So an outage shows as requests beyond the
// latency limit (slo_ok_pct, goodput_tps) and as retries (gen.retried), and
// a request counts as failed only if retryBudget passes without a correct
// reply — on a stack that works, never.

const (
	// sloMs is the latency limit of every workload.
	sloMs = 50.0
	// requestDeadline travels as the wire deadline header and bounds one
	// attempt. It is far beyond the latency limit on purpose: a request that
	// waits in a partition queue is served late, not dropped and re-sent on
	// top of the backlog that delayed it.
	requestDeadline = 2 * time.Second
	// retryBudget is how long after its due time a request is still re-sent.
	retryBudget = 15 * time.Second
	// retryBackoff is the wait before the second attempt; it doubles with
	// every further one up to retryBackoffMax.
	retryBackoff    = 10 * time.Millisecond
	retryBackoffMax = 80 * time.Millisecond
	// maxBatch bounds how many due requests one sender takes at once.
	maxBatch = 64
)

// Reply classes. Positive values are the HTTP status the reply carried (in
// its own status line or in its batch frame).
const (
	statusTransport = 0  // no well-formed reply arrived
	statusDeadline  = -1 // the client-side deadline fired first
	statusOK        = 200
	statusBusiness  = 422 // typed txn_error: the procedure ran and said no
)

// request is one generated transaction and, after the run, its outcome. The
// scheduler writes queued, exactly one sender writes the rest, and the
// harness reads them only after both have finished.
type request struct {
	id     int
	due    time.Duration // intended send time, from the start of the run
	txn    string
	key    string
	args   any             // typed, for the in-process oracle replay
	raw    json.RawMessage // the same arguments as they travel
	write  bool
	unique bool // bench-unique CreateStockTransaction key (acked_lost audit)

	queued   time.Duration // handed to the sender queue (the first time)
	sent     time.Duration // written to a connection (the last attempt)
	done     time.Duration // reply read (the last attempt)
	status   int           // of the last attempt
	attempts int
	refused  []int // the status of every attempt that brought no correct reply
	batch    int
	traced   bool
}

// correct reports a reply the system was asked for: success or a typed
// business error. Refusals, internal errors, transport errors and deadlines
// are failures.
func (r *request) correct() bool { return r.status == statusOK || r.status == statusBusiness }

// latency is measured from the intended send time.
func (r *request) latency() time.Duration { return r.done - r.due }

// executor is the part of *client.Client the senders use; tests substitute
// one that stalls.
type executor interface {
	Execute(ctx context.Context, txn, key string, args any) (json.RawMessage, error)
	ExecuteBatch(ctx context.Context, reqs []wire.Request) ([]wire.Response, error)
}

// senderCount is W = min(nproc, 4): one process generates all load, sized to
// the machine it shares with the servers.
func senderCount() int { return min(runtime.NumCPU(), 4) }

// sender is one connection and the node it leads to.
type sender struct {
	ex   executor
	node int
}

// newSenders opens one keep-alive connection per sender; sender i talks to
// targets[i mod len(targets)].
func newSenders(targets []string) ([]sender, func(), error) {
	var clients []*client.Client
	closeAll := func() {
		for _, c := range clients {
			c.Close()
		}
	}
	senders := make([]sender, senderCount())
	for i := range senders {
		node := i % len(targets)
		c, err := client.New(client.Config{
			Addr:        targets[node],
			MaxInFlight: 1,
			Deadline:    requestDeadline,
		})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		clients = append(clients, c)
		senders[i] = sender{ex: c, node: node}
	}
	return senders, closeAll, nil
}

// generate replays reqs (sorted by due, offsets from start) against the
// senders and returns the spans recorded. One scheduler goroutine
// hands each request to a shared queue when it is due; a free sender takes
// everything queued (up to maxBatch) and sends it as one call, and puts a
// request whose attempt failed back on the queue after its back-off. tracedAt
// decides, from the due offset, whether a request's spans are recorded.
func generate(ctx context.Context, start time.Time, reqs []*request, senders []sender, tracedAt func(time.Duration) bool) []span {
	if len(reqs) == 0 {
		return nil
	}
	// Sized to the whole run so neither the scheduler nor a retry ever blocks
	// on slow senders: a backlog must show up as latency, not as lateness of
	// the schedule. A request is in the queue at most once at a time.
	queue := make(chan *request, len(reqs))
	// open counts the requests that have no final outcome yet; whoever
	// settles the last one closes the queue and so ends the senders.
	var open atomic.Int64
	open.Store(int64(len(reqs)))
	settle := func(n int) {
		if n > 0 && open.Add(-int64(n)) == 0 {
			close(queue)
		}
	}
	var wg sync.WaitGroup
	spans := make([][]span, len(senders))
	for i, s := range senders {
		wg.Add(1)
		go func(id int, s sender) {
			defer wg.Done()
			spans[id] = send(ctx, s, queue, start, settle)
		}(i, s)
	}
	scheduled := 0
	for _, r := range reqs {
		if d := r.due - time.Since(start); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		r.traced = tracedAt != nil && tracedAt(r.due)
		r.queued = time.Since(start)
		queue <- r
		scheduled++
	}
	settle(len(reqs) - scheduled) // cancelled: the rest is never sent
	wg.Wait()
	var all []span
	for _, s := range spans {
		all = append(all, s...)
	}
	return all
}

// send is one sender loop: block for the first queued request, drain what
// else is already queued, send, record, and re-queue what has to be tried
// again. It returns the spans of the traced requests it served.
func send(ctx context.Context, s sender, queue chan *request, start time.Time, settle func(int)) []span {
	var spans []span
	batch := make([]*request, 0, maxBatch)
	for first := range queue {
		batch = append(batch[:0], first)
	drain:
		for len(batch) < maxBatch {
			select {
			case r, ok := <-queue:
				if !ok {
					break drain
				}
				batch = append(batch, r)
			default:
				break drain
			}
		}
		sent := time.Since(start)
		statuses := call(ctx, s.ex, batch)
		done := time.Since(start)
		settled := 0
		for i, r := range batch {
			r.sent, r.done, r.status = sent, done, statuses[i]
			r.batch = len(batch)
			r.attempts++
			if !r.correct() {
				r.refused = append(r.refused, r.status)
			}
			if wait := backoff(r.attempts); !r.correct() && ctx.Err() == nil && done+wait-r.due < retryBudget {
				time.AfterFunc(wait, func() { queue <- r })
				continue
			}
			settled++
			if r.traced {
				spans = append(spans, requestSpans(r, s.node)...)
			}
		}
		settle(settled)
	}
	return spans
}

// backoff is the wait after the given number of failed attempts.
func backoff(attempts int) time.Duration {
	return min(retryBackoff<<min(attempts-1, 10), retryBackoffMax)
}

// call sends one batch — Execute for one request, ExecuteBatch for several —
// and classifies every reply.
func call(ctx context.Context, ex executor, batch []*request) []int {
	statuses := make([]int, len(batch))
	if len(batch) == 1 {
		r := batch[0]
		_, err := ex.Execute(ctx, r.txn, r.key, r.raw)
		statuses[0] = statusOfError(err)
		return statuses
	}
	wreqs := make([]wire.Request, len(batch))
	for i, r := range batch {
		wreqs[i] = wire.Request{Txn: r.txn, Key: r.key, Args: r.raw}
	}
	resps, err := ex.ExecuteBatch(ctx, wreqs)
	for i := range statuses {
		switch {
		case err != nil:
			statuses[i] = statusOfError(err)
		case resps[i].Code == wire.CodeTxn:
			statuses[i] = statusBusiness
		default:
			statuses[i] = resps[i].Status
		}
	}
	return statuses
}

// statusOfError maps a client error onto a reply class.
func statusOfError(err error) int {
	var remote *client.RemoteError
	switch {
	case err == nil:
		return statusOK
	case errors.As(err, &remote):
		if remote.Code == wire.CodeTxn {
			return statusBusiness
		}
		return remote.Status
	case errors.Is(err, context.DeadlineExceeded):
		return statusDeadline
	default:
		return statusTransport
	}
}
