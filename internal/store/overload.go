package store

import "errors"

// The engine's server-side overload defenses. The paper's planner guarantees
// predicted load never exceeds effective capacity (Eq. 7), but predictions
// are sometimes wrong — and when they are, an undefended engine saturates:
// queues fill, every submitter blocks, and the migration control traffic
// that could add capacity queues FIFO behind the very backlog it exists to
// relieve. One setting, Config.Deadline, arms two mechanisms that keep the
// engine responsive while the provisioning layer catches up:
//
//   - Admission control: each partition executor maintains an EWMA of
//     request sojourn time (enqueue to execution start). A submission whose
//     destination's estimated queueing delay already exceeds the deadline
//     is rejected immediately with ErrOverload instead of joining a queue it
//     cannot clear in time.
//   - Deadline enforcement: a request that outlives its deadline while
//     queued is failed with ErrDeadlineExceeded by the executor without
//     being executed — expired work is pure waste under overload.
//
// The executors keep the sojourn EWMA whether or not a deadline is set; it
// is the queueing-delay signal the node status and the controllers read.
// Control-plane requests (migration move-out/install, crash fencing,
// checkpoints, restores) are never refused: they travel on a separate
// priority lane (see partition.run) precisely so the escape hatch from
// overload — emergency scale-out — cannot be starved by it.

// ErrOverload is returned for transactions refused by admission control (or
// by a submit context that ended while the queue was full): the request was
// never executed and can be retried against a later, larger cluster.
var ErrOverload = errors.New("store: overloaded")

// ErrDeadlineExceeded is returned for transactions that spent longer than
// their deadline waiting in a partition queue; the executor fails them
// without executing, since a reply past the deadline is worthless to the
// submitter but still costs service time.
var ErrDeadlineExceeded = errors.New("store: deadline exceeded in queue")
