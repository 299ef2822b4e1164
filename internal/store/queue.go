package store

import (
	"errors"
	"slices"
	"sync"
)

// errCanceled reports a put whose done channel fired while it waited at a full
// lane; the request was not enqueued.
var errCanceled = errors.New("store: put canceled")

const minLaneSlots = 16 // a lane's first buffer; it doubles from there

// queue is a partition's request queue: a control lane the executor always
// serves first and a data lane behind it, each a FIFO bounded at
// Config.QueueCapacity. A lane's buffer grows by doubling with its backlog and
// keeps its high-water size, so an engine allocates for the backlog it holds,
// not the bound it allows, and a steady state allocates nothing. One mutex
// covers both lanes, so a control request put before a data request is taken
// before it.
type queue struct {
	mu        sync.Mutex
	ctl, data lane
	limit     int
	// closed is set by the executor's final drain; every later put fails with
	// ErrStopped, so nothing enters a queue nobody will answer.
	closed bool
	// wake holds at most one token, sent by every enqueue; the executor sleeps
	// on it when both lanes are empty.
	wake chan struct{}
}

// lane is a ring buffer of requests plus the puts waiting for it to have
// room. It has waiters only while full: take moves the oldest one in as it
// frees a slot, so a full lane stays full for a put that arrives later, and
// blocked puts go in in arrival order, as blocked channel sends do.
type lane struct {
	buf     []request
	head, n int
	waiters []*waiter
}

// waiter is a put parked at a full lane. in is closed once req is in the lane
// (err nil) or the queue has closed (err ErrStopped).
type waiter struct {
	req request
	in  chan struct{}
	err error
}

// put appends req to the control lane (ctl) or the data lane, waiting its
// turn while that lane is full. It fails with ErrStopped once the queue is
// closed and with errCanceled if done fires first; on failure req was not
// enqueued.
func (q *queue) put(req request, ctl bool, done <-chan struct{}) error {
	q.mu.Lock()
	l, err := q.lane(ctl)
	if err != nil || l.n < q.limit {
		if err == nil {
			q.enqueue(l, req)
		}
		q.mu.Unlock()
		return err
	}
	w := &waiter{req: req, in: make(chan struct{})}
	l.waiters = append(l.waiters, w)
	q.mu.Unlock()
	select {
	case <-w.in:
		return w.err
	case <-done:
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if i := slices.Index(l.waiters, w); i >= 0 {
		l.waiters = slices.Delete(l.waiters, i, i+1)
		return errCanceled
	}
	return w.err // moved in, or failed by the close, as done fired
}

// offer is a data-lane put that never waits: it reports false, having
// enqueued nothing, when the lane is full or the queue closed.
func (q *queue) offer(req request) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, err := q.lane(false)
	if err != nil || l.n == q.limit {
		return false
	}
	q.enqueue(l, req)
	return true
}

func (q *queue) lane(ctl bool) (*lane, error) {
	if q.closed {
		return nil, ErrStopped
	}
	if ctl {
		return &q.ctl, nil
	}
	return &q.data, nil
}

func (q *queue) enqueue(l *lane, req request) {
	l.push(req, q.limit)
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// take removes the next request, control lane first; ok is false when both
// lanes are empty.
func (q *queue) take() (req request, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	l := &q.ctl
	if l.n == 0 {
		l = &q.data
	}
	if l.n == 0 {
		return request{}, false
	}
	req = l.pop()
	if len(l.waiters) > 0 {
		w := l.waiters[0]
		l.waiters[0] = nil
		l.waiters = l.waiters[1:]
		l.push(w.req, q.limit)
		close(w.in)
	}
	return req, true
}

// close fails the waiting puts and every later one with ErrStopped; what is
// already queued stays for take.
func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	for _, l := range []*lane{&q.ctl, &q.data} {
		for _, w := range l.waiters {
			w.err = ErrStopped
			close(w.in)
		}
		l.waiters = nil
	}
}

// dataLen is the data lane's backlog.
func (q *queue) dataLen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.data.n
}

func (l *lane) push(req request, limit int) {
	if l.n == len(l.buf) {
		// Full: grow, unrolling the ring into the front of the new buffer.
		buf := make([]request, min(max(2*len(l.buf), minLaneSlots), limit))
		copy(buf[copy(buf, l.buf[l.head:]):], l.buf[:l.head])
		l.buf, l.head = buf, 0
	}
	i := l.head + l.n
	if i >= len(l.buf) {
		i -= len(l.buf)
	}
	l.buf[i] = req
	l.n++
}

func (l *lane) pop() request {
	req := l.buf[l.head]
	l.buf[l.head] = request{} // let the request's memory go with its reply
	if l.head++; l.head == len(l.buf) {
		l.head = 0
	}
	l.n--
	return req
}
