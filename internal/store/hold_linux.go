package store

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// holdTimer is one executor's clock: a timerfd read through the runtime's
// poller. Expiry arrives as an event on a descriptor, so it wakes the poller
// the moment the kernel's high-resolution timer fires — a runtime timer is
// waited out as the poller's timeout, which epoll_wait takes in whole
// milliseconds, rounded up — and the executor parks like any goroutine
// waiting for the network: it holds no thread and no P meanwhile.
type holdTimer struct {
	fd  uintptr // what f wraps; File.Fd would take it out of the poller
	f   *os.File
	buf [8]byte // the expiration count a read returns
}

// itimerspec is timerfd_settime(2)'s struct itimerspec.
type itimerspec struct {
	interval, value syscall.Timespec
}

// sleepUntil blocks the calling goroutine until deadline has passed. Only the
// partition's executor calls it. A timerfd does not fire early; the loop is for
// whatever else might end the read.
func (t *holdTimer) sleepUntil(deadline time.Time) {
	for left := time.Until(deadline); left > 0; left = time.Until(deadline) {
		if !t.arm(left) {
			// Out of descriptors: the runtime's timer is late, not wrong.
			time.Sleep(left)
			return
		}
		_, _ = t.f.Read(t.buf[:]) // parks in the poller until the timer expires
	}
}

// arm sets the timer to expire once, d from now, making the descriptor on
// first use; d must be positive (zero disarms a timerfd).
func (t *holdTimer) arm(d time.Duration) bool {
	if t.f == nil {
		const clockMonotonic = 1
		fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_CLOEXEC|syscall.O_NONBLOCK, 0)
		if errno != 0 {
			return false
		}
		t.fd, t.f = fd, os.NewFile(fd, "timerfd")
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	return errno == 0
}

func (t *holdTimer) close() {
	if t.f != nil {
		_ = t.f.Close()
	}
}
