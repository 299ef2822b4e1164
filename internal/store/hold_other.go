//go:build !linux

package store

import "time"

// holdTimer is one executor's clock. Without a timerfd it is the runtime's
// timer, at whatever resolution the platform's poller gives it.
type holdTimer struct{}

func (*holdTimer) sleepUntil(deadline time.Time) { time.Sleep(time.Until(deadline)) }

func (*holdTimer) close() {}
