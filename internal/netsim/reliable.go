package netsim

import (
	"time"

	"repro/internal/telemetry"
)

// RetryPolicy shapes ReliableCall's exponential backoff.
type RetryPolicy struct {
	// Timeout is the first attempt's acknowledgement deadline.
	Timeout time.Duration
	// Backoff multiplies the timeout after each miss (>= 1).
	Backoff float64
	// MaxTimeout caps the grown timeout.
	MaxTimeout time.Duration
}

// DefaultRetryPolicy is tuned to the host/cp block cadence: a lost
// submission is re-sent within seconds and backs off to minute scale
// during long partitions.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Timeout:    10 * time.Second,
		Backoff:    2,
		MaxTimeout: 5 * time.Minute,
	}
}

// RetryObserver receives retry accounting (nil-safe).
type RetryObserver struct {
	// Retries counts re-issued attempts.
	Retries *telemetry.Counter
}

// ReliableCall issues a call and re-issues it with exponential backoff
// until a reply arrives: a call is never given up. Daemons must not lose
// work, and the IBC layer's sealed receipts make the resulting
// at-least-once delivery exactly-once end to end. cb fires exactly once.
// On the lossless fast path the first attempt completes synchronously and
// no retry timer is ever armed.
func (e *Endpoint) ReliableCall(to NodeID, kind string, payload any, p RetryPolicy, obs RetryObserver, cb func(resp any, err error)) {
	done := false
	timeout := p.Timeout
	var attempt func()
	attempt = func() {
		completed := e.Call(to, kind, payload, func(resp any, err error) {
			if done {
				return // a duplicated reply, or one to an earlier attempt
			}
			done = true
			cb(resp, err)
		})
		if completed {
			return
		}
		e.net.sched.After(timeout, func() {
			if done {
				return
			}
			obs.Retries.Inc()
			timeout = time.Duration(float64(timeout) * p.Backoff)
			if timeout > p.MaxTimeout {
				timeout = p.MaxTimeout
			}
			attempt()
		})
	}
	attempt()
}
