package netsim

import (
	"errors"
	"time"

	"repro/internal/telemetry"
)

// ErrDeadLetter is delivered to the caller when a reliable call exhausts
// its retry budget without an acknowledgement.
var ErrDeadLetter = errors.New("netsim: dead letter: retries exhausted")

// RetryPolicy shapes ReliableCall's exponential backoff.
type RetryPolicy struct {
	// Timeout is the first attempt's acknowledgement deadline.
	Timeout time.Duration
	// Backoff multiplies the timeout after each miss (>= 1).
	Backoff float64
	// MaxTimeout caps the grown timeout.
	MaxTimeout time.Duration
	// MaxAttempts bounds the attempt count (0 = retry forever). Daemons
	// that must not lose work — validator signing, relayer packet
	// delivery — retry forever; the IBC layer's sealed receipts make the
	// resulting at-least-once delivery exactly-once end to end.
	MaxAttempts int
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

// RetryObserver receives retry accounting (all fields nil-safe).
type RetryObserver struct {
	// Retries counts re-issued attempts.
	Retries *telemetry.Counter
	// DeadLetters counts calls abandoned after MaxAttempts.
	DeadLetters *telemetry.Counter
}

// ReliableCall issues a call and re-issues it with exponential backoff
// until a reply arrives or MaxAttempts is exhausted (then cb receives
// ErrDeadLetter). Together with idempotent handlers this provides
// at-least-once delivery; cb fires exactly once either way. On the
// lossless fast path the first attempt completes synchronously and no
// retry timer is ever armed.
func (e *Endpoint) ReliableCall(to NodeID, kind string, payload any, p RetryPolicy, obs RetryObserver, cb func(resp any, err error)) {
	if p.Timeout <= 0 {
		p.Timeout = DefaultRetryPolicy().Timeout
	}
	if p.Backoff < 1 {
		p.Backoff = DefaultRetryPolicy().Backoff
	}
	if p.MaxTimeout <= 0 {
		p.MaxTimeout = DefaultRetryPolicy().MaxTimeout
	}
	done := false
	attempts := 0
	timeout := p.Timeout
	var attempt func()
	attempt = func() {
		attempts++
		completed := e.Call(to, kind, payload, func(resp any, err error) {
			if done {
				return // a duplicated reply, or one racing the dead-letter timer
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
			if p.MaxAttempts > 0 && attempts >= p.MaxAttempts {
				done = true
				obs.DeadLetters.Inc()
				cb(nil, ErrDeadLetter)
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
