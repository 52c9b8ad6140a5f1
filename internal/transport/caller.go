package transport

import (
	"context"
	"time"

	"repro/internal/faults"
)

// Caller is the requesting side of one endpoint's request/reply
// exchanges. Every Send bumps a monotonic attempt counter, so a
// retransmission is a distinct frame that the chaos layer resamples: the
// retransmission count of an exchange is a pure function of the seed.
type Caller struct {
	EP Transport
	// Wire paces retransmissions: attempt n waits at least
	// Wire.BackoffAt(n) for its reply.
	Wire faults.RetryPolicy
	seq  int
}

// Send ships one frame from the caller's endpoint.
func (c *Caller) Send(ctx context.Context, to int, typ uint8, txn uint64, payload []byte) {
	c.seq++
	_ = c.EP.Send(ctx, Msg{Type: typ, From: c.EP.ID(), To: to, Txn: txn, Attempt: c.seq, Payload: payload})
}

// RecvBy waits for the caller's next inbound frame until deadline.
func (c *Caller) RecvBy(ctx context.Context, deadline time.Time) (Msg, bool) {
	return RecvBy(ctx, c.EP, deadline)
}

// Deadline is when attempt n's reply window closes (see ReplyWindow).
func (c *Caller) Deadline(base time.Duration, n int) time.Time {
	return time.Now().Add(ReplyWindow(c.Wire, base, n))
}

// RecvBy waits for ep's next inbound frame until deadline; false on
// timeout or a closed endpoint.
func RecvBy(ctx context.Context, ep Transport, deadline time.Time) (Msg, bool) {
	rctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	m, err := ep.Recv(rctx)
	return m, err == nil
}

// ReplyWindow is the reply window of attempt n: base, stretched by the
// wire policy's capped-exponential backoff. On a healthy exchange the
// reply arrives at once; the window only matters when a frame was lost
// or a peer died.
func ReplyWindow(wire faults.RetryPolicy, base time.Duration, n int) time.Duration {
	return max(base, time.Duration(wire.BackoffAt(n)*float64(time.Second)))
}

// WirePolicy fills a retransmission policy's defaults: the faults
// defaults, re-based to a 20 ms first backoff capped at 200 ms when left
// at the transaction-retry tuning.
func WirePolicy(p faults.RetryPolicy) faults.RetryPolicy {
	p = p.WithDefaults()
	if p.BaseBackoffSec == 0.010 {
		p.BaseBackoffSec = 0.020
		p.MaxBackoffSec = 0.200
	}
	return p
}
