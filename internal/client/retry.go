package client

import (
	"wedgechain/internal/core"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Retry: bounded, jittered re-sends of operations the edge never answered.
// Under a lossy or partitioned network a request (or its response) frame
// can simply vanish; without retry the op hangs until the proof timeout
// and surfaces as a dispute against an innocent edge. With RetryEvery set,
// an op that has not reached Phase I by its deadline is re-MACed and
// re-sent with exponential backoff plus deterministic jitter, up to
// MaxAttempts sends in total; exhaustion settles the op with
// ErrUnavailable — a typed, bounded failure the application can act on.
// Phase I ops are NOT retried here: they hold a signed acknowledgement,
// and the proof-timeout dispute machinery is their escalation path.
//
// Re-sends are idempotent end to end: the edge's replay defence re-acks a
// write whose entry already sits in the log byte-identically, and reads
// re-serve under their original request id.

// tickRetry runs the retry pass: collect due ops first, then settle or
// re-send — settling mutates the windows being iterated.
func (c *Core) tickRetry(now int64) []wire.Envelope {
	var due []*Op
	collect := func(_ uint64, op *Op) {
		if op.Done || op.disputed || op.Phase != core.PhaseNone {
			return
		}
		if op.nextResend == 0 {
			// First sight of this op: its initial send at StartedAt was
			// attempt one; arm the first deadline.
			op.attempts = 1
			op.nextResend = op.StartedAt + c.retryDelay(op, 1)
		}
		if now >= op.nextResend {
			due = append(due, op)
		}
	}
	c.bySeq.Each(collect)
	c.byReq.Each(collect)
	var again []*Op
	for _, op := range due {
		if op.attempts >= c.cfg.MaxAttempts {
			// An op the edge explicitly shed fails as "overloaded, come
			// back later"; silence stays the generic unavailable.
			if op.overloaded {
				c.settle(op, ErrOverloaded)
			} else {
				c.settle(op, ErrUnavailable)
			}
			continue
		}
		op.attempts++
		op.nextResend = now + c.retryDelay(op, op.attempts)
		c.m.resends.Inc()
		again = append(again, op)
	}
	return c.resend(now, again)
}

// expire settles, with retry off, every op still short of Phase I
// ProofTimeout after it started, with ErrUnavailable: the bound an
// exhausted retry gives it when retry is on. Ops start in time order, so
// no op started after a walk is due before the earliest deadline that
// walk saw, and the next walk waits for it.
func (c *Core) expire(now int64) {
	if now < c.expireAt {
		return
	}
	c.expireAt = now + c.cfg.ProofTimeout
	var due []*Op
	collect := func(_ uint64, op *Op) {
		if op.Done || op.disputed || op.Phase != core.PhaseNone {
			return
		}
		if deadline := op.StartedAt + c.cfg.ProofTimeout; deadline > now {
			c.expireAt = min(c.expireAt, deadline)
		} else {
			due = append(due, op)
		}
	}
	c.bySeq.Each(collect)
	c.byReq.Each(collect)
	for _, op := range due {
		c.settle(op, ErrUnavailable)
	}
}

// retryDelay is the wait before attempt+1: RetryEvery doubled per prior
// attempt (capped at 32x) plus deterministic jitter in [0, base/2), so a
// fleet of clients cut off by the same partition does not thunder back in
// lockstep — while the same run under the same seed stays reproducible.
func (c *Core) retryDelay(op *Op, attempt int) int64 {
	base := c.cfg.RetryEvery
	for i := 1; i < attempt && i < 6; i++ {
		base <<= 1
	}
	key := op.Seq
	if key == 0 {
		key = op.ReqID
	}
	return base + retryJitter(key, uint64(attempt), base/2)
}

// retryJitter hashes (op key, attempt) through a splitmix64 finalizer to a
// value in [0, span) — random-looking across ops and attempts, identical
// across runs.
func retryJitter(key, attempt uint64, span int64) int64 {
	if span <= 0 {
		return 0
	}
	x := key*0x9e3779b97f4a7c15 + attempt*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x % uint64(span))
}

// handleOverloaded applies an edge's signed admission signal. The edge
// sheds writes while its uncertified backlog is at cap and — instead of
// silent loss — names the triggering operation (Seq/ReqID echo) and hints
// when certification progress should reopen admission. The signal is
// edge-scoped: every still-unacknowledged op at this edge is backing up
// behind the same backlog, so all of them are marked overloaded and have
// their next re-send pushed past the hint (plus jitter). Marked ops that
// exhaust their retries settle with ErrOverloaded; ops the edge accepts
// on a later re-send proceed normally.
func (c *Core) handleOverloaded(now int64, from wire.NodeID, m *wire.Overloaded) []wire.Envelope {
	if from != c.cfg.Edge || c.banned != nil {
		return nil
	}
	if err := wcrypto.VerifyMsg(c.reg, c.cfg.Edge, m, m.EdgeSig); err != nil {
		c.m.verifyFailures.Inc()
		return nil
	}
	c.m.overloads.Inc()
	hint := m.RetryAfter
	if hint <= 0 {
		hint = c.cfg.RetryEvery
	}
	// Collect first: settling mutates the windows being iterated.
	var hit []*Op
	collect := func(_ uint64, op *Op) {
		if op.Done || op.disputed || op.Phase != core.PhaseNone {
			return
		}
		hit = append(hit, op)
	}
	c.bySeq.Each(collect)
	c.byReq.Each(collect)
	for _, op := range hit {
		op.overloaded = true
		if c.cfg.RetryEvery <= 0 {
			// No retry machinery: the shed is terminal for this op —
			// surface the typed failure now instead of hanging forever.
			c.settle(op, ErrOverloaded)
			continue
		}
		if op.attempts == 0 {
			op.attempts = 1
		}
		key := op.Seq
		if key == 0 {
			key = op.ReqID
		}
		next := now + hint + retryJitter(key, uint64(op.attempts), hint/2)
		if next > op.nextResend {
			op.nextResend = next
		}
	}
	return nil
}

// resend rebuilds the wire requests for unsettled ops and aims them at
// the current edge. Writes leave together in one re-MACed batch, each
// under its own seq (what the replay defence keys on) and for the position
// it reserved, if any; reads keep their original request id so a late
// first response and the re-serve settle the same op. Shared by the retry
// pass and post-failover rebind.
func (c *Core) resend(now int64, ops []*Op) []wire.Envelope {
	var writes []*Op
	var out []wire.Envelope
	for _, op := range ops {
		switch op.Kind {
		case KindAdd, KindPut:
			writes = append(writes, op)
		case KindRead:
			out = append(out, wire.Envelope{From: c.cfg.ID, To: c.cfg.Edge, Msg: &wire.ReadRequest{BID: op.BID, ReqID: op.ReqID}})
		case KindGet, KindScan:
			out = append(out, wire.Envelope{From: c.cfg.ID, To: c.cfg.Edge, Msg: scanRequest(op)})
		}
	}
	if len(writes) > 0 {
		out = append(out, c.submit(now, writes)...)
	}
	return out
}
