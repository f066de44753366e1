package client

import (
	"wedgechain/internal/core"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Retry: jittered re-sends of operations the edge never answered. Under a
// lossy or partitioned network a request (or its response) frame can
// simply vanish; the op would then wait out its whole budget and fail for
// want of one frame. Every client runs one rule, with no option: an op
// that has not reached Phase I is re-MACed and re-sent T/8, T/4 and T/2
// after it started (each mark plus deterministic jitter under half of
// it), where T is the proof timeout, and at T it settles with
// ErrUnavailable — or ErrOverloaded if the edge shed it. A failover
// rebind restarts the schedule. Phase I ops are NOT retried here: they
// hold a signed acknowledgement, and the proof-timeout dispute machinery
// is their escalation path.
//
// Re-sends are idempotent end to end: the edge's replay defence re-acks a
// write whose entry already sits in the log byte-identically, and reads
// re-serve under their original request id.

// resendMarks is the number of re-send marks before the deadline: T/8,
// T/4 and T/2, so an op is sent at most four times.
const resendMarks = 3

// tickRetry runs the retry pass. Walks are amortised: a walk records the
// earliest mark it saw, and the next walk waits for it. A mark is never
// closer than T/8 to the start or rebind it counts from, so no op started
// or rebound after a walk is due before now+T/8 either. Due ops are
// collected first, then settled or re-sent — settling mutates the windows
// being iterated.
func (c *Core) tickRetry(now int64) []wire.Envelope {
	if now < c.retryAt {
		return nil
	}
	c.retryAt = now + c.cfg.ProofTimeout/8
	var due []*Op
	collect := func(_ uint64, op *Op) {
		if op.Done || op.disputed || op.Phase != core.PhaseNone {
			return
		}
		c.schedule(op)
		if op.nextResend > now {
			c.retryAt = min(c.retryAt, op.nextResend)
			return
		}
		due = append(due, op)
	}
	c.bySeq.Each(collect)
	c.byReq.Each(collect)
	var again []*Op
	for _, op := range due {
		if now >= op.budgetFrom+c.cfg.ProofTimeout {
			// An op the edge explicitly shed fails as "overloaded, come
			// back later"; silence stays the generic unavailable.
			if op.overloaded {
				c.settle(op, ErrOverloaded)
			} else {
				c.settle(op, ErrUnavailable)
			}
			continue
		}
		// Marks a late tick (or a shed hint) carried the op past are
		// skipped: one re-send per pass, never a burst.
		for op.mark <= resendMarks && c.markAt(op, op.mark) <= now {
			op.mark++
		}
		op.nextResend = c.markAt(op, op.mark)
		c.retryAt = min(c.retryAt, op.nextResend)
		c.m.resends.Inc()
		again = append(again, op)
	}
	return c.resend(now, again)
}

// schedule arms an op's first mark, counted from its start, the first
// time the retry machinery looks at it.
func (c *Core) schedule(op *Op) {
	if op.mark == 0 {
		c.restartSchedule(op, op.StartedAt)
	}
}

// restartSchedule counts the op's budget afresh from now: its start, or
// a failover rebind.
func (c *Core) restartSchedule(op *Op, now int64) {
	op.budgetFrom, op.mark = now, 1
	op.nextResend = c.markAt(op, 1)
}

// markAt is when the op's k-th mark falls: T/8, T/4 and T/2 after the
// time its budget counts from, plus deterministic jitter in [0, mark/2)
// so a fleet of clients cut off by the same partition does not thunder
// back in lockstep — while the same run under the same seed stays
// reproducible. Past the last re-send mark lies the deadline, T.
func (c *Core) markAt(op *Op, k int) int64 {
	if k > resendMarks {
		return op.budgetFrom + c.cfg.ProofTimeout
	}
	base := c.cfg.ProofTimeout >> (resendMarks + 1 - k)
	return op.budgetFrom + base + retryJitter(opKey(op), uint64(k), base/2)
}

// opKey is the op's jitter key: its seq for a write, its request id for
// a read.
func opKey(op *Op) uint64 {
	if op.Seq != 0 {
		return op.Seq
	}
	return op.ReqID
}

// retryJitter hashes (op key, mark) through a splitmix64 finalizer to a
// value in [0, span) — random-looking across ops and marks, identical
// across runs.
func retryJitter(key, mark uint64, span int64) int64 {
	if span <= 0 {
		return 0
	}
	x := key*0x9e3779b97f4a7c15 + mark*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
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
// their next re-send pushed past the hint (plus jitter), never past their
// deadline. Marked ops still unacknowledged at the deadline settle with
// ErrOverloaded; ops the edge accepts on a later re-send proceed normally.
func (c *Core) handleOverloaded(now int64, from wire.NodeID, m *wire.Overloaded) []wire.Envelope {
	if from != c.cfg.Edge || c.banned != nil {
		return nil
	}
	if err := wcrypto.VerifyMsg(c.reg, c.cfg.Edge, m, m.EdgeSig); err != nil {
		c.m.verifyFailures.Inc()
		return nil
	}
	c.m.overloads.Inc()
	hit := func(_ uint64, op *Op) {
		if op.Done || op.disputed || op.Phase != core.PhaseNone {
			return
		}
		op.overloaded = true
		c.schedule(op)
		next := now + m.RetryAfter + retryJitter(opKey(op), uint64(op.mark), m.RetryAfter/2)
		op.nextResend = min(max(op.nextResend, next), op.budgetFrom+c.cfg.ProofTimeout)
	}
	c.bySeq.Each(hit)
	c.byReq.Each(hit)
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
