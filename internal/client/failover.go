package client

import (
	"wedgechain/internal/core"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Failover (client side): the cloud's signed LeadershipTransfer rebinds
// the session from a demoted or dead leader to the promoted replica of
// the same chain. Verification state carries over untouched — blocks,
// certificates and gossip are chain-scoped, so everything the session
// pinned under the old leader still binds under the new one. What needs
// work is the in-flight window: requests parked on the old node would
// otherwise wait out their proof timeout, so the client re-sends them.
// The promoted leader's replay defence recognises writes that already
// live in a mirrored block and re-acknowledges from that block, which
// makes the re-send idempotent; reads, gets and scans are simply served
// again from the new node's identical chain state.

// handleTransfer applies a cloud-signed leadership transfer for this
// session's chain: newer epochs rebind cfg.Edge to the promoted replica,
// remember the demoted node (its conviction must settle old disputes
// without freezing the chain), lift any ban recorded against it, and
// re-send every unsettled operation to the new leader.
func (c *Core) handleTransfer(now int64, from wire.NodeID, m *wire.LeadershipTransfer) []wire.Envelope {
	if m.Chain != c.cfg.Chain {
		return nil
	}
	// Checked against the cloud's key whoever delivered it: the cloud, or
	// a demoted node re-announcing it.
	if err := wcrypto.VerifyMsg(c.reg, c.cfg.Cloud, m, m.CloudSig); err != nil {
		c.m.verifyFailures.Inc()
		return nil
	}
	if m.Epoch <= c.epoch {
		return nil // stale or replayed transfer
	}
	c.epoch = m.Epoch
	if m.NewLeader == c.cfg.Edge {
		return nil
	}
	if c.formers == nil {
		c.formers = make(map[wire.NodeID]bool)
	}
	c.formers[c.cfg.Edge] = true
	delete(c.formers, m.NewLeader)
	c.cfg.Edge = m.NewLeader
	c.m.failovers.Inc()
	// A ban against the demoted node no longer blocks the chain: the
	// cloud vouched for the successor by signing the transfer.
	if c.banned != nil && c.banned.Edge != c.cfg.Edge {
		c.banned = nil
	}
	return c.rebind(now)
}

// rebind re-sends every unsettled operation to the (new) current edge.
//
//   - Writes are re-MACed for the new edge and re-submitted, all in one
//     batch. If an entry already sits in a block the new leader
//     inherited, the replay defence re-acks from that block (and
//     re-attaches or re-subscribes its proof); otherwise the entry is
//     appended fresh. An AddAt re-submits for the position it reserved,
//     never for another: reservations die with the old leader,
//     so a successor that does not hold the slot refuses the entry and the
//     op fails (ErrUnavailable at its deadline) instead of landing where
//     the caller did not ask.
//   - Every op's clock restarts, so time lost to the outage does not count
//     against the proof timeout: a Phase I op's wait for its proof, and an
//     unanswered op's re-send schedule and deadline (retry.go).
//   - Reads, gets and scans are re-requested under their original request
//     id. A read that already holds Phase I evidence only harvests the
//     certificate from the re-serve (see handleReadResponse); gets and
//     scans re-verify the fresh response from scratch.
//
// Disputed ops are left alone — their accusation is already with the
// cloud and the verdict, not the new leader, settles them.
func (c *Core) rebind(now int64) []wire.Envelope {
	var live []*Op
	collect := func(_ uint64, op *Op) {
		if op.Done || op.disputed {
			return
		}
		if op.Phase == core.PhaseI {
			op.PhaseIAt = now
		}
		c.restartSchedule(op, now)
		live = append(live, op)
	}
	c.bySeq.Each(collect)
	c.byReq.Each(collect)
	return c.resend(now, live)
}
