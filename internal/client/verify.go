package client

import (
	"bytes"
	"errors"

	"wedgechain/internal/core"
	"wedgechain/internal/scan"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// handleReadResponse processes the three read cases of Section IV-D:
// denial, Phase II read, Phase I read. As for gets and scans
// (verifyRead), the edge's signature is checked only where the client
// acts on the edge's word: a Phase II read whose block the cloud's proof
// binds needs none.
func (c *Core) handleReadResponse(now int64, from wire.NodeID, m *wire.ReadResponse) []wire.Envelope {
	if from != c.cfg.Edge {
		return nil
	}
	op, ok := c.byReq.Get(m.ReqID)
	if !ok || op.Done || op.Kind != KindRead {
		return nil
	}
	digest := m.Block.BodyDigest()
	p := &m.Proof
	certified := m.OK && m.HasProof && p.Edge == c.cfg.Chain && p.BID == m.BID && bytes.Equal(p.Digest, digest) &&
		wcrypto.VerifyMsg(c.reg, c.cfg.Cloud, p, p.CloudSig) == nil
	if !certified {
		if err := wcrypto.VerifyReadResponse(c.reg, c.cfg.Edge, m, digest); err != nil {
			c.m.verifyFailures.Inc()
			return nil
		}
	}
	if op.Phase >= core.PhaseI && op.readEv != nil {
		// Re-serve of a read that already holds Phase I evidence (the
		// failover rebind path): the original promise stays binding —
		// only the embedded certificate is harvested, and handleProof
		// judges it against the pinned digest exactly like a forwarded
		// proof. The promise and the certificate may name different
		// nodes (old leader promised, new leader serves), which is why
		// the evidence is never overwritten here.
		if m.OK && m.HasProof {
			return c.handleProof(now, from, p)
		}
		return nil
	}
	op.readEv = m
	op.Edge = from // the node whose signature backs the evidence
	if !m.OK {
		return c.handleDenial(now, op, m)
	}
	if m.Block.ID != m.BID || m.Block.Edge != c.cfg.Chain {
		c.m.verifyFailures.Inc()
		c.settle(op, ErrBadResponse)
		return nil
	}
	op.Block = &m.Block
	if m.HasProof {
		// Phase II read: proof must be cloud-signed and match.
		if !certified {
			c.m.verifyFailures.Inc()
			c.settle(op, ErrBadResponse)
			return nil
		}
		c.phaseI(now, op, m.BID, digest)
		c.phaseII(now, op)
		return nil
	}
	// Phase I read: hold evidence, await the forwarded proof.
	c.phaseI(now, op, m.BID, digest)
	return nil
}

// handleDenial evaluates a signed not-available response against cloud
// gossip: a denial of a gossip-covered block filed at or after the gossip
// timestamp is a provable omission; a denial predating the gossip triggers
// a retry (the edge may honestly not have had the block yet).
func (c *Core) handleDenial(now int64, op *Op, m *wire.ReadResponse) []wire.Envelope {
	g := c.checkedGossip()
	if g == nil || m.BID >= g.Blocks {
		// No evidence the block exists; accept unavailability.
		c.settle(op, ErrUnavailable)
		return nil
	}
	if m.Ts >= g.Ts {
		// Provable omission.
		c.m.liesDetected.Inc()
		if op.disputed {
			return nil
		}
		op.disputed = true
		c.accused = append(c.accused, op)
		c.m.disputes.Inc()
		d := core.BuildOmissionDispute(c.key, op.Edge, m, g)
		return []wire.Envelope{{From: c.cfg.ID, To: c.cfg.Cloud, Msg: d}}
	}
	// Denial predates the gossip: retry the read.
	if op.retries >= maxRetries {
		c.settle(op, ErrUnavailable)
		return nil
	}
	op.retries++
	c.m.retries.Inc()
	return []wire.Envelope{{From: c.cfg.ID, To: c.cfg.Edge, Msg: &wire.ReadRequest{BID: op.BID, ReqID: op.ReqID}}}
}

// awaitRead completes a verified get or scan: at once when its whole L0
// window was certified, else in Phase I until every uncertified block's
// proof matches the digest pinned for it.
func (c *Core) awaitRead(now int64, op *Op, uncertified map[uint64][]byte) {
	op.pendingBIDs = uncertified
	if len(uncertified) == 0 {
		c.phaseI(now, op, 0, nil)
		c.phaseII(now, op)
		return
	}
	op.Phase = core.PhaseI
	op.PhaseIAt = now
	if c.OnPhaseI != nil {
		c.OnPhaseI(op)
	}
	for bid := range uncertified {
		c.addByBID(bid, op)
	}
}

// readParams configures the shared read verifier for this session.
func (c *Core) readParams(now int64) scan.Params {
	return scan.Params{
		Reg:             c.reg,
		Edge:            c.cfg.Chain, // blocks, certs and roots carry the chain identity
		Cloud:           c.cfg.Cloud,
		Now:             now,
		FreshnessWindow: c.cfg.FreshnessWindow,
	}
}

// snapshotErr maps a read verification's outcome to the retry
// conditions — ErrStale for a snapshot outside the freshness window and,
// with session consistency (Section V-D alternative), ErrRegression for
// one behind what this session already observed, ordered
// lexicographically by (index epoch, L0 frontier). verifyRead moves the
// session watermarks up to a snapshot it admits.
func (c *Core) snapshotErr(res scan.Result, err error) error {
	if errors.Is(err, scan.ErrStale) {
		return ErrStale
	}
	if err != nil || !c.cfg.Session {
		return err
	}
	if res.Epoch < c.sessEpoch || (res.Epoch == c.sessEpoch && res.L0End < c.sessL0End) {
		return ErrRegression
	}
	return nil
}
