package client

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"wedgechain/internal/core"
	"wedgechain/internal/scan"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// handleReadResponse processes the three read cases of Section IV-D:
// denial, Phase II read, Phase I read.
func (c *Core) handleReadResponse(now int64, from wire.NodeID, m *wire.ReadResponse, digest []byte) []wire.Envelope {
	if from != c.cfg.Edge {
		return nil
	}
	op, ok := c.byReq.Get(m.ReqID)
	if !ok || op.Done || op.Kind != KindRead {
		return nil
	}
	if digest == nil {
		digest = m.Block.BodyDigest()
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
			p := m.Proof
			return c.handleProof(now, from, &p, false)
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
		p := m.Proof
		if err := wcrypto.VerifyMsg(c.reg, c.cfg.Cloud, &p, p.CloudSig); err != nil ||
			p.Edge != c.cfg.Chain || p.BID != m.BID || !bytes.Equal(p.Digest, digest) {
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
	g := c.gossip
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

// handleGetResponse performs the full LSMerkle proof verification of
// Section V-B and the freshness check of Section V-D.
func (c *Core) handleGetResponse(now int64, from wire.NodeID, m *wire.GetResponse, verified bool) []wire.Envelope {
	if from != c.cfg.Edge {
		return nil
	}
	op, ok := c.byReq.Get(m.ReqID)
	if !ok || op.Done || op.Kind != KindGet {
		return nil
	}
	if !verified {
		if err := wcrypto.VerifyMsg(c.reg, c.cfg.Edge, m, m.EdgeSig); err != nil {
			c.m.verifyFailures.Inc()
			return nil
		}
	}
	op.getEv = m
	op.Edge = from // the node whose signature backs the evidence
	if !bytes.Equal(m.Key, op.Key) {
		// A valid proof about a different key than requested is worthless
		// — but not cloud-provable, since requests are unsigned and the
		// cloud cannot know what was asked. Reject without a dispute.
		c.m.verifyFailures.Inc()
		c.settle(op, fmt.Errorf("%w: response answers a different key than requested", ErrBadResponse))
		return nil
	}
	if c.cfg.Light && c.gossip != nil && !c.sampleHit(m.ReqID) {
		// Light-client fast path: the edge's signature on the response has
		// been checked (inline or by the verify pool) and a cloud-signed
		// gossiped frontier vouches that certification is chasing this
		// edge's log, so the structural proof verification — the dominant
		// client CPU cost — is skipped for all but a seeded sample of
		// responses. The edge cannot tell which request will be audited,
		// so any lie it serves is caught with probability 1/SampleEvery
		// per response and convicts exactly as a full client's would: the
		// expected-conviction guarantee of lazy trust is unchanged, only
		// amortized. Session watermarks do not advance here — only fully
		// verified responses may move them.
		t0 := time.Now()
		c.m.sampledSkips.Inc()
		op.Found = m.Found
		op.GotValue = m.Value
		op.GotVer = m.Ver
		c.phaseI(now, op, 0, nil)
		c.phaseII(now, op)
		c.m.verifyLight.Observe(time.Since(t0).Seconds())
		return nil
	}
	verifyStart := time.Now()
	res, err := c.verifyGet(now, m)
	verifyDur := time.Since(verifyStart)
	c.m.fullVerifies.Inc()
	c.m.verifyNanos.Add(uint64(verifyDur))
	c.m.verifyFull.Observe(verifyDur.Seconds())
	if err != nil {
		retry := &wire.GetRequest{Key: op.Key, ReqID: op.ReqID}
		return c.rejectRead(op, err, retry, func() []wire.Envelope { return c.fileGetDispute(op, 0) })
	}
	op.Found = m.Found
	op.GotValue = m.Value
	op.GotVer = m.Ver
	c.awaitRead(now, op, res.Uncertified)
	return nil
}

// rejectRead answers a get or scan whose verification failed. A stale
// snapshot, or one behind what this session already observed, is retried
// with req. Any other defect is in edge-signed, self-contained evidence —
// the response echoes what it answers — so the op settles and the
// response is filed with the cloud, whose Judge re-runs the same
// verifier.
func (c *Core) rejectRead(op *Op, err error, req wire.Message, dispute func() []wire.Envelope) []wire.Envelope {
	if err == ErrStale || err == ErrRegression {
		c.m.staleRejected.Inc()
		if op.retries >= maxRetries {
			c.settle(op, err)
			return nil
		}
		op.retries++
		c.m.retries.Inc()
		return []wire.Envelope{{From: c.cfg.ID, To: c.cfg.Edge, Msg: req}}
	}
	c.m.verifyFailures.Inc()
	c.m.liesDetected.Inc()
	out := dispute()
	c.settle(op, fmt.Errorf("%w: %v", ErrBadResponse, err))
	return out
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

// admitSnapshot maps a read verification's outcome to the retry
// conditions — ErrStale for a snapshot outside the freshness window and,
// with session consistency (Section V-D alternative), ErrRegression for
// one behind what this session already observed, ordered
// lexicographically by (index epoch, L0 frontier) — and moves the session
// watermarks up to a snapshot it admits.
func (c *Core) admitSnapshot(res scan.Result, err error) error {
	if errors.Is(err, scan.ErrStale) {
		return ErrStale
	}
	if err != nil || !c.cfg.Session {
		return err
	}
	switch {
	case res.Epoch < c.sessEpoch || (res.Epoch == c.sessEpoch && res.L0End < c.sessL0End):
		return ErrRegression
	case res.Epoch > c.sessEpoch:
		c.sessEpoch, c.sessL0End = res.Epoch, res.L0End
	default:
		c.sessL0End = res.L0End
	}
	return nil
}

// sampleHit decides whether a light-mode response is audited: a
// splitmix64 hash of (seed, request id) picks 1 in SampleEvery requests —
// deterministic per seed, so runs reproduce, yet unpredictable to the
// edge, which never learns the seed. SampleEvery <= 1 audits everything
// (how conviction tests force the sample to hit).
func (c *Core) sampleHit(reqID uint64) bool {
	if c.cfg.SampleEvery <= 1 {
		return true
	}
	return retryJitter(c.cfg.SampleSeed^reqID, 0x5bf03635, int64(c.cfg.SampleEvery)) == 0
}

// VerifyGetResponse runs the full client-side verification of a get
// response (signature + proofs) without mutating operation state — the
// client half of the best-case read path that Figure 5(d) measures with
// real crypto.
func (c *Core) VerifyGetResponse(now int64, key []byte, m *wire.GetResponse) error {
	if err := wcrypto.VerifyMsg(c.reg, c.cfg.Edge, m, m.EdgeSig); err != nil {
		return err
	}
	if !bytes.Equal(m.Key, key) {
		return fmt.Errorf("response answers a different key than requested")
	}
	_, err := c.verifyGet(now, m)
	return err
}

// verifyGet re-derives every claim in a get response with the verifier
// scans use (scan.VerifyGet, which the cloud's Judge re-runs on dispute
// evidence), reading it as the scan of the one key: the L0 window is one
// consecutive run from the signed compaction frontier whose slices
// bracket the key and fold to certified or pinned digests; unless the key
// is in it, every non-empty level down to the first holding the key ships
// its intersecting page, cut to the key and folded to the signed level
// root; and the answer is the newest version this evidence shows.
func (c *Core) verifyGet(now int64, m *wire.GetResponse) (scan.Result, error) {
	res, err := scan.VerifyGet(c.readParams(now), m)
	return res, c.admitSnapshot(res, err)
}
