package client

import (
	"errors"
	"fmt"

	"wedgechain/internal/core"
	"wedgechain/internal/scan"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// sameBound compares two range bounds preserving the nil/non-nil
// distinction: nil means ±infinity, which an empty (but present) bound
// must never be conflated with.
func sameBound(a, b []byte) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return string(a) == string(b)
}

// handleScanResponse runs the full verification of a range scan: the
// edge's signature, the echoed range, and the completeness proof (package
// scan). A structurally defective proof is a provable lie — unlike gets,
// whose bad responses are merely rejected, the signed scan proof is filed
// with the cloud and convicts the edge. Stale or session-regressing
// snapshots retry instead, exactly like gets.
func (c *Core) handleScanResponse(now int64, from wire.NodeID, m *wire.ScanResponse, verified bool) []wire.Envelope {
	if from != c.cfg.Edge {
		return nil
	}
	op, ok := c.byReq.Get(m.ReqID)
	if !ok || op.Done || op.Kind != KindScan {
		return nil
	}
	if !verified {
		if err := wcrypto.VerifyMsg(c.reg, c.cfg.Edge, m, m.EdgeSig); err != nil {
			c.m.verifyFailures.Inc()
			return nil
		}
	}
	op.scanEv = m
	op.Edge = from // the node whose signature backs the evidence

	if !sameBound(m.Start, op.ScanStart) || !sameBound(m.End, op.ScanEnd) {
		// A valid proof of a different range than requested is worthless
		// — but not cloud-provable, since requests are unsigned and the
		// cloud cannot know what was asked. Reject without a dispute.
		c.m.verifyFailures.Inc()
		c.settle(op, fmt.Errorf("%w: response covers a different range than requested", ErrBadResponse))
		return nil
	}
	res, err := scan.Verify(scan.Params{
		Reg:             c.reg,
		Edge:            c.cfg.Chain, // blocks, certs and roots carry the chain identity
		Cloud:           c.cfg.Cloud,
		Now:             now,
		FreshnessWindow: c.cfg.FreshnessWindow,
		// The session-owned leaf cache: pages proven against an unchanged
		// level root skip re-hashing on repeated scans (misses — including
		// any tampered page — are re-hashed and judged exactly as cold).
		Cache: c.leafCache,
	}, m)
	if errors.Is(err, scan.ErrStale) {
		err = ErrStale
	}
	if err == nil && c.cfg.Session {
		// Session consistency (Section V-D alternative): the snapshot
		// must not regress behind what this session already observed.
		if res.Epoch < c.sessEpoch || (res.Epoch == c.sessEpoch && res.L0End < c.sessL0End) {
			err = ErrRegression
		}
	}
	if err == ErrStale || err == ErrRegression {
		staleErr := err
		c.m.staleRejected.Inc()
		if op.retries >= c.cfg.MaxRetries {
			c.settle(op, staleErr)
			return nil
		}
		op.retries++
		c.m.retries.Inc()
		req := &wire.ScanRequest{Start: op.ScanStart, End: op.ScanEnd, Limit: uint32(op.ScanLimit), ReqID: op.ReqID}
		return []wire.Envelope{{From: c.cfg.ID, To: c.cfg.Edge, Msg: req}}
	}
	if err != nil {
		// Structural defect in an edge-signed completeness proof: settle
		// the operation and accuse the edge with the proof itself.
		c.m.verifyFailures.Inc()
		c.m.liesDetected.Inc()
		out := c.fileScanDispute(op, 0)
		c.settle(op, fmt.Errorf("%w: %v", ErrBadResponse, err))
		return out
	}
	if c.cfg.Session {
		if res.Epoch > c.sessEpoch {
			c.sessEpoch, c.sessL0End = res.Epoch, res.L0End
		} else if res.L0End > c.sessL0End {
			c.sessL0End = res.L0End
		}
	}

	kvs := res.KVs
	if op.ScanLimit > 0 && len(kvs) > op.ScanLimit {
		kvs = kvs[:op.ScanLimit]
	}
	op.ScanKVs = kvs
	op.pendingBIDs = res.Uncertified
	if len(res.Uncertified) == 0 {
		c.phaseI(now, op, 0, nil)
		c.phaseII(now, op)
		return nil
	}
	// Phase I scan: register for every uncertified block's proof; the
	// derived result stands once each certified digest matches the pinned
	// one.
	op.Phase = core.PhaseI
	op.PhaseIAt = now
	if c.OnPhaseI != nil {
		c.OnPhaseI(op)
	}
	for bid := range res.Uncertified {
		c.addByBID(bid, op)
	}
	return nil
}

// VerifyScanResponse runs the full client-side verification of a scan
// response (signature, echoed range, completeness proof) without mutating
// operation state — the scan counterpart of VerifyGetResponse, used by
// benchmarks that measure verification cost directly.
func (c *Core) VerifyScanResponse(now int64, start, end []byte, m *wire.ScanResponse) error {
	if err := wcrypto.VerifyMsg(c.reg, c.cfg.Edge, m, m.EdgeSig); err != nil {
		return err
	}
	if !sameBound(m.Start, start) || !sameBound(m.End, end) {
		return fmt.Errorf("response covers a different range than requested")
	}
	_, err := scan.Verify(scan.Params{
		Reg:             c.reg,
		Edge:            c.cfg.Chain,
		Cloud:           c.cfg.Cloud,
		Now:             now,
		FreshnessWindow: c.cfg.FreshnessWindow,
		Cache:           c.leafCache,
	}, m)
	return err
}

// fileScanDispute accuses the edge with the signed scan response as
// evidence — for a structural proof defect (any bid) or a certified-digest
// contradiction on one L0 block (that bid).
func (c *Core) fileScanDispute(op *Op, bid uint64) []wire.Envelope {
	if op.disputed || op.scanEv == nil {
		return nil
	}
	return c.accuse(op, bid, core.BuildScanLieDispute(c.key, op.Edge, bid, op.scanEv))
}
