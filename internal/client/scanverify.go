package client

import (
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
// scan). A structurally defective proof is a provable lie, filed with the
// cloud, and convicts the edge; stale or session-regressing snapshots
// retry instead, exactly like gets.
func (c *Core) handleScanResponse(now int64, from wire.NodeID, m *wire.ScanResponse) []wire.Envelope {
	if from != c.cfg.Edge {
		return nil
	}
	op, ok := c.byReq.Get(m.ReqID)
	if !ok || op.Done || op.Kind != KindScan {
		return nil
	}
	if err := wcrypto.VerifyMsg(c.reg, c.cfg.Edge, m, m.EdgeSig); err != nil {
		c.m.verifyFailures.Inc()
		return nil
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
	res, err := scan.Verify(c.readParams(now), m)
	if err = c.admitSnapshot(res, err); err != nil {
		retry := &wire.ScanRequest{Start: op.ScanStart, End: op.ScanEnd, Limit: uint32(op.ScanLimit), ReqID: op.ReqID}
		return c.rejectRead(op, err, retry, func() []wire.Envelope { return c.fileScanDispute(op, 0) })
	}
	kvs := res.KVs
	if op.ScanLimit > 0 && len(kvs) > op.ScanLimit {
		kvs = kvs[:op.ScanLimit]
	}
	op.ScanKVs = kvs
	// The derived result stands once each uncertified block's certified
	// digest matches the pinned one.
	c.awaitRead(now, op, res.Uncertified)
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
	_, err := scan.Verify(c.readParams(now), m)
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
