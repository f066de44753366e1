package client

import (
	"errors"
	"fmt"
	"time"

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

// handleScanResponse runs the full verification of a range scan or a get
// (the scan of one key): the echoed range and the completeness proof
// (package scan), and the edge's signature where the client needs the
// response as evidence (verifyRead). A structurally defective proof is a
// provable lie, filed with the cloud, and convicts the edge; stale or
// session-regressing snapshots retry instead.
func (c *Core) handleScanResponse(now int64, from wire.NodeID, m *wire.ScanResponse) []wire.Envelope {
	if from != c.cfg.Edge {
		return nil
	}
	op, ok := c.byReq.Get(m.ReqID)
	if !ok || op.Done || (op.Kind != KindScan && op.Kind != KindGet) {
		return nil
	}
	if !sameBound(m.Start, op.ScanStart) || !sameBound(m.End, op.ScanEnd) {
		// A valid proof of a different range than requested is worthless
		// — but not cloud-provable, since requests are unsigned and the
		// cloud cannot know what was asked. Reject without a dispute.
		if !c.edgeSigned(m) {
			return nil
		}
		c.m.verifyFailures.Inc()
		c.settle(op, fmt.Errorf("%w: response covers a different range than requested", ErrBadResponse))
		return nil
	}
	if op.Kind == KindGet && c.cfg.Light && c.gossip != nil && !c.sampleHit(m.ReqID) {
		// Light-client fast path: the edge's signature on the response is
		// checked and a cloud-signed gossiped frontier vouches that
		// certification is chasing this edge's log, so the structural
		// proof verification — the dominant client CPU cost — is skipped
		// for all but a seeded sample of gets, and the answer is read out
		// of the unverified evidence. The edge cannot tell which request
		// will be audited, so any lie it serves is caught with probability
		// 1/SampleEvery per response and convicts exactly as a full
		// client's would: the expected-conviction guarantee of lazy trust
		// is unchanged, only amortized. Session watermarks do not advance
		// here — only fully verified responses may move them.
		if !c.edgeSigned(m) {
			return nil
		}
		t0 := time.Now()
		c.m.sampledSkips.Inc()
		kv, found := scan.PointAnswer(m)
		op.Found, op.GotValue, op.GotVer = found, kv.Value, kv.Ver
		c.phaseI(now, op, 0, nil)
		c.phaseII(now, op)
		c.m.verifyLight.Observe(time.Since(t0).Seconds())
		return nil
	}
	res, err := c.verifyRead(now, m)
	if err == errEdgeSig {
		return nil
	}
	// The evidence a dispute files: verifyRead checked its signature
	// wherever one can follow.
	op.scanEv = m
	op.Edge = from
	if err != nil {
		return c.rejectRead(op, err, scanRequest(op), func() []wire.Envelope { return c.fileScanDispute(op, 0) })
	}
	kvs := res.KVs
	if op.ScanLimit > 0 && len(kvs) > op.ScanLimit {
		kvs = kvs[:op.ScanLimit]
	}
	op.ScanKVs = kvs
	if op.Kind == KindGet && len(kvs) > 0 {
		op.Found, op.GotValue, op.GotVer = true, kvs[0].Value, kvs[0].Ver
	}
	// The derived result stands once each uncertified block's certified
	// digest matches the pinned one.
	c.awaitRead(now, op, res.Uncertified)
	return nil
}

// errEdgeSig marks a response dropped for a needed edge signature that
// did not verify.
var errEdgeSig = errors.New("edge signature does not verify")

// verifyRead runs the read verifier over m and admits its snapshot. It
// checks the edge's signature only before the client acts on the edge's
// word: a defect to dispute, a stale or regressed snapshot to retry, an
// uncertified block whose pinned digest is evidence. A valid response
// whose every row is bound to a cloud signature (certified slices, the
// signed global root) shows a snapshot the edge itself could serve, and
// is never filed: it needs none.
func (c *Core) verifyRead(now int64, m *wire.ScanResponse) (scan.Result, error) {
	verifyStart := time.Now()
	res, err := scan.Verify(c.readParams(now), m)
	verifyDur := time.Since(verifyStart)
	c.m.fullVerifies.Inc()
	c.m.verifyNanos.Add(uint64(verifyDur))
	c.m.verifyFull.Observe(verifyDur.Seconds())
	err = c.snapshotErr(res, err)
	if (err != nil || len(res.Uncertified) > 0) && !c.edgeSigned(m) {
		return res, errEdgeSig
	}
	if err == nil && c.cfg.Session {
		c.sessEpoch, c.sessL0End = res.Epoch, res.L0End
	}
	return res, err
}

// edgeSigned checks the edge's signature on a read response, counting a
// failure.
func (c *Core) edgeSigned(m *wire.ScanResponse) bool {
	if err := wcrypto.VerifyMsg(c.reg, c.cfg.Edge, m, m.EdgeSig); err != nil {
		c.m.verifyFailures.Inc()
		return false
	}
	return true
}

// VerifyScanResponse runs the client-side verification of a scan
// response (echoed range, completeness proof, session watermarks, and the
// edge's signature where verifyRead needs it) without mutating operation
// state — the client half of the read path (a get's over its point
// range), used by benchmarks that measure verification cost directly.
func (c *Core) VerifyScanResponse(now int64, start, end []byte, m *wire.ScanResponse) error {
	if !sameBound(m.Start, start) || !sameBound(m.End, end) {
		return fmt.Errorf("response covers a different range than requested")
	}
	_, err := c.verifyRead(now, m)
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
