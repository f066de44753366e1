package client

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"wedgechain/internal/core"
	"wedgechain/internal/merkle"
	"wedgechain/internal/mlsm"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// errL0Window marks get-verification failures rooted in the served L0
// window — a non-contiguous window, a broken cert/digest binding, or a
// slice whose flanks do not bracket the key. These defects are
// cloud-provable (the response echoes the signed key, so the Judge
// re-runs the same checks), which is what upgrades them from mere
// rejection to a dispute.
var errL0Window = errors.New("L0 window evidence defect")

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
	if op.retries >= c.cfg.MaxRetries {
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
		var t0 time.Time
		if c.m.enabled {
			t0 = time.Now()
		}
		c.m.sampledSkips.Inc()
		op.Found = m.Found
		op.GotValue = m.Value
		op.GotVer = m.Ver
		c.phaseI(now, op, 0, nil)
		c.phaseII(now, op)
		if c.m.enabled {
			c.m.verifyLight.Observe(time.Since(t0).Seconds())
		}
		return nil
	}
	verifyStart := time.Now()
	res, err := c.verifyGet(now, op.Key, m)
	verifyDur := time.Since(verifyStart)
	c.m.fullVerifies.Inc()
	c.m.verifyNanos.Add(uint64(verifyDur))
	if c.m.enabled {
		c.m.verifyFull.Observe(verifyDur.Seconds())
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
		return []wire.Envelope{{From: c.cfg.ID, To: c.cfg.Edge, Msg: &wire.GetRequest{Key: op.Key, ReqID: op.ReqID}}}
	}
	if err != nil {
		c.m.verifyFailures.Inc()
		if errors.Is(err, errL0Window) {
			// Defective L0 window in an edge-signed response — a slice that
			// does not bracket the key, a broken digest binding, a
			// non-contiguous window. The response echoes the signed key,
			// so the cloud can re-run these exact checks: settle the
			// operation and accuse the edge with the proof itself.
			c.m.liesDetected.Inc()
			out := c.fileGetDispute(op, 0)
			c.settle(op, fmt.Errorf("%w: %v", ErrBadResponse, err))
			return out
		}
		c.settle(op, fmt.Errorf("%w: %v", ErrBadResponse, err))
		return nil
	}
	op.Found = m.Found
	op.GotValue = m.Value
	op.GotVer = m.Ver
	op.pendingBIDs = res.uncertified
	if len(res.uncertified) == 0 {
		c.phaseI(now, op, 0, nil)
		c.phaseII(now, op)
		return nil
	}
	// Phase I get: register for every uncertified block's proof.
	op.Phase = core.PhaseI
	op.PhaseIAt = now
	if c.OnPhaseI != nil {
		c.OnPhaseI(op)
	}
	for bid := range res.uncertified {
		c.addByBID(bid, op)
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
	_, err := c.verifyGet(now, key, m)
	return err
}

// getCheck is the result of structural get verification.
type getCheck struct {
	uncertified map[uint64][]byte // bid -> locally computed digest
}

// verifyGet re-derives every claim in a get response:
//
//  1. The L0 window — one slice per block — is one consecutive run from
//     the signed compaction frontier; every slice belongs to this chain,
//     brackets the key, and folds to a digest its cloud-signed certificate
//     names or that is pinned for the later one (mlsm.VerifyL0Window, the
//     same checks the cloud's Judge re-runs on dispute evidence).
//  2. The freshest L0 version of the key, if any, must be the returned
//     value (deeper levels are older by construction).
//  3. Otherwise the level roots must fold to the signed global root, the
//     global root must be inside the freshness window, every non-empty
//     level up to the winning level must present its intersecting page
//     with a valid Merkle path, pages must contain the key's range, and
//     levels above the winner must not contain the key.
func (c *Core) verifyGet(now int64, key []byte, m *wire.GetResponse) (getCheck, error) {
	res := getCheck{uncertified: make(map[uint64][]byte)}
	p := &m.Proof

	start, end := wire.PointRange(key)
	win, err := mlsm.VerifyL0Window(mlsm.L0WindowParams{
		Reg:   c.reg,
		Edge:  c.cfg.Chain, // blocks and certificates carry the chain identity
		Cloud: c.cfg.Cloud,
		Start: start,
		End:   end,
	}, p.L0Pruned)
	if err != nil {
		return res, fmt.Errorf("%w: %v", errL0Window, err)
	}
	res.uncertified = win.Uncertified
	l0End := win.L0End

	// Session consistency (Section V-D alternative): the snapshot must
	// not regress behind what this session has already observed, ordered
	// lexicographically by (index epoch, L0 frontier).
	if c.cfg.Session {
		epoch := p.Global.Epoch
		if epoch < c.sessEpoch || (epoch == c.sessEpoch && l0End < c.sessL0End) {
			return res, ErrRegression
		}
	}
	advance := func() {
		if !c.cfg.Session {
			return
		}
		if p.Global.Epoch > c.sessEpoch {
			c.sessEpoch = p.Global.Epoch
			c.sessL0End = l0End
		} else if l0End > c.sessL0End {
			c.sessL0End = l0End
		}
	}

	if hit, ok := win.Freshest(); ok {
		// Winner must come from L0.
		if !m.Found || m.Ver != hit.Ver || !bytes.Equal(m.Value, hit.Value) {
			return res, fmt.Errorf("returned value contradicts L0 contents")
		}
		advance()
		return res, nil
	}

	// No L0 hit: level evidence decides.
	levelEvidence := len(p.Roots) > 0 || len(p.Levels) > 0
	if !levelEvidence && len(p.Global.CloudSig) == 0 {
		// No merged state exists yet, so nothing has ever been compacted:
		// the L0 window must be the log itself, from block 0.
		if err := win.CheckFrontier(&p.Global, levelEvidence, false); err != nil {
			return res, fmt.Errorf("%w: %v", errL0Window, err)
		}
		// Absence is then the only valid answer.
		if m.Found {
			return res, fmt.Errorf("found claimed without any level evidence")
		}
		advance()
		return res, nil
	}
	if len(p.Global.CloudSig) == 0 {
		return res, fmt.Errorf("level evidence without signed global root")
	}
	if err := wcrypto.VerifyMsg(c.reg, c.cfg.Cloud, &p.Global, p.Global.CloudSig); err != nil {
		return res, fmt.Errorf("global root: %v", err)
	}
	if p.Global.Edge != c.cfg.Chain {
		return res, fmt.Errorf("global root for wrong chain")
	}
	if !bytes.Equal(mlsm.GlobalRoot(p.Roots), p.Global.Root) {
		return res, fmt.Errorf("level roots do not fold to global root")
	}
	// The signed compaction frontier (SignedRoot.L0From) pins where the
	// served L0 window must start, so the edge cannot drop its oldest
	// uncompacted blocks — which could hold the key's freshest version —
	// and still claim completeness.
	if err := win.CheckFrontier(&p.Global, levelEvidence, false); err != nil {
		return res, fmt.Errorf("%w: %v", errL0Window, err)
	}
	if c.cfg.FreshnessWindow > 0 && now-p.Global.Ts > c.cfg.FreshnessWindow {
		return res, ErrStale
	}

	proofs := make(map[int]*wire.LevelProof)
	for i := range p.Levels {
		lp := &p.Levels[i]
		proofs[int(lp.Level)] = lp
	}
	empty := merkle.EmptyRoot()

	checkLevel := func(lvl int) (*wire.LevelProof, error) {
		root := p.Roots[lvl-1]
		if bytes.Equal(root, empty) {
			if proofs[lvl] != nil {
				return nil, fmt.Errorf("level %d: proof against empty level", lvl)
			}
			return nil, nil
		}
		lp := proofs[lvl]
		if lp == nil {
			return nil, fmt.Errorf("level %d: missing proof", lvl)
		}
		if int(lp.Page.Level) != lvl {
			return nil, fmt.Errorf("level %d: page from level %d", lvl, lp.Page.Level)
		}
		leaf := mlsm.PageLeaf(&lp.Page)
		if err := merkle.Verify(root, leaf, int(lp.Index), int(lp.Width), lp.Path); err != nil {
			return nil, fmt.Errorf("level %d: %v", lvl, err)
		}
		if !lp.Page.Contains(key) {
			return nil, fmt.Errorf("level %d: page does not cover key", lvl)
		}
		return lp, nil
	}

	findInPage := func(lp *wire.LevelProof) (wire.KV, bool) {
		for i := range lp.Page.KVs {
			if bytes.Equal(lp.Page.KVs[i].Key, key) {
				return lp.Page.KVs[i], true
			}
		}
		return wire.KV{}, false
	}

	if m.Found {
		// Locate the winning level: the shallowest level whose verified
		// page holds the key; all shallower levels must lack it.
		winner := 0
		for lvl := 1; lvl <= len(p.Roots); lvl++ {
			lp, err := checkLevel(lvl)
			if err != nil {
				return res, err
			}
			if lp == nil {
				continue
			}
			if kv, ok := findInPage(lp); ok {
				if !bytes.Equal(kv.Value, m.Value) || kv.Ver != m.Ver {
					return res, fmt.Errorf("level %d value contradicts response", lvl)
				}
				winner = lvl
				break
			}
		}
		if winner == 0 {
			return res, fmt.Errorf("found claimed but no level contains the key")
		}
		advance()
		return res, nil
	}

	// Not found: every level must prove absence.
	for lvl := 1; lvl <= len(p.Roots); lvl++ {
		lp, err := checkLevel(lvl)
		if err != nil {
			return res, err
		}
		if lp == nil {
			continue
		}
		if _, ok := findInPage(lp); ok {
			return res, fmt.Errorf("level %d contains key claimed absent", lvl)
		}
	}
	advance()
	return res, nil
}
