// Package scan implements verified range scans over the LSMerkle index:
// multi-key reads whose responses prove not only that every returned
// record is authentic but that no certified record in the requested range
// was omitted.
//
// The completeness argument stacks three facts. Every page leaf commits
// the page's [Lo, Hi) bounds and the root over its records (mlsm.PageLeaf),
// a level's pages partition the keyspace contiguously (mlsm.CheckLevel,
// enforced by the trusted cloud at merge time before it signs the level
// roots), and a Merkle range proof (merkle.VerifyRange) pins a presented
// page run to consecutive leaf positions. A verified run whose first page
// contains the scan's start and whose last page covers its end therefore
// contains every certified record of the range at that level. Each page
// ships cut to its records in range and the one on either side, folded to
// its root by a range proof of its own, so the flanks bracket the request
// inside the page the way the boundary pages bracket it inside the level.
// Adding every uncompacted L0 block (whose certificates — or
// later-arriving proofs — pin their content) covers the unmerged suffix.
// The client derives the result from this evidence rather than trusting a
// result list, so the edge's only possible lie is a defective proof, and a
// defective signed proof is self-incriminating: the cloud re-runs this
// same verifier during adjudication.
//
// A get is the scan of one key: a ScanRequest over wire.PointRange(key).
// Assemble and Verify recognise that range (wire.IsPointRange) and stop at
// the key's newest version — its L0 hit, or the first level holding it —
// so a get ships nothing below its answer.
//
// Both the WedgeChain edge (assembly) and the client and cloud
// (verification) use this one implementation, mirroring how package mlsm
// shares the merge computation.
package scan

import (
	"bytes"
	"errors"
	"fmt"

	"wedgechain/internal/merkle"
	"wedgechain/internal/mlsm"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// ErrStale reports a scan served from a snapshot whose global root
// timestamp fell outside the verifier's freshness window. It is a
// retryable condition, not a provable lie — wall clocks are involved —
// so it is distinguished from verification failures.
var ErrStale = errors.New("scan: snapshot outside freshness window")

// Assemble builds the unsigned scan response for [start, end) against the
// given L0 snapshot and merged index — the proof-construction half of the
// protocol, run by the edge. Every window block ships as its slice for the
// range; for each non-empty level it includes every page overlapping the
// range (the boundary pages included, since their committed bounds prove
// completeness at both ends), each cut to the range, under one Merkle
// range proof. A point range (a get) stops at its answer: a window that
// holds the key ships alone — every level is older — and otherwise the
// levels stop at the first whose cut holds the key.
func Assemble(start, end []byte, reqID uint64, l0 mlsm.L0Source, idx *mlsm.Index) *wire.ScanResponse {
	resp := &wire.ScanResponse{ReqID: reqID, Start: start, End: end}
	resp.Proof.L0Pruned = l0.Window(start, end)
	point := wire.IsPointRange(start, end)
	if point && len(mlsm.WindowKVs(resp.Proof.L0Pruned)) > 0 {
		return resp
	}
	for lvl := 1; lvl <= idx.Levels(); lvl++ {
		a, b := idx.PageRange(lvl, start, end)
		if a < 0 {
			continue // empty level: its root is EmptyRoot, checked by verifiers
		}
		lp, err := idx.LevelRangeProof(lvl, a, b, start, end)
		if err != nil {
			continue
		}
		resp.Proof.Levels = append(resp.Proof.Levels, lp)
		if point && len(levelKVs(&lp, start, end)) > 0 {
			break
		}
	}
	if g := idx.Global(); len(g.CloudSig) > 0 {
		resp.Proof.Roots = idx.Roots()
		resp.Proof.Global = g
	}
	return resp
}

// PinsDigest reports whether m's L0 window pins a digest on the edge's
// word: some slice carries no certificate. Only such an answer can become
// evidence, so an honest edge signs exactly these and a client checks the
// signature on exactly these; cloud signatures bind every other answer.
func PinsDigest(m *wire.ScanResponse) bool {
	for i := range m.Proof.L0Pruned {
		if len(m.Proof.L0Pruned[i].CertSig) == 0 {
			return true
		}
	}
	return false
}

// Params configures verification: whose evidence is being judged, against
// which registry, and under what freshness bound. A zero FreshnessWindow
// disables the staleness check — the cloud adjudicating a dispute sets it
// to zero, since staleness is time-relative and not provable after the
// fact, while structural defects are.
type Params struct {
	Reg             *wcrypto.Registry
	Edge            wire.NodeID
	Cloud           wire.NodeID
	Now             int64
	FreshnessWindow int64
}

// Result is the outcome of a successful verification.
type Result struct {
	// KVs is the derived result: every certified (or Phase I promised)
	// record in the range, newest version per key, ordered by key — for a
	// get, the key's newest version or nothing. No limit is applied —
	// truncation is the caller's choice.
	KVs []wire.KV
	// Uncertified maps each L0 block id lacking a certificate to the
	// locally recomputed digest the later-arriving proof must match.
	Uncertified map[uint64][]byte
	// Epoch is the index epoch of the snapshot (0 when no merged state
	// existed yet, or a get resolved in L0) and L0End one past the highest
	// served L0 block id — the session-consistency watermark pair.
	Epoch uint64
	L0End uint64
}

// Verify re-derives every claim in a scan response: the L0 window's
// slices and certificates, the signed global root, per-level Merkle
// range proofs, page-run contiguity, boundary coverage at both ends, each
// page's cut, and finally the result itself. A point range (a get) stops
// at the key's newest version — its L0 hit, or the first level holding
// it — and reads no evidence below that. It returns ErrStale for an
// out-of-window snapshot and a descriptive error for every structural
// defect.
func Verify(p Params, m *wire.ScanResponse) (Result, error) {
	if m.Start != nil && m.End != nil && bytes.Compare(m.Start, m.End) >= 0 {
		return Result{}, fmt.Errorf("empty key range")
	}
	start, end, pr := m.Start, m.End, &m.Proof
	point := wire.IsPointRange(start, end)
	// The L0 window, one slice per block: the shared window checks.
	win, err := mlsm.VerifyL0Window(mlsm.L0WindowParams{
		Reg: p.Reg, Edge: p.Edge, Cloud: p.Cloud, Start: start, End: end,
	}, pr.L0Pruned)
	res := Result{Uncertified: win.Uncertified, L0End: win.L0End}
	if err != nil {
		return res, err
	}
	cand := win.Rows
	if point && len(cand) > 0 {
		// A get whose key is in the window: every block before the hit,
		// and every level, is older than it, so no index state is needed.
		res.KVs = mlsm.MergeNewest(cand)
		return res, nil
	}

	levelEvidence := len(pr.Roots) > 0 || len(pr.Levels) > 0
	global := &pr.Global
	if !levelEvidence && len(global.CloudSig) == 0 {
		// No merged state exists yet, so nothing has ever been compacted:
		// the L0 window must be the log itself, from block 0. This also
		// defuses a rollback attack — an edge with merged state that
		// presents the no-merged-state shape must replay its full
		// certified history (consecutiveness plus per-block certificates
		// pin it), which contains every compacted record anyway.
		if err := win.CheckFrontier(global, levelEvidence); err != nil {
			return res, err
		}
		res.KVs = mlsm.MergeNewest(cand)
		return res, nil
	}
	if len(global.CloudSig) == 0 {
		return res, fmt.Errorf("level evidence without signed global root")
	}
	if err := wcrypto.VerifyMsg(p.Reg, p.Cloud, global, global.CloudSig); err != nil {
		return res, fmt.Errorf("global root: %v", err)
	}
	if global.Edge != p.Edge {
		return res, fmt.Errorf("global root for wrong edge")
	}
	if !bytes.Equal(mlsm.GlobalRoot(pr.Roots), global.Root) {
		return res, fmt.Errorf("level roots do not fold to global root")
	}
	// The signed compaction frontier pins where the served L0 window must
	// start: an edge cannot drop its oldest certified-but-uncompacted
	// blocks without the mismatch showing here. (An entirely empty window
	// can still hide the newest blocks — that is the stale-snapshot
	// attack, bounded by the freshness window and session watermarks.)
	if err := win.CheckFrontier(global, levelEvidence); err != nil {
		return res, err
	}
	res.Epoch = global.Epoch
	if p.FreshnessWindow > 0 && p.Now-global.Ts > p.FreshnessWindow {
		return res, ErrStale
	}

	proofs := make(map[int]*wire.LevelRangeProof, len(pr.Levels))
	for i := range pr.Levels {
		lp := &pr.Levels[i]
		if proofs[int(lp.Level)] != nil {
			return res, fmt.Errorf("level %d: duplicate proof", lp.Level)
		}
		proofs[int(lp.Level)] = lp
	}
	empty := merkle.EmptyRoot()
	// A get stops below the first level that holds its key.
	for lvl := 1; lvl <= len(pr.Roots) && !(point && len(cand) > 0); lvl++ {
		lp := proofs[lvl]
		delete(proofs, lvl)
		if bytes.Equal(pr.Roots[lvl-1], empty) {
			if lp != nil {
				return res, fmt.Errorf("level %d: proof against empty level", lvl)
			}
			continue
		}
		if lp == nil {
			return res, fmt.Errorf("level %d: missing proof", lvl)
		}
		kvs, err := verifyLevelRange(lvl, pr.Roots[lvl-1], lp, start, end)
		if err != nil {
			return res, err
		}
		cand = append(cand, kvs...)
	}
	if len(proofs) != 0 {
		return res, fmt.Errorf("proof for a level the read does not reach")
	}
	res.KVs = mlsm.MergeNewest(cand)
	return res, nil
}

// verifyLevelRange checks one level's page-range proof — each page's cut,
// the Merkle fold, page-run contiguity, boundary coverage — and collects
// its in-range records. Page-internal invariants (sorted, in-bounds
// records) need no re-check: the leaf commits the records at their sorted
// positions, and the trusted cloud validated the invariants before
// signing the level root.
func verifyLevelRange(lvl int, root []byte, lp *wire.LevelRangeProof, start, end []byte) ([]wire.KV, error) {
	if len(lp.Pages) == 0 {
		return nil, fmt.Errorf("level %d: proof without pages", lvl)
	}
	leaves := make([][]byte, len(lp.Pages))
	for i := range lp.Pages {
		pg := &lp.Pages[i]
		if int(pg.Level) != lvl {
			return nil, fmt.Errorf("level %d: page from level %d", lvl, pg.Level)
		}
		if err := checkCut(pg, start, end); err != nil {
			return nil, fmt.Errorf("level %d page %d: %v", lvl, pg.Seq, err)
		}
		leaves[i] = pg.Leaf()
	}
	if err := merkle.VerifyRange(root, leaves, int(lp.First), int(lp.Width), lp.Left, lp.Right); err != nil {
		return nil, fmt.Errorf("level %d: %v", lvl, err)
	}
	for i := 1; i < len(lp.Pages); i++ {
		hi, lo := lp.Pages[i-1].Hi, lp.Pages[i].Lo
		if hi == nil || lo == nil || !bytes.Equal(hi, lo) {
			return nil, fmt.Errorf("level %d: gap between pages %d and %d", lvl, i-1, i)
		}
	}
	first, last := &lp.Pages[0], &lp.Pages[len(lp.Pages)-1]
	if start == nil {
		if first.Lo != nil {
			return nil, fmt.Errorf("level %d: left boundary not covered", lvl)
		}
	} else if !first.Contains(start) {
		return nil, fmt.Errorf("level %d: first page does not contain scan start", lvl)
	}
	if end == nil {
		if last.Hi != nil {
			return nil, fmt.Errorf("level %d: right boundary truncated", lvl)
		}
	} else if last.Hi != nil && bytes.Compare(last.Hi, end) < 0 {
		return nil, fmt.Errorf("level %d: right boundary truncated", lvl)
	}
	return levelKVs(lp, start, end), nil
}

// levelKVs collects the records of a level proof's pages that fall in
// [start, end); the flanks fall outside.
func levelKVs(lp *wire.LevelRangeProof, start, end []byte) []wire.KV {
	var kvs []wire.KV
	for i := range lp.Pages {
		for _, kv := range lp.Pages[i].KVs {
			if !wire.KeyBefore(kv.Key, start) && !wire.KeyAfter(kv.Key, end) {
				kvs = append(kvs, kv)
			}
		}
	}
	return kvs
}

// PointAnswer reads a get's answer out of a point-range response without
// verifying any of it — what the response claims, which tests compare
// with what Verify derives: the newest window row, by the newest-wins rule
// Verify applies, else the key's record in the first level cut that holds
// it.
func PointAnswer(m *wire.ScanResponse) (wire.KV, bool) {
	kvs := mlsm.WindowKVs(m.Proof.L0Pruned)
	for i := 0; len(kvs) == 0 && i < len(m.Proof.Levels); i++ {
		kvs = levelKVs(&m.Proof.Levels[i], m.Start, m.End)
	}
	if kvs = mlsm.MergeNewest(kvs); len(kvs) == 0 {
		return wire.KV{}, false
	}
	return kvs[0], true
}

// checkCut checks the part of a cut page's claim that needs no hashing:
// the shipped run brackets [start, end) — its first record lies before
// start unless the run starts the page, its last at or past end unless it
// ends the page. The fold then proves the run is the page's, so every
// record of the page in range is in it.
func checkCut(p *wire.Page, start, end []byte) error {
	n := len(p.KVs)
	if p.Begin > 0 && (n == 0 || !wire.KeyBefore(p.KVs[0].Key, start)) {
		return fmt.Errorf("left flank missing at position %d", p.Begin)
	}
	if next := uint64(p.Begin) + uint64(n); next < uint64(p.Count) && (n == 0 || !wire.KeyAfter(p.KVs[n-1].Key, end)) {
		return fmt.Errorf("right flank missing at position %d of %d", next, p.Count)
	}
	return nil
}
