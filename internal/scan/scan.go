// Package scan implements verified range scans over the LSMerkle index:
// multi-key reads whose responses prove not only that every returned
// record is authentic but that no certified record in the requested range
// was omitted.
//
// The completeness argument stacks three facts. Every page leaf commits
// the page's [Lo, Hi) bounds (mlsm.PageLeaf), a level's pages partition
// the keyspace contiguously (mlsm.CheckLevel, enforced by the trusted
// cloud at merge time before it signs the level roots), and a Merkle
// range proof (merkle.VerifyRange) pins a presented page run to
// consecutive leaf positions. A verified run whose first page contains
// the scan's start and whose last page covers its end therefore contains
// every certified record of the range at that level; adding every
// uncompacted L0 block (whose certificates — or later-arriving proofs —
// pin their content) covers the unmerged suffix. The client derives the
// result from this evidence rather than trusting a result list, so the
// edge's only possible lie is a defective proof, and a defective signed
// proof is self-incriminating: the cloud re-runs this same Verify during
// adjudication.
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
// completeness at both ends) under one Merkle range proof.
func Assemble(start, end []byte, reqID uint64, l0 mlsm.L0Source, idx *mlsm.Index) *wire.ScanResponse {
	resp := &wire.ScanResponse{ReqID: reqID, Start: start, End: end}
	resp.Proof.L0Pruned = l0.Window(start, end)
	for lvl := 1; lvl <= idx.Levels(); lvl++ {
		a, b := idx.PageRange(lvl, start, end)
		if a < 0 {
			continue // empty level: its root is EmptyRoot, checked by verifiers
		}
		lp, err := idx.LevelRangeProof(lvl, a, b)
		if err != nil {
			continue
		}
		resp.Proof.Levels = append(resp.Proof.Levels, lp)
	}
	if g := idx.Global(); len(g.CloudSig) > 0 {
		resp.Proof.Roots = idx.Roots()
		resp.Proof.Global = g
	}
	return resp
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
	// Cache, when non-nil, memoizes proven page leaves so repeated scans
	// over a stable index skip re-hashing unchanged pages. Clients own
	// one per session; the adjudicating cloud verifies cold.
	Cache *LeafCache
}

// Result is the outcome of a successful verification.
type Result struct {
	// KVs is the derived scan result: every certified (or Phase I
	// promised) record in [start, end), newest version per key, ordered
	// by key. No limit is applied — truncation is the caller's choice.
	KVs []wire.KV
	// Uncertified maps each L0 block id lacking a certificate to the
	// locally recomputed digest the later-arriving proof must match.
	Uncertified map[uint64][]byte
	// Epoch is the index epoch of the snapshot (0 when no merged state
	// existed yet) and L0End one past the highest served L0 block id —
	// the session-consistency watermark pair.
	Epoch uint64
	L0End uint64
}

// Verify re-derives every claim in a scan response: the L0 window's
// slices and certificates, the signed global root, per-level Merkle
// range proofs, page-run contiguity, boundary coverage at both ends, and
// finally the result itself. It returns ErrStale for an out-of-window
// snapshot and a descriptive error for every structural defect.
func Verify(p Params, m *wire.ScanResponse) (Result, error) {
	res := Result{Uncertified: make(map[uint64][]byte)}
	start, end := m.Start, m.End
	if start != nil && end != nil && bytes.Compare(start, end) >= 0 {
		return res, fmt.Errorf("empty key range")
	}
	pr := &m.Proof
	inRange := func(k []byte) bool {
		if start != nil && bytes.Compare(k, start) < 0 {
			return false
		}
		if end != nil && bytes.Compare(k, end) >= 0 {
			return false
		}
		return true
	}

	// The L0 window, one slice per block: the shared window checks the
	// cloud's Judge re-runs verbatim.
	win, err := mlsm.VerifyL0Window(mlsm.L0WindowParams{
		Reg: p.Reg, Edge: p.Edge, Cloud: p.Cloud, Start: start, End: end,
	}, pr.L0Pruned)
	if err != nil {
		return res, err
	}
	cand := win.Rows
	res.Uncertified = win.Uncertified
	res.L0End = win.L0End

	levelEvidence := len(pr.Roots) > 0 || len(pr.Levels) > 0
	if !levelEvidence && len(pr.Global.CloudSig) == 0 {
		// No merged state exists yet, so nothing has ever been compacted:
		// the L0 window must be the log itself, from block 0. This also
		// defuses a rollback attack — an edge with merged state that
		// presents the no-merged-state shape must replay its full
		// certified history (consecutiveness plus per-block certificates
		// pin it), which contains every compacted record anyway.
		if err := win.CheckFrontier(&pr.Global, levelEvidence, false); err != nil {
			return res, err
		}
		res.KVs = mlsm.MergeNewest(cand)
		return res, nil
	}
	if len(pr.Global.CloudSig) == 0 {
		return res, fmt.Errorf("level evidence without signed global root")
	}
	if err := wcrypto.VerifyMsg(p.Reg, p.Cloud, &pr.Global, pr.Global.CloudSig); err != nil {
		return res, fmt.Errorf("global root: %v", err)
	}
	if pr.Global.Edge != p.Edge {
		return res, fmt.Errorf("global root for wrong edge")
	}
	if !bytes.Equal(mlsm.GlobalRoot(pr.Roots), pr.Global.Root) {
		return res, fmt.Errorf("level roots do not fold to global root")
	}
	// The signed compaction frontier pins where the served L0 window must
	// start: an edge cannot drop its oldest certified-but-uncompacted
	// blocks without the mismatch showing here. (An entirely empty window
	// can still hide the newest blocks — that is the stale-snapshot
	// attack, bounded by the freshness window and session watermarks.)
	if err := win.CheckFrontier(&pr.Global, levelEvidence, false); err != nil {
		return res, err
	}
	res.Epoch = pr.Global.Epoch
	if p.FreshnessWindow > 0 && p.Now-pr.Global.Ts > p.FreshnessWindow {
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
	for lvl := 1; lvl <= len(pr.Roots); lvl++ {
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
		kvs, err := verifyLevelRange(lvl, pr.Roots[lvl-1], lp, start, end, inRange, p.Cache)
		if err != nil {
			return res, err
		}
		cand = append(cand, kvs...)
	}
	if len(proofs) != 0 {
		return res, fmt.Errorf("proof for nonexistent level")
	}
	res.KVs = mlsm.MergeNewest(cand)
	return res, nil
}

// verifyLevelRange checks one level's page-range proof — Merkle fold,
// page-run contiguity, boundary coverage — and collects its in-range
// records. Page-internal invariants (sorted, in-bounds records) need no
// re-check: the leaf hash commits the page bytes, and the trusted cloud
// validated the invariants before signing the level root.
//
// With a cache, a shipped page that is byte-equal to a page previously
// proven against the same level root reuses its memoized leaf instead of
// re-hashing (equality is a memcmp, an order of magnitude cheaper than
// SHA-256 over the page). A page that differs in any way — including the
// tampered pages of omission attacks — misses the cache and is re-hashed,
// so cached and cold verification accept and convict identically.
func verifyLevelRange(lvl int, root []byte, lp *wire.LevelRangeProof, start, end []byte, inRange func([]byte) bool, cache *LeafCache) ([]wire.KV, error) {
	if len(lp.Pages) == 0 {
		return nil, fmt.Errorf("level %d: proof without pages", lvl)
	}
	leaves := make([][]byte, len(lp.Pages))
	fresh := make([]bool, len(lp.Pages))
	for i := range lp.Pages {
		if int(lp.Pages[i].Level) != lvl {
			return nil, fmt.Errorf("level %d: page from level %d", lvl, lp.Pages[i].Level)
		}
		if cache != nil {
			if leaf, ok := cache.lookup(lvl, root, &lp.Pages[i]); ok {
				leaves[i] = leaf
				continue
			}
			fresh[i] = true
		}
		leaves[i] = mlsm.PageLeaf(&lp.Pages[i])
	}
	if err := merkle.VerifyRange(root, leaves, int(lp.First), int(lp.Width), lp.Left, lp.Right); err != nil {
		return nil, fmt.Errorf("level %d: %v", lvl, err)
	}
	if cache != nil {
		// Insert only pages the fold just proved against the root — a
		// response that fails verification must never warm the cache.
		for i := range lp.Pages {
			if fresh[i] {
				cache.insert(lvl, root, &lp.Pages[i], leaves[i])
			}
		}
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
	var kvs []wire.KV
	for i := range lp.Pages {
		for j := range lp.Pages[i].KVs {
			if kv := &lp.Pages[i].KVs[j]; inRange(kv.Key) {
				kvs = append(kvs, *kv)
			}
		}
	}
	return kvs, nil
}
