package mlsm

import (
	"bytes"
	"fmt"

	"wedgechain/internal/wire"
)

// InstallAll replaces every level at once from a flat page list (pages
// carry their Level field), validating each non-empty level's invariants
// and checking every rebuilt tree against roots. Levels with no pages in
// the list become empty. Used by the Edge-baseline edge, whose cloud
// pushes whole index snapshots, and by recovery paths.
func (x *Index) InstallAll(pages []wire.Page, roots [][]byte, global wire.SignedRoot) error {
	if len(roots) != len(x.levels) {
		return fmt.Errorf("%w: %d roots for %d levels", ErrBadPages, len(roots), len(x.levels))
	}
	byLevel := make([][]wire.Page, len(x.levels))
	for _, p := range pages {
		lvl := int(p.Level)
		if lvl < 1 || lvl > len(x.levels) {
			return fmt.Errorf("%w: page for level %d", ErrLevelRange, lvl)
		}
		byLevel[lvl-1] = append(byLevel[lvl-1], p)
	}
	// Validate everything before mutating.
	for i, lp := range byLevel {
		if len(lp) == 0 {
			continue
		}
		if err := CheckLevel(lp); err != nil {
			return fmt.Errorf("level %d: %w", i+1, err)
		}
	}
	for i, lp := range byLevel {
		x.levels[i] = lp
		x.trees[i] = LevelTree(lp)
		if !bytes.Equal(x.trees[i].Root(), roots[i]) {
			return fmt.Errorf("%w: level %d root mismatch", ErrBadPages, i+1)
		}
	}
	x.roots = make([][]byte, len(roots))
	for i := range roots {
		x.roots[i] = append([]byte(nil), roots[i]...)
	}
	x.global = global
	return nil
}

// L0Source supplies the uncompacted level-0 pages (log blocks), their
// certificates, and optionally their cut-time digests for read assembly.
// Certificates with an empty CloudSig mark Phase I (uncertified) blocks.
// Digests, when non-nil, is aligned with Blocks; assembly returns the
// digests of the blocks it kept in full so the edge can sign without
// re-hashing.
type L0Source struct {
	Blocks  []wire.Block
	Certs   []wire.BlockProof
	Digests [][]byte
}

// AppendL0 places one source block into a proof's L0 window: pruned to
// its digest-committed key summary when prune is set and the summary
// excludes the request, shipped in full otherwise. Returns whether the
// block was kept in full.
func AppendL0(blocks *[]wire.Block, certs *[]wire.BlockProof,
	pruned *[]wire.PrunedBlock, prunedCerts *[]wire.BlockProof,
	blk *wire.Block, cert wire.BlockProof, prune bool, excludes func(*wire.BlockSummary) bool) bool {
	if prune {
		pb := wire.PruneBlock(blk)
		if excludes(&pb.Summary) {
			*pruned = append(*pruned, pb)
			*prunedCerts = append(*prunedCerts, cert)
			return false
		}
	}
	*blocks = append(*blocks, *blk)
	*certs = append(*certs, cert)
	return true
}

// AssembleGet builds the unsigned get response for key against the given
// L0 snapshot and merged index — the proof-construction algorithm of
// Section V-B shared by the WedgeChain edge and the Edge-baseline edge.
// With prune set, window blocks whose key summary excludes key ship as
// pruned references instead of full blocks. The returned digests are the
// cut-time digests (from l0.Digests) of the blocks kept in full, in
// L0Blocks order — what the edge's size-independent signing needs; nil
// when l0.Digests was nil.
func AssembleGet(key []byte, reqID uint64, l0 L0Source, idx *Index, prune bool) (*wire.GetResponse, [][]byte) {
	resp := &wire.GetResponse{ReqID: reqID, Key: key}
	excludes := func(s *wire.BlockSummary) bool { return s.ExcludesKey(key) }

	var fullDigests [][]byte
	var bestVer uint64
	var bestVal []byte
	for bi := range l0.Blocks {
		blk := &l0.Blocks[bi]
		var cert wire.BlockProof
		if bi < len(l0.Certs) {
			cert = l0.Certs[bi]
		}
		full := AppendL0(&resp.Proof.L0Blocks, &resp.Proof.L0Certs,
			&resp.Proof.L0Pruned, &resp.Proof.L0PrunedCerts, blk, cert, prune, excludes)
		if full && l0.Digests != nil {
			fullDigests = append(fullDigests, l0.Digests[bi])
		}
		if !full {
			continue // an excluded block cannot hold the key
		}
		freshestIn(blk, key, &bestVer, &bestVal)
	}
	if bestVer > 0 {
		// Freshest version is in L0: deeper levels are older by
		// construction, so no level evidence is required.
		resp.Found = true
		resp.Value = bestVal
		resp.Ver = bestVer
		return resp, fullDigests
	}

	hitLevel, pageIdx, kv, found := idx.Lookup(key)
	last := idx.Levels()
	if found {
		last = hitLevel
	}
	for lvl := 1; lvl <= last; lvl++ {
		pi := pageIdx
		if lvl != hitLevel || !found {
			pi = idx.FindPage(lvl, key)
		}
		if pi < 0 {
			continue // empty level: root is EmptyRoot, checked client-side
		}
		lp, err := idx.LevelProof(lvl, pi)
		if err != nil {
			continue
		}
		lp.Width = uint32(idx.LevelLen(lvl))
		resp.Proof.Levels = append(resp.Proof.Levels, lp)
	}
	if g := idx.Global(); len(g.CloudSig) > 0 {
		resp.Proof.Roots = idx.Roots()
		resp.Proof.Global = g
	}
	if found {
		resp.Found = true
		resp.Value = kv.Value
		resp.Ver = kv.Ver
	}
	return resp, fullDigests
}
