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
		x.pageTrees[i], x.trees[i] = commitLevel(lp)
		if !bytes.Equal(x.trees[i].Root(), roots[i]) {
			return fmt.Errorf("%w: level %d root mismatch", ErrBadPages, i+1)
		}
	}
	x.adopt(roots, global)
	return nil
}

// L0Source supplies the uncompacted level-0 pages (log blocks) and their
// certificates for read assembly, oldest first. Certificates with an empty
// CloudSig mark Phase I (uncertified) blocks; a missing tail of Certs
// counts as uncertified.
type L0Source struct {
	Blocks []wire.Block
	Certs  []wire.BlockProof
}

// Window cuts the source into the L0 window of a read of [start, end): one
// slice per block, carrying the block's certificate where it has one.
func (l0 L0Source) Window(start, end []byte) []wire.L0Slice {
	if len(l0.Blocks) == 0 {
		return nil
	}
	window := make([]wire.L0Slice, len(l0.Blocks))
	for i := range l0.Blocks {
		window[i] = l0.Blocks[i].Slice(start, end)
		if i < len(l0.Certs) {
			window[i].CertSig = l0.Certs[i].CloudSig
		}
	}
	return window
}
