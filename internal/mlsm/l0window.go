package mlsm

import (
	"bytes"
	"fmt"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// This file implements the shared verification of a served L0 window —
// the uncompacted block suffix a read response must account for. Since
// evidence pruning, a window position is either a full block or a pruned
// reference whose digest-committed key summary proves the block cannot
// hold the requested key or range. The client (get and scan verification)
// and the cloud's dispute Judge all run this one implementation, so an
// exclusion the client would reject is exactly an exclusion the Judge
// convicts.

// L0WindowParams configures a window verification: whose evidence is
// judged against which registry, and the exclusion predicate pruned
// references must satisfy (ExcludesKey for gets, ExcludesRange for
// scans).
type L0WindowParams struct {
	Reg   *wcrypto.Registry
	Edge  wire.NodeID
	Cloud wire.NodeID
	// Excludes reports whether a key summary rules the requested key or
	// range out of a block. Every pruned reference must satisfy it — a
	// pruned block whose summary does not exclude the request is an
	// unsound prune, provable from the signed response alone.
	Excludes func(*wire.BlockSummary) bool
	// Key, for a get, is the requested key: the check then reports the
	// freshest version of it a full block of the window holds.
	Key []byte
	// OnBlock, when set, is called for every full block in window order
	// (verifiers collect candidate versions here).
	OnBlock func(*wire.Block)
}

// L0WindowCheck is the outcome of a successful window verification.
type L0WindowCheck struct {
	// Uncertified maps each window block id lacking a certificate — full
	// or pruned — to the locally recomputed (or claimed) digest the
	// later-arriving block proof must match.
	Uncertified map[uint64][]byte
	// FirstID is the id of the window's first position; meaningless when
	// Slots == 0.
	FirstID uint64
	// L0End is one past the highest window block id (0 for an empty
	// window) — the session-consistency watermark.
	L0End uint64
	// Slots counts window positions, full and pruned together.
	Slots int
	// HitVer and HitVal are the freshest version of L0WindowParams.Key
	// held by a full block of the window; HitVer is 0 when none holds it
	// or no key was given.
	HitVer uint64
	HitVal []byte
}

// CheckFrontier enforces where a verified window must start, given the
// index state the response carries: at the cloud-signed compaction
// frontier when a signed global root is present, and at block 0 when the
// response claims nothing was ever compacted (no roots, no level
// evidence) — otherwise a dropped leading block could hide the key's
// freshest version. A window that holds the key is exempt: every block
// before it is older than the hit, so the edge ships no index state with
// an L0 hit (AssembleGet) and none is needed. Client and Judge both call
// this, so what the client accepts the Judge cannot convict.
func (c *L0WindowCheck) CheckFrontier(global *wire.SignedRoot, levelEvidence bool) error {
	if c.Slots == 0 || c.HitVer > 0 {
		return nil
	}
	if len(global.CloudSig) > 0 {
		if c.FirstID != global.L0From {
			return fmt.Errorf("L0 window starts at block %d, signed compaction frontier is %d",
				c.FirstID, global.L0From)
		}
		return nil
	}
	if !levelEvidence && c.FirstID != 0 {
		return fmt.Errorf("no signed index state, yet L0 window starts at block %d", c.FirstID)
	}
	return nil
}

// VerifyL0Window re-derives every claim a served L0 window makes:
//
//   - full blocks and pruned references, merged by block id, form one
//     strictly consecutive run (no window position can be silently
//     dropped between representations);
//   - every full block belongs to the expected edge and matches its
//     cloud-signed certificate (or has its recomputed digest pinned for
//     the later proof);
//   - every pruned reference rebinds to a digest: the claimed digest is
//     recomputed from the shipped fields and checked against the
//     certificate (or pinned), so a summary tampered on the wire fails
//     exactly like a tampered block body;
//   - every pruned reference's summary actually excludes the requested
//     key or range (exclusion soundness).
//
// Any defect is an error naming the offending block — in an edge-signed
// response, the edge's own lie.
func VerifyL0Window(p L0WindowParams, blocks []wire.Block, certs []wire.BlockProof,
	pruned []wire.PrunedBlock, prunedCerts []wire.BlockProof) (L0WindowCheck, error) {
	res := L0WindowCheck{Uncertified: make(map[uint64][]byte)}
	if len(certs) != len(blocks) {
		return res, fmt.Errorf("cert/block count mismatch")
	}
	if len(prunedCerts) != len(pruned) {
		return res, fmt.Errorf("cert/pruned-block count mismatch")
	}

	checkCert := func(bid uint64, digest []byte, cert *wire.BlockProof) error {
		if len(cert.CloudSig) > 0 {
			if err := wcrypto.VerifyMsg(p.Reg, p.Cloud, cert, cert.CloudSig); err != nil {
				return fmt.Errorf("L0 cert %d: %v", bid, err)
			}
			if cert.Edge != p.Edge || cert.BID != bid || !bytes.Equal(cert.Digest, digest) {
				return fmt.Errorf("L0 cert %d does not match block", bid)
			}
			return nil
		}
		res.Uncertified[bid] = digest
		return nil
	}

	// Merge-walk the full and pruned runs by id: the union must be one
	// strictly consecutive sequence. Ties (the same id in both runs) fail
	// the consecutiveness check on the second occurrence.
	bi, pi := 0, 0
	for bi < len(blocks) || pi < len(pruned) {
		takeBlock := bi < len(blocks) &&
			(pi >= len(pruned) || blocks[bi].ID <= pruned[pi].ID)
		var id uint64
		if takeBlock {
			id = blocks[bi].ID
		} else {
			id = pruned[pi].ID
		}
		if res.Slots == 0 {
			res.FirstID = id
		} else if id != res.FirstID+uint64(res.Slots) {
			return res, fmt.Errorf("L0 window ids not consecutive at block %d", id)
		}
		res.Slots++
		if id+1 > res.L0End {
			res.L0End = id + 1
		}
		if takeBlock {
			blk := &blocks[bi]
			if blk.Edge != p.Edge {
				return res, fmt.Errorf("L0 block %d from wrong edge", blk.ID)
			}
			digest := wcrypto.RecomputedBlockDigest(blk)
			if err := checkCert(blk.ID, digest, &certs[bi]); err != nil {
				return res, err
			}
			if p.Key != nil {
				freshestIn(blk, p.Key, &res.HitVer, &res.HitVal)
			}
			if p.OnBlock != nil {
				p.OnBlock(blk)
			}
			bi++
		} else {
			pb := &pruned[pi]
			if pb.Edge != p.Edge {
				return res, fmt.Errorf("pruned L0 block %d from wrong edge", pb.ID)
			}
			digest := pb.Digest()
			if err := checkCert(pb.ID, digest, &prunedCerts[pi]); err != nil {
				return res, err
			}
			if p.Excludes != nil && !p.Excludes(&pb.Summary) {
				return res, fmt.Errorf("pruned L0 block %d: summary does not exclude the requested key/range", pb.ID)
			}
			pi++
		}
	}
	return res, nil
}

// freshestIn raises (*ver, *val) to blk's newest version of key, if it
// holds one newer than *ver. A version is the entry's log position + 1.
func freshestIn(blk *wire.Block, key []byte, ver *uint64, val *[]byte) {
	for i := range blk.Entries {
		e := &blk.Entries[i]
		if len(e.Key) == 0 || !bytes.Equal(e.Key, key) {
			continue
		}
		if v := blk.StartPos + uint64(i) + 1; v > *ver {
			*ver, *val = v, e.Value
		}
	}
}
