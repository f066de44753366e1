package mlsm

import (
	"bytes"
	"fmt"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// This file implements the shared verification of a served L0 window —
// the uncompacted block suffix a read response must account for, one
// wire.L0Slice per block. The client (get and scan verification) and the
// cloud's dispute Judge all run this one implementation, so a slice the
// client would reject is exactly a slice the Judge convicts.

// L0WindowParams configures a window verification: whose evidence is
// judged against which registry, for which request.
type L0WindowParams struct {
	Reg   *wcrypto.Registry
	Edge  wire.NodeID
	Cloud wire.NodeID
	// Start and End bound the half-open key range the response answers
	// (nil = unbounded); a get for key k answers wire.PointRange(k).
	Start, End []byte
}

// L0WindowCheck is the outcome of a successful window verification.
type L0WindowCheck struct {
	// Uncertified maps each window block id lacking a certificate to the
	// digest its slice folds to: the later-arriving block proof must
	// match it.
	Uncertified map[uint64][]byte
	// FirstID is the id of the window's first position; meaningless when
	// Slots == 0.
	FirstID uint64
	// L0End is one past the highest window block id (0 for an empty
	// window) — the session-consistency watermark.
	L0End uint64
	// Slots counts window positions.
	Slots int
	// Rows are the in-range key-value records of the window, oldest block
	// first; Ver is the record's log position + 1.
	Rows []wire.KV
}

// CheckFrontier enforces where a verified window must start, given the
// index state the response carries: at the cloud-signed compaction
// frontier when a signed global root is present, and at block 0 when the
// response claims nothing was ever compacted (no roots, no level
// evidence) — otherwise a dropped leading block could hide a key's
// freshest version. (A get whose window holds the key needs neither: every
// block before the hit is older than it, so the edge ships no index state
// with an L0 hit and the verifier asks for none.)
func (c *L0WindowCheck) CheckFrontier(global *wire.SignedRoot, levelEvidence bool) error {
	if c.Slots == 0 {
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
//   - the slices' block ids form one strictly consecutive run (no window
//     position silently dropped, none served twice) and every slice names
//     the expected edge;
//   - within a slice, (key, index) strictly increases from the left flank
//     through the rows to the right flank, every index is below the
//     block's entry count, every row's key is inside the requested range,
//     the left flank's key sorts before it and the right flank's at or
//     past its end (the flanks bracket the request), and a flank is
//     missing only where the order ends: the left at position 0, the
//     right at Count;
//   - the slice folds, with its range proof, to a block digest that its
//     cloud-signed certificate names — or that is pinned for the later
//     one — so a row forged, dropped or borrowed from another block fails
//     exactly like a tampered block body.
//
// Any defect is an error naming the offending block — in an edge-signed
// response, the edge's own lie.
func VerifyL0Window(p L0WindowParams, window []wire.L0Slice) (L0WindowCheck, error) {
	res := L0WindowCheck{Uncertified: make(map[uint64][]byte)}
	for i := range window {
		s := &window[i]
		if res.Slots == 0 {
			res.FirstID = s.ID
		} else if s.ID != res.FirstID+uint64(res.Slots) {
			return res, fmt.Errorf("L0 window ids not consecutive at block %d", s.ID)
		}
		res.Slots++
		res.L0End = s.ID + 1
		if s.Edge != p.Edge {
			return res, fmt.Errorf("L0 block %d from wrong edge", s.ID)
		}
		if err := checkSlice(s, p.Start, p.End); err != nil {
			return res, fmt.Errorf("L0 block %d: %v", s.ID, err)
		}
		digest, err := s.Digest()
		if err != nil {
			return res, fmt.Errorf("L0 block %d: %v", s.ID, err)
		}
		if len(s.CertSig) > 0 {
			cert := s.Cert(digest)
			if err := wcrypto.VerifyMsg(p.Reg, p.Cloud, &cert, cert.CloudSig); err != nil {
				return res, fmt.Errorf("L0 cert %d does not match block: %v", s.ID, err)
			}
		} else {
			res.Uncertified[s.ID] = digest
		}
		for j := range s.Rows {
			r := &s.Rows[j]
			res.Rows = append(res.Rows, wire.KV{Key: r.Entry.Key, Value: r.Entry.Value, Ver: s.StartPos + uint64(r.Index) + 1})
		}
	}
	return res, nil
}

// checkSlice checks the part of a slice's claim that needs no hashing:
// leaf order, index bounds, and that the flanks bracket [start, end).
func checkSlice(s *wire.L0Slice, start, end []byte) error {
	shipped := uint64(len(s.Rows))
	var prevKey []byte
	prevIdx, first := uint32(0), true
	ordered := func(key []byte, idx uint32) error {
		if idx >= s.Count {
			return fmt.Errorf("entry index %d in a block of %d", idx, s.Count)
		}
		if !first {
			if c := bytes.Compare(prevKey, key); c > 0 || (c == 0 && prevIdx >= idx) {
				return fmt.Errorf("leaves out of (key, index) order at index %d", idx)
			}
		}
		prevKey, prevIdx, first = key, idx, false
		return nil
	}
	if f := s.Left; f != nil {
		shipped++
		if err := ordered(f.Key, f.Index); err != nil {
			return err
		}
		if !wire.KeyBefore(f.Key, start) {
			return fmt.Errorf("left flank does not bracket the request")
		}
	} else if s.Begin != 0 {
		return fmt.Errorf("left flank missing at position %d", s.Begin)
	}
	for i := range s.Rows {
		r := &s.Rows[i]
		if err := ordered(r.Entry.Key, r.Index); err != nil {
			return err
		}
		if wire.KeyBefore(r.Entry.Key, start) || wire.KeyAfter(r.Entry.Key, end) {
			return fmt.Errorf("row %d outside the requested range", r.Index)
		}
	}
	if f := s.Right; f != nil {
		shipped++
		if err := ordered(f.Key, f.Index); err != nil {
			return err
		}
		if !wire.KeyAfter(f.Key, end) {
			return fmt.Errorf("right flank does not bracket the request")
		}
	} else if uint64(s.Begin)+shipped != uint64(s.Count) {
		return fmt.Errorf("right flank missing at position %d of %d", uint64(s.Begin)+shipped, s.Count)
	}
	return nil
}
