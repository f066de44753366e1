package edge

import (
	"bytes"

	"wedgechain/internal/mlsm"
	"wedgechain/internal/wire"
)

// Fault makes an edge node byzantine. Each hook models one of the
// malicious behaviours the paper's threat analysis considers (Section
// IV-E); the honest code path consults the hooks and lies accordingly.
// Every lie is constructed so the victim's immediate verification passes —
// the dishonesty is only detectable through lazy certification, which is
// exactly the property the tests demonstrate.
type Fault struct {
	// TamperAddVictim: add/put responses to this client carry a block
	// whose other entries were altered. The victim's own entry is kept
	// intact so Phase I verification succeeds; the lie surfaces when the
	// certified digest does not match (add-response dispute).
	TamperAddVictim wire.NodeID
	// TamperReadVictim: reads served to this client return altered block
	// content with no proof (a Phase I read lie).
	TamperReadVictim wire.NodeID
	// OmitBlocks: read requests for these block ids are denied even
	// though the blocks exist (omission attack).
	OmitBlocks map[uint64]bool
	// DoubleCertify: every block is certified twice with conflicting
	// digests (certify-time equivocation, caught directly by the cloud).
	DoubleCertify bool
	// DropCertify: blocks are never certified, starving Phase II and
	// triggering client dispute timeouts.
	DropCertify bool
	// MisplaceRuns: every run ack promises its entries one position past
	// where the block cut later holds them. The run verifies on its own;
	// the signed block the writer gets at the cut contradicts it.
	MisplaceRuns bool
	// HideL0 and HideL0From: gets are served from a stale snapshot that
	// pretends blocks with id >= HideL0From do not exist (stale-read
	// attack bounded by the freshness window).
	HideL0     bool
	HideL0From uint64
	// FreezeIndex: the edge stops installing merge results and stops
	// initiating merges, freezing its LSMerkle at an old (but validly
	// signed) snapshot. Clients detect it through the freshness window
	// on the global root's timestamp (Section V-D).
	FreezeIndex bool
	// The Scan* lies apply to every scan response, a get's included.
	//
	// ScanOmitKey: scan responses omit this key from the level page that
	// holds it (omission attack on range completeness). The tampered page
	// no longer hashes to its certified leaf, so the client's Merkle
	// range check fails and the signed response is convicting evidence.
	ScanOmitKey []byte
	// ScanInjectKey/ScanInjectValue: scan responses carry this forged
	// record appended to an uncertified L0 block. Structural verification
	// passes (nothing pins uncertified content yet); the later block
	// proof contradicts the pinned digest and convicts the edge.
	ScanInjectKey   []byte
	ScanInjectValue []byte
	// ScanTruncate: scan responses drop the last overlapping page of
	// every level range, presenting an honestly recomputed (Merkle-valid)
	// narrower proof. The boundary-coverage check catches the hidden
	// tail.
	ScanTruncate bool
	// SliceFalseExclude: get and scan responses cut the slice of every L0
	// block containing this key short of it — omission by slice — while
	// shipping honest leaves and an honest range proof: the slice for the
	// part of the request below the key. It folds to the certified digest,
	// but its right flank is the key's own leaf, which lies inside the
	// request, so the client's bracket check refutes it inline and the
	// signed response convicts through DisputeScanLie.
	SliceFalseExclude []byte
	// KillMidBatch / KillAtBID: the node dies the instant it cuts block
	// KillAtBID — the block exists in its log but is never persisted,
	// acknowledged, replicated or certified, and the node answers nothing
	// from then on. This is the crash-fault arm of the failover tests: a
	// leader dying mid-batch with client writes in flight.
	KillMidBatch bool
	KillAtBID    uint64
	// EquivocateReplication: the leader replicates tampered blocks to its
	// followers while acknowledging and certifying the honest ones. Each
	// tampered block still carries the leader's valid replication
	// signature, so the follower's digest audit against the cloud
	// certificate turns the replication stream itself into convicting
	// evidence (the signed block contradicts the certified digest).
	EquivocateReplication bool
	// PromoteStale / PromoteStaleFrom: on promotion the new leader serves
	// as if its mirrored log ended just before block PromoteStaleFrom —
	// denying reads of the hidden tail and hiding it from the get/scan L0
	// window. Chain-keyed gossip still advertises the certified frontier,
	// so clients convict the promoted node through the standard omission
	// and freshness machinery.
	PromoteStale     bool
	PromoteStaleFrom uint64
	// SliceTamperKey: like SliceFalseExclude, but the slices are cut out
	// of a doctored block (the victim entries removed), so the flanks do
	// bracket the request and the key genuinely appears absent. The digest
	// the slice folds to then matches nothing the cloud certified: for
	// certified blocks the shipped certificate contradicts it inline; for
	// uncertified ones the pinned digest is refuted by the later block
	// proof. Either way the signed response convicts.
	SliceTamperKey []byte
	// TamperCatchUp: catch-up frames ship altered block content, signed
	// over the tampered digest so each frame's leader signature verifies
	// — the lying-sync-peer attack. For certified blocks the certificate
	// riding in the same frame contradicts the content and the receiver
	// convicts on the spot; for uncertified ones the eventual cloud
	// certificate refutes the installed mirror and convicts then.
	TamperCatchUp bool
}

// sliceVictim returns the key the slice faults hide and whether the lie is
// the doctored-block one (SliceTamperKey) or the stop-short one.
func (f *Fault) sliceVictim() (victim []byte, tamper bool) {
	if f == nil {
		return nil, false
	}
	if len(f.SliceFalseExclude) > 0 {
		return f.SliceFalseExclude, false
	}
	return f.SliceTamperKey, true
}

// hideVictim returns the L0 source a slice fault answers from: every block
// holding the victim key replaced by a copy without those entries, so the
// assembled answer is the stale one the lie is for and, for
// SliceTamperKey, the slices are already the doctored ones.
func (f *Fault) hideVictim(src mlsm.L0Source) mlsm.L0Source {
	victim, _ := f.sliceVictim()
	if len(victim) == 0 {
		return src
	}
	out := mlsm.L0Source{Blocks: append([]wire.Block(nil), src.Blocks...), Certs: src.Certs}
	for i := range out.Blocks {
		blk := &out.Blocks[i]
		kept := make([]wire.Entry, 0, len(blk.Entries))
		for j := range blk.Entries {
			if !bytes.Equal(blk.Entries[j].Key, victim) {
				kept = append(kept, blk.Entries[j])
			}
		}
		if len(kept) != len(blk.Entries) {
			blk.Invalidate() // the copy must not cut from the honest index
			blk.Entries = kept
		}
	}
	return out
}

// stopShort finishes the SliceFalseExclude lie on a window assembled from
// hideVictim(src) for a read of [start, end): where an honest block holds
// the victim inside the request, its slice becomes the honest one for the
// part of the request below the victim.
func (f *Fault) stopShort(src mlsm.L0Source, window []wire.L0Slice, start, end []byte) {
	victim, tamper := f.sliceVictim()
	if len(victim) == 0 || tamper || wire.KeyBefore(victim, start) || wire.KeyAfter(victim, end) {
		return
	}
	for i := range window {
		if int(window[i].Count) == len(src.Blocks[i].Entries) {
			continue // the block never held the victim
		}
		certSig := window[i].CertSig
		window[i] = src.Blocks[i].Slice(start, victim)
		window[i].CertSig = certSig
	}
}

// maybeTamperAdd returns the block to embed in an add/put response for
// client, altered when client is the tamper victim.
func (f *Fault) maybeTamperAdd(client wire.NodeID, blk wire.Block) wire.Block {
	if f == nil || f.TamperAddVictim != client {
		return blk
	}
	return tamperBlock(blk, client)
}

// maybeTamperRead returns the block to serve for a read, altered when
// client is the read-tamper victim.
func (f *Fault) maybeTamperRead(client wire.NodeID, blk wire.Block) wire.Block {
	if f == nil || f.TamperReadVictim != client {
		return blk
	}
	return tamperBlock(blk, client)
}

// tamperBlock deep-copies blk and alters an entry that does not belong to
// victim (so the victim's immediate checks pass). When every entry belongs
// to the victim, a forged foreign entry is appended instead.
func tamperBlock(blk wire.Block, victim wire.NodeID) wire.Block {
	out := blk
	// The copy shares the original's cached canonical encoding; drop it
	// before altering entries or the lie would ship the honest bytes.
	out.Invalidate()
	out.Entries = make([]wire.Entry, len(blk.Entries))
	copy(out.Entries, blk.Entries)
	for i := range out.Entries {
		if out.Entries[i].Client == victim {
			continue
		}
		e := out.Entries[i]
		e.Value = append(append([]byte(nil), e.Value...), 0xFF)
		out.Entries[i] = e
		return out
	}
	out.Entries = append(out.Entries, wire.Entry{
		Client: "forged-client",
		Value:  []byte("injected"),
	})
	return out
}
