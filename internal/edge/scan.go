package edge

import (
	"bytes"

	"wedgechain/internal/scan"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// handleScan serves verified range scans: every uncompacted L0 block plus
// one Merkle page-range proof per non-empty level, covering all pages
// that overlap [Start, End) including the boundary pages whose committed
// bounds prove completeness at both ends. The client derives the result
// from this evidence (package scan), so the response carries no separate
// result list to lie about.
func (n *Node) handleScan(now int64, from wire.NodeID, m *wire.ScanRequest) []wire.Envelope {
	if n.follower {
		return nil
	}
	n.m.scans.Inc()
	if m.Start != nil && m.End != nil && bytes.Compare(m.Start, m.End) >= 0 {
		// Nothing to prove about an empty range; honest clients never send
		// one (the client core rejects it before signing anything).
		return nil
	}
	resp, digests, tampered := n.buildScan(m)
	// Phase I scans: register the caller for proof forwarding on every
	// uncertified block it relied on — full blocks and pruned references
	// alike (the client pins a digest for both and waits for the proof).
	for i := range resp.Proof.L0Blocks {
		if len(resp.Proof.L0Certs[i].CloudSig) == 0 {
			n.readWaiters.add(resp.Proof.L0Blocks[i].ID, from)
		}
	}
	for i := range resp.Proof.L0Pruned {
		if len(resp.Proof.L0PrunedCerts[i].CloudSig) == 0 {
			n.readWaiters.add(resp.Proof.L0Pruned[i].ID, from)
		}
	}
	if tampered {
		// The lie must verify at face value: recompute digests over the
		// tampered content so the signature matches what ships.
		resp.EdgeSig = wcrypto.SignMsg(n.key, resp)
	} else {
		// Honest serve: sign with the digests cached at block cut —
		// size-independent in both block size and L0 window depth.
		resp.EdgeSig = wcrypto.SignScanResponse(n.key, resp, digests)
	}
	return []wire.Envelope{{From: n.cfg.ID, To: from, Msg: resp}}
}

// AssembleScan builds and signs a scan response locally, outside any
// transport — the edge half of the scan read path, for benchmarks and
// direct measurement.
func (n *Node) AssembleScan(start, end []byte, reqID uint64) *wire.ScanResponse {
	resp, digests, tampered := n.buildScan(&wire.ScanRequest{Start: start, End: end, ReqID: reqID})
	if tampered {
		resp.EdgeSig = wcrypto.SignMsg(n.key, resp)
	} else {
		resp.EdgeSig = wcrypto.SignScanResponse(n.key, resp, digests)
	}
	return resp
}

// buildScan assembles the unsigned scan response, the cut-time digests of
// the L0 blocks it kept in full, and whether a byzantine fault altered
// the evidence (in which case the cached digests no longer bind and the
// caller must sign generically).
func (n *Node) buildScan(m *wire.ScanRequest) (*wire.ScanResponse, [][]byte, bool) {
	src := n.l0Window()
	if key, tamper, on := n.cfg.Fault.summaryFaultKey(); on {
		// Summary-pruning attack on the scan path: hide the blocks
		// holding key behind pruned references (see buildGet).
		rest, victims := splitSummaryVictims(src, key)
		resp, _ := scan.Assemble(m.Start, m.End, m.ReqID, rest, n.idx)
		pv, pvCerts := prunedVictims(victims, key, tamper)
		mergePruned(&resp.Proof.L0Pruned, &resp.Proof.L0PrunedCerts, pv, pvCerts)
		return resp, nil, true
	}
	resp, digests := scan.Assemble(m.Start, m.End, m.ReqID, src, n.idx)
	tampered := n.applyScanFault(resp)
	return resp, digests, tampered
}

// applyScanFault injects the configured scan lies into an assembled
// response, reporting whether anything was altered. Every lie is built so
// the victim's signature check passes — detection happens through the
// completeness proof (omission, truncation) or through lazy certification
// (injection into an uncertified block).
func (n *Node) applyScanFault(resp *wire.ScanResponse) bool {
	f := n.cfg.Fault
	if f == nil {
		return false
	}
	tampered := false
	if len(f.ScanOmitKey) > 0 {
		// Omission attack: drop the record from whichever level page
		// holds it. The page's leaf hash no longer matches the certified
		// tree, so the client's Merkle range check fails.
		for li := range resp.Proof.Levels {
			pages := resp.Proof.Levels[li].Pages
			for pi := range pages {
				p := &pages[pi]
				for ki := range p.KVs {
					if bytes.Equal(p.KVs[ki].Key, f.ScanOmitKey) {
						kvs := make([]wire.KV, 0, len(p.KVs)-1)
						kvs = append(kvs, p.KVs[:ki]...)
						kvs = append(kvs, p.KVs[ki+1:]...)
						p.KVs = kvs
						tampered = true
						break
					}
				}
			}
		}
	}
	if len(f.ScanInjectKey) > 0 {
		// Injection attack: forge an entry inside an uncertified L0 block
		// — the one place a lie passes structural verification, because
		// no certificate pins the content yet. Lazy certification catches
		// it: the cloud's proof carries the honest digest, contradicting
		// the digest the client pinned from this response.
		for i := len(resp.Proof.L0Blocks) - 1; i >= 0; i-- {
			if len(resp.Proof.L0Certs[i].CloudSig) > 0 {
				continue
			}
			blk := &resp.Proof.L0Blocks[i]
			blk.Invalidate() // the copy must not ship the honest cached bytes
			entries := make([]wire.Entry, 0, len(blk.Entries)+1)
			entries = append(entries, blk.Entries...)
			entries = append(entries, wire.Entry{Client: "forged-client", Key: f.ScanInjectKey, Value: f.ScanInjectValue})
			blk.Entries = entries
			tampered = true
			break
		}
	}
	if f.ScanTruncate {
		// Boundary-truncation attack: present an honestly recomputed —
		// and therefore Merkle-valid — proof for one page fewer, hiding
		// the tail of the range. The last page's committed Hi now falls
		// short of the scan's end, which the boundary check convicts.
		for li := range resp.Proof.Levels {
			lp := &resp.Proof.Levels[li]
			if len(lp.Pages) < 2 {
				continue
			}
			narrow, err := n.idx.LevelRangeProof(int(lp.Level), int(lp.First), int(lp.First)+len(lp.Pages)-1)
			if err != nil {
				continue
			}
			resp.Proof.Levels[li] = narrow
			tampered = true
		}
	}
	return tampered
}
