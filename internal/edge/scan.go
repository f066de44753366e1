package edge

import (
	"bytes"
	"fmt"

	"wedgechain/internal/mlsm"
	"wedgechain/internal/scan"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// handleScan serves verified range scans — a get is the scan of its key's
// point range: one slice per uncompacted L0 block plus one Merkle
// page-range proof per non-empty level (for a get, down to its answer),
// covering all pages that overlap [Start, End) including the boundary
// pages whose committed bounds prove completeness at both ends. The client
// derives the result from this evidence (package scan), so the response
// carries no separate result list to lie about.
func (n *Node) handleScan(now int64, from wire.NodeID, m *wire.ScanRequest) []wire.Envelope {
	if m.Start != nil && m.End != nil && bytes.Compare(m.Start, m.End) >= 0 {
		// Nothing to prove about an empty range; honest clients never send
		// one (the client core rejects it before signing anything).
		return nil
	}
	resp, err := n.AssembleScan(m.Start, m.End, m.ReqID)
	if err != nil {
		n.logf("scan not served", "err", err)
		return nil
	}
	n.awaitProofs(from, resp.Proof.L0Pruned)
	n.lead.readers[from] = n.CertifiedBlocks()
	return []wire.Envelope{{From: n.cfg.ID, To: from, Msg: resp}}
}

// awaitProofs registers a Phase I reader for proof forwarding on every
// uncertified block of the window it was served: the client pinned a
// digest for each and waits for the certificate.
func (n *Node) awaitProofs(reader wire.NodeID, window []wire.L0Slice) {
	for i := range window {
		if len(window[i].CertSig) == 0 {
			n.awaitProof(window[i].ID, reader)
		}
	}
}

// AssembleScan builds a scan response locally, outside any transport —
// what handleScan sends, and the edge half of the read path (a get's over
// its point range) for benchmarks and direct measurement. It signs only
// an answer the client can need as evidence (scan.PinsDigest), or every
// answer on a faulty node, so each lie it tells convicts.
func (n *Node) AssembleScan(start, end []byte, reqID uint64) (*wire.ScanResponse, error) {
	src, err := n.l0Window()
	if err != nil {
		return nil, err
	}
	resp := scan.Assemble(start, end, reqID, n.cfg.Fault.hideVictim(src), n.idx)
	n.cfg.Fault.stopShort(src, resp.Proof.L0Pruned, start, end)
	n.applyScanFault(src, resp)
	if n.cfg.Fault != nil || scan.PinsDigest(resp) {
		resp.EdgeSig = wcrypto.SignMsg(n.key, resp)
		n.m.readSigs.Inc()
	}
	return resp, nil
}

// applyScanFault injects the configured scan lies into an assembled
// response. Every lie is built so the victim's signature check passes —
// detection happens through the completeness proof (omission, truncation)
// or through lazy certification (injection into an uncertified block).
func (n *Node) applyScanFault(src mlsm.L0Source, resp *wire.ScanResponse) {
	f := n.cfg.Fault
	if f == nil {
		return
	}
	if len(f.ScanOmitKey) > 0 {
		// Omission attack: drop the record from whichever level page
		// holds it. The cut no longer folds to the page's leaf in the
		// certified tree, so the client's Merkle range check fails.
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
						break
					}
				}
			}
		}
	}
	if len(f.ScanInjectKey) > 0 {
		// Injection attack: forge an entry inside an uncertified L0 block
		// and cut the slice out of the forgery — the one place a lie
		// passes structural verification, because no certificate pins the
		// content yet. Lazy certification catches it: the cloud's proof
		// carries the honest digest, contradicting the digest the client
		// pinned from this response.
		window := resp.Proof.L0Pruned
		for i := len(window) - 1; i >= 0; i-- {
			if len(window[i].CertSig) > 0 {
				continue
			}
			forged := src.Blocks[i]
			forged.Invalidate() // the copy must not cut from the honest index
			forged.Entries = append(append([]wire.Entry(nil), forged.Entries...),
				wire.Entry{Client: "forged-client", Key: f.ScanInjectKey, Value: f.ScanInjectValue})
			window[i] = forged.Slice(resp.Start, resp.End)
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
			narrow, err := n.idx.LevelRangeProof(int(lp.Level), int(lp.First), int(lp.First)+len(lp.Pages)-1, resp.Start, resp.End)
			if err != nil {
				continue
			}
			resp.Proof.Levels[li] = narrow
		}
	}
}

// l0Window snapshots the uncompacted L0 suffix — blocks, and certificates
// where available — honouring the stale-snapshot fault. On a persistent
// node it ends at the first block no successful sync covers: a crash can
// still lose that block, and a recovered node may cut the same id with
// other content. It still reaches the certified frontier, since a block is
// certified only after its sync. A block the log cannot produce is an
// error and nothing is served: a window with a hole is one an honest
// client must reject.
func (n *Node) l0Window() (mlsm.L0Source, error) {
	lo, hi := n.l0From, n.log.NumBlocks()
	for n.store != nil && hi > lo && !n.store.Covers(hi-1) {
		hi--
	}
	if n.cfg.Fault != nil && n.cfg.Fault.HideL0 && n.cfg.Fault.HideL0From < hi {
		// Stale-snapshot attack: pretend recent blocks do not exist.
		hi = n.cfg.Fault.HideL0From
		if hi < lo {
			hi = lo
		}
	}
	var src mlsm.L0Source
	for bid := lo; bid < hi; bid++ {
		blk, err := n.log.Block(bid)
		if err != nil {
			return mlsm.L0Source{}, fmt.Errorf("L0 window [%d,%d): %w", lo, hi, err)
		}
		src.Blocks = append(src.Blocks, *blk)
		// An absent certificate is the zero one: Phase I evidence only.
		cert, _ := n.log.Cert(bid)
		src.Certs = append(src.Certs, cert)
	}
	return src, nil
}
