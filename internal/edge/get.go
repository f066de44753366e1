package edge

import (
	"wedgechain/internal/mlsm"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// handleGet serves the LSMerkle key-value read protocol (Section V-B,
// "Reading"). The response accounts for every uncompacted L0 page (block):
// blocks whose digest-committed key summary excludes the key ship as
// pruned references (summary + entries hash, no entries), the rest in
// full. When the winning version lives in a deeper level — or the key
// does not exist — the response additionally carries the single
// intersecting page of each level with its Merkle audit path, all level
// roots, and the signed global root, letting the client verify both the
// value and its recency.
func (n *Node) handleGet(now int64, from wire.NodeID, m *wire.GetRequest) []wire.Envelope {
	if n.follower {
		return nil
	}
	n.m.gets.Inc()
	resp, digests, tampered := n.buildGet(m)
	// Phase I gets: register the caller for proof forwarding on every
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
		// Size-independent signing: the signable body represents each
		// full L0 block by the digest cached at block cut (pruned
		// references recompute theirs from a few dozen preimage bytes),
		// so the signature costs the same whether the uncompacted window
		// holds one block or fifty.
		resp.EdgeSig = wcrypto.SignGetResponse(n.key, resp, digests)
	}
	return []wire.Envelope{{From: n.cfg.ID, To: from, Msg: resp}}
}

// AssembleGet builds and signs a get response locally, outside any
// transport — the edge half of the best-case read path that Figure 5(d)
// measures with real crypto.
func (n *Node) AssembleGet(key []byte, reqID uint64) *wire.GetResponse {
	resp, digests, tampered := n.buildGet(&wire.GetRequest{Key: key, ReqID: reqID})
	if tampered {
		resp.EdgeSig = wcrypto.SignMsg(n.key, resp)
	} else {
		resp.EdgeSig = wcrypto.SignGetResponse(n.key, resp, digests)
	}
	return resp
}

// buildGet assembles the unsigned get response, the cut-time digests of
// the L0 blocks it kept in full (aligned with Proof.L0Blocks), and
// whether a byzantine fault altered the evidence (in which case the
// cached digests no longer bind and the caller must sign generically).
// Split from handleGet so the Figure 5(d) microbenchmark can measure pure
// assembly cost.
func (n *Node) buildGet(m *wire.GetRequest) (*wire.GetResponse, [][]byte, bool) {
	src := n.l0Window()
	if key, tamper, on := n.cfg.Fault.summaryFaultKey(); on {
		// Summary-pruning attack: assemble the answer as if the blocks
		// holding key did not exist (the stale answer the lie is for),
		// then splice those blocks back in as pruned references so the
		// window still looks contiguous and accounted for.
		rest, victims := splitSummaryVictims(src, key)
		resp, _ := mlsm.AssembleGet(m.Key, m.ReqID, rest, n.idx, true)
		pv, pvCerts := prunedVictims(victims, key, tamper)
		mergePruned(&resp.Proof.L0Pruned, &resp.Proof.L0PrunedCerts, pv, pvCerts)
		return resp, nil, true
	}
	resp, digests := mlsm.AssembleGet(m.Key, m.ReqID, src, n.idx, true)
	return resp, digests, false
}

// l0Window snapshots the uncompacted L0 suffix — blocks, certificates
// where available, and cut-time digests — honouring the stale-snapshot
// fault. The digests slice stays aligned with the blocks slice.
func (n *Node) l0Window() mlsm.L0Source {
	lo, hi := n.l0From, n.log.NumBlocks()
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
			continue
		}
		digest, err := n.log.Digest(bid)
		if err != nil {
			continue
		}
		src.Blocks = append(src.Blocks, *blk)
		src.Digests = append(src.Digests, digest)
		cert, ok := n.log.Cert(bid)
		if !ok {
			cert = wire.BlockProof{} // uncertified: Phase I evidence only
		}
		src.Certs = append(src.Certs, cert)
	}
	return src
}
