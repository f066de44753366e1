package edge

import (
	"fmt"

	"wedgechain/internal/mlsm"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// handleGet serves the LSMerkle key-value read protocol (Section V-B,
// "Reading"). The response accounts for every uncompacted L0 page (block)
// with a slice: the rows holding the key, the leaf on either side, and the
// range proof folding them to the block's digest. When the winning version
// lives in a deeper level — or the key does not exist — the response
// additionally carries the single intersecting page of each level with its
// Merkle audit path, all level roots, and the signed global root, letting
// the client verify both the value and its recency.
func (n *Node) handleGet(now int64, from wire.NodeID, m *wire.GetRequest) []wire.Envelope {
	n.m.gets.Inc()
	resp, err := n.AssembleGet(m.Key, m.ReqID)
	if err != nil {
		n.logf("get not served", "err", err)
		return nil
	}
	n.awaitProofs(from, resp.Proof.L0Pruned)
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

// AssembleGet builds and signs a get response locally, outside any
// transport — what handleGet sends, and the edge half of the best-case
// read path that Figure 5(d) measures with real crypto.
func (n *Node) AssembleGet(key []byte, reqID uint64) (*wire.GetResponse, error) {
	src, err := n.l0Window()
	if err != nil {
		return nil, err
	}
	resp := mlsm.AssembleGet(key, reqID, n.cfg.Fault.hideVictim(src), n.idx)
	start, end := wire.PointRange(key)
	n.cfg.Fault.stopShort(src, resp.Proof.L0Pruned, start, end)
	resp.EdgeSig = wcrypto.SignMsg(n.key, resp)
	return resp, nil
}

// l0Window snapshots the uncompacted L0 suffix — blocks, and certificates
// where available — honouring the stale-snapshot fault. A block the log
// cannot produce is an error and nothing is served: a window with a hole
// is one an honest client must reject.
func (n *Node) l0Window() (mlsm.L0Source, error) {
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
			return mlsm.L0Source{}, fmt.Errorf("L0 window [%d,%d): %w", lo, hi, err)
		}
		src.Blocks = append(src.Blocks, *blk)
		// An absent certificate is the zero one: Phase I evidence only.
		cert, _ := n.log.Cert(bid)
		src.Certs = append(src.Certs, cert)
	}
	return src, nil
}
