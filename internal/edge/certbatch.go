package edge

import (
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Batched certification, edge side. With Config.CertBatch > 1 the edge
// amortizes the certification round trip in both directions:
//
//   - Outbound: up to CertBatch contiguous cut blocks accumulate into one
//     pending run and ship to the cloud as a single signed
//     wire.BlockCertifyBatch — one Ed25519 signature (and one cloud-side
//     verification) covering the whole run instead of one per block.
//     Partial runs flush on the next Tick, so batching adds at most one
//     tick of certification latency.
//
//   - Inbound: the cloud's wire.BlockCertBatch certifies a contiguous run
//     under one cloud signature. The covered blocks are marked certified
//     in the log with a synthesized per-block proof that carries no
//     individual CloudSig; the batch itself is retained (per covered bid,
//     bounded) as the verifiable artifact, and is what gets forwarded to
//     clients and served alongside Phase I reads.
//
// Because batch-covered log certificates are not individually
// verifiable, they are excluded from every path that re-checks a
// certificate signature later: the durable segment (recovery verifies
// CloudSig), catch-up serving (followers verify per-item), and the
// embedded proof of a read response. After a restart the batch-covered
// suffix simply re-certifies; the cloud answers the duplicates with
// individually signed proofs.

// certBatching reports whether outbound certify batching is active.
// Incompatible modes fall back to per-block certifies: full-data
// certification (bodies are per-block), fault injection (the byzantine
// knobs target single certifies), and group commit (certifies must not
// reach the cloud before the shared fsync, and the batch flush runs on
// Tick, outside the pendingAcks gate).
func (n *Node) certBatching() bool {
	return n.cfg.CertBatch > 1 && !n.cfg.FullDataCert && n.cfg.Fault == nil &&
		!(n.store != nil && n.cfg.SyncEvery > 0)
}

// queueCertify adds a freshly cut block to the pending certify run,
// flushing first if the run would lose contiguity and again when it
// reaches CertBatch.
func (n *Node) queueCertify(bid uint64, digest []byte) []wire.Envelope {
	var out []wire.Envelope
	if len(n.certPendDigests) > 0 && bid != n.certPendStart+uint64(len(n.certPendDigests)) {
		out = n.flushCertifyRun()
	}
	if len(n.certPendDigests) == 0 {
		n.certPendStart = bid
	}
	n.certPendDigests = append(n.certPendDigests, digest)
	if len(n.certPendDigests) >= n.cfg.CertBatch {
		out = append(out, n.flushCertifyRun()...)
	}
	return out
}

// flushCertifyRun signs and ships the pending run as one
// BlockCertifyBatch. One edge signature covers every block in the run.
func (n *Node) flushCertifyRun() []wire.Envelope {
	if len(n.certPendDigests) == 0 {
		return nil
	}
	m := &wire.BlockCertifyBatch{Edge: n.cfg.Chain, Start: n.certPendStart, Digests: n.certPendDigests}
	n.certPendDigests = nil
	m.EdgeSig = wcrypto.SignMsg(n.key, m)
	env := wire.Envelope{From: n.cfg.ID, To: n.cfg.Cloud, Msg: m}
	n.m.bytesToCloud.Add(uint64(wire.EncodedSize(env)))
	return []wire.Envelope{env}
}

// certBatchRetain bounds how many covered bids keep a pointer to their
// covering certificate batch. Retention only serves the read path — a
// Phase I read of a batch-certified block ships the covering batch as
// the proof — so once the read window has moved past a bid, its entry
// is dead weight; the oldest are evicted first. An evicted bid's reads
// degrade to Phase I with proof forwarding on the next certificate.
const certBatchRetain = 4096

// retainCertBatch indexes a verified inbound batch by every bid it
// covers, evicting the oldest entries past certBatchRetain.
func (n *Node) retainCertBatch(b *wire.BlockCertBatch) {
	if n.certBatches == nil {
		n.certBatches = make(map[uint64]*wire.BlockCertBatch)
	}
	for i := range b.Digests {
		bid := b.Start + uint64(i)
		if _, ok := n.certBatches[bid]; !ok {
			n.certBatchOrder = append(n.certBatchOrder, bid)
		}
		n.certBatches[bid] = b
	}
	for len(n.certBatchOrder) > certBatchRetain {
		delete(n.certBatches, n.certBatchOrder[0])
		n.certBatchOrder = n.certBatchOrder[1:]
	}
}

// handleCertBatch installs a batched cloud certificate: one cloud
// signature vouching for a contiguous run of (bid, digest) pairs. The
// leader applies each pair exactly as it would an individual proof —
// log upgrade, waiter forwarding, merge trigger — and a follower audits
// its mirror per pair, so a single contradicting digest inside an
// otherwise honest batch still convicts the leader for that block.
func (n *Node) handleCertBatch(now int64, from wire.NodeID, b *wire.BlockCertBatch, verified bool) []wire.Envelope {
	if from != n.cfg.Cloud || b.Edge != n.cfg.Chain || len(b.Digests) == 0 {
		return nil
	}
	if !verified {
		if err := wcrypto.VerifyMsg(n.reg, n.cfg.Cloud, b, b.CloudSig); err != nil {
			n.logf("dropping certificate batch with bad cloud signature", "err", err)
			return nil
		}
	}
	var out []wire.Envelope
	if n.follower {
		for i, d := range b.Digests {
			out = append(out, n.followerApplyCert(wire.BlockProof{Edge: b.Edge, BID: b.Start + uint64(i), Digest: d})...)
		}
		return out
	}
	n.retainCertBatch(b)
	// Distinct clients touched by any covered bid get the batch once,
	// however many of their blocks it certifies.
	var notify []wire.NodeID
	seen := make(map[wire.NodeID]bool)
	note := func(c wire.NodeID) {
		if !seen[c] {
			seen[c] = true
			notify = append(notify, c)
		}
	}
	for i, d := range b.Digests {
		bid := b.Start + uint64(i)
		if _, ok := n.log.Cert(bid); ok {
			continue // already certified (an individually signed proof won)
		}
		if err := n.log.SetCert(wire.BlockProof{Edge: b.Edge, BID: bid, Digest: d}); err != nil {
			n.logf("certificate batch entry does not match local block", "bid", bid, "err", err)
			continue
		}
		n.m.certified.Inc()
		n.m.markCertified(bid, now)
		waiting, _ := n.waiters.Take(bid)
		for _, c := range waiting {
			note(c)
		}
	}
	for _, c := range notify {
		out = append(out, wire.Envelope{From: n.cfg.ID, To: c, Msg: b})
	}
	n.advanceWaiters()
	out = append(out, n.maybeStartMerge(now)...)
	return out
}
