package edge

import (
	"bytes"

	"wedgechain/internal/core"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Replica groups: a shard's chain is served by one leader and mirrored by
// followers. The leader streams every cut block to the followers signed
// with the block-ack body (the same 44-byte promise the client
// acknowledgements carry), the followers audit the stream against the
// cloud's certificates, and the cloud's signed LeadershipTransfer promotes
// the follower with the longest certified prefix when the leader crashes,
// stalls certification, or is convicted. Nothing here adds trust: a
// follower is just another untrusted edge node, kept honest by the same
// lazy certification that polices the leader.

// Kill simulates a process crash: the node stops answering anything.
// Intended for failover tests and benchmarks; call on the node's
// transport goroutine.
func (n *Node) Kill() { n.killed = true }

// Killed reports whether the node has been killed.
func (n *Node) Killed() bool { return n.killed }

// IsFollower reports whether the node is currently mirroring rather than
// serving.
func (n *Node) IsFollower() bool { return n.follower }

// Leader returns the chain leader this node currently recognizes (itself,
// when leading).
func (n *Node) Leader() wire.NodeID { return n.leader }

// Epoch returns the highest leadership epoch the node has adopted.
func (n *Node) Epoch() uint64 { return n.epoch }

// Chain returns the shard chain identity this node serves.
func (n *Node) Chain() wire.NodeID { return n.cfg.Chain }

// LogBlocks reports the node's local block frontier — served blocks on a
// leader, mirrored blocks on a follower (tests and harnesses).
func (n *Node) LogBlocks() uint64 { return n.log.NumBlocks() }

// CertifiedBlocks reports the length of the contiguous certified prefix.
func (n *Node) CertifiedBlocks() uint64 {
	if ct, ok := n.log.CertifiedThrough(); ok {
		return ct + 1
	}
	return 0
}

// replicate builds the follower-bound mirror stream for a freshly cut
// block. The signature binds the leader to the exact bytes it shipped:
// honest leaders reuse the shared block-ack signature already computed for
// the client acknowledgements, while the equivocation fault tampers the
// block per follower and signs the tampered digest — still a valid
// signature, which is the point: the stream itself becomes convicting
// evidence once the cloud certificate contradicts it.
func (n *Node) replicate(blk *wire.Block, digest, sharedSig []byte) []wire.Envelope {
	if len(n.cfg.Followers) == 0 {
		return nil
	}
	sendBlk := *blk
	sig := sharedSig
	if f := n.cfg.Fault; f != nil && f.EquivocateReplication {
		sendBlk = tamperBlock(*blk, "")
		digest = wcrypto.BlockDigest(&sendBlk)
		sig = nil
	}
	if sig == nil {
		sig = wcrypto.SignBlockAck(n.key, blk.ID, digest)
	}
	var out []wire.Envelope
	n.m.replicated.Add(uint64(len(n.cfg.Followers)))
	for _, f := range n.cfg.Followers {
		out = append(out, wire.Envelope{From: n.cfg.ID, To: f, Msg: &wire.ReplicateBlock{
			Chain:     n.cfg.Chain,
			Leader:    n.cfg.ID,
			Block:     sendBlk,
			LeaderSig: sig,
		}})
	}
	return out
}

// heartbeat reports liveness and replication progress to the cloud:
// Blocks is the local log frontier, Certified the length of the
// contiguous certified prefix — the quantity the cloud maximizes when it
// picks a promotion candidate.
func (n *Node) heartbeat(now int64) wire.Envelope {
	hb := &wire.ReplicaHeartbeat{
		Node:   n.cfg.ID,
		Chain:  n.cfg.Chain,
		Blocks: n.log.NumBlocks(),
		Ts:     now,
	}
	if ct, ok := n.log.CertifiedThrough(); ok {
		hb.Certified = ct + 1
	}
	hb.Sig = wcrypto.SignMsg(n.key, hb)
	return wire.Envelope{From: n.cfg.ID, To: n.cfg.Cloud, Msg: hb}
}

// handleReplicate installs a leader-replicated block into the mirrored
// log. Blocks may arrive out of order (stashed until their predecessor
// lands); duplicates are compared by digest, and a divergent duplicate
// that contradicts an existing cloud certificate convicts the leader on
// the spot.
func (n *Node) handleReplicate(now int64, from wire.NodeID, m *wire.ReplicateBlock) []wire.Envelope {
	if !n.follower || m.Chain != n.cfg.Chain || from != n.leader || m.Leader != from {
		return nil
	}
	if m.Block.Edge != n.cfg.Chain {
		return nil
	}
	bid := m.Block.ID
	// One digest serves the signature check, the duplicate comparison and
	// the install.
	digest := m.Block.BodyDigest()
	if err := wcrypto.VerifyBlockAck(n.reg, m.Leader, bid, digest, m.LeaderSig); err != nil {
		n.logf("dropping replicated block with bad leader signature", "bid", bid, "err", err)
		return nil
	}
	next := n.log.NumBlocks()
	if bid < next {
		// Duplicate. Same digest: idempotent redelivery. Divergent digest
		// with a certificate on file: the leader signed two different
		// blocks under one id — equivocation, convicted with the copy that
		// contradicts the certificate.
		have, err := n.log.Digest(bid)
		if err == nil && !bytes.Equal(digest, have) {
			if _, certified := n.log.Cert(bid); certified {
				return n.convictLeader(bid, m.Block, m.LeaderSig,
					"replicated duplicate contradicts certificate; convicting leader")
			}
			n.logf("divergent uncertified duplicate from leader", "bid", bid)
		}
		return nil
	}
	if bid > next {
		if bid >= next+pendingWindow {
			// Beyond the stash window: drop it. The gap itself (or the
			// cloud's gossiped frontier) drives certified catch-up, which
			// refetches the run verified — stashing arbitrarily far ahead
			// would just let a fast or hostile leader grow the map without
			// bound.
			return nil
		}
		n.evictStash()
		n.pendingRepl[bid] = stashedBlock{m, digest}
		return nil
	}
	return append(n.installReplicated(m, digest), n.installStashed()...)
}

// stashedBlock is a replicated block that arrived ahead of its
// predecessor, with the digest its leader signature was checked over.
type stashedBlock struct {
	m      *wire.ReplicateBlock
	digest []byte
}

// installStashed installs the stashed blocks the mirrored log has caught
// up with.
func (n *Node) installStashed() []wire.Envelope {
	var out []wire.Envelope
	for {
		bid := n.log.NumBlocks()
		st, ok := n.pendingRepl[bid]
		if !ok {
			return out
		}
		delete(n.pendingRepl, bid)
		out = append(out, n.installReplicated(st.m, st.digest)...)
	}
}

// installReplicated mirrors one in-order replicated block under the digest
// its signature was checked over, persists it when the follower runs a
// durable store, and applies any certificate that raced ahead of it.
func (n *Node) installReplicated(m *wire.ReplicateBlock, digest []byte) []wire.Envelope {
	bid := m.Block.ID
	if err := n.log.InstallBlock(&m.Block, digest); err != nil {
		n.logf("mirror install failed", "bid", bid, "err", err)
		return nil
	}
	n.replSigs[bid] = append([]byte(nil), m.LeaderSig...)
	if n.store != nil {
		blk, err := n.log.Block(bid)
		if err == nil {
			perr := n.store.AppendBlockBuffered(blk)
			if perr == nil {
				perr = n.store.Sync()
			}
			if perr != nil {
				n.logf("persisting mirrored block failed", "bid", bid, "err", perr)
			}
		}
	}
	if p, ok := n.pendingCerts[bid]; ok {
		delete(n.pendingCerts, bid)
		return n.followerApplyCert(p)
	}
	return nil
}

// followerApplyCert applies a cloud certificate to the mirrored log. A
// certificate for a block not yet mirrored waits; a certificate whose
// digest contradicts the mirrored block convicts the leader — the
// replication stream the leader signed IS the lie.
func (n *Node) followerApplyCert(p wire.BlockProof) []wire.Envelope {
	if p.BID >= n.log.NumBlocks() {
		if p.BID >= n.log.NumBlocks()+pendingWindow {
			return nil // beyond the stash window; catch-up rides the certs in
		}
		n.evictStash()
		n.pendingCerts[p.BID] = p
		return nil
	}
	if err := n.log.SetCert(p); err != nil {
		blk, berr := n.log.Block(p.BID)
		sig := n.replSigs[p.BID]
		if berr != nil || sig == nil {
			n.logf("certificate contradicts mirror but evidence is missing", "bid", p.BID, "err", err)
			return nil
		}
		if n.poisoned == nil {
			n.poisoned = make(map[uint64]bool)
		}
		n.poisoned[p.BID] = true
		return n.convictLeader(p.BID, *blk, sig,
			"certificate contradicts replicated block; convicting leader")
	}
	n.m.certified.Inc()
	// The replication signature's evidentiary job is done: the cert
	// matched the mirrored digest, and a future divergent duplicate
	// carries its own convicting signature. Dropping it keeps replSigs
	// bounded by the uncertified tail instead of growing per block
	// forever.
	delete(n.replSigs, p.BID)
	if n.store != nil {
		err := n.store.AppendCertBuffered(&p)
		if err == nil {
			err = n.store.Sync()
		}
		if err != nil {
			n.logf("persisting mirrored certificate failed", "bid", p.BID, "err", err)
		}
	}
	return nil
}

// pendingWindow bounds how far above the mirrored tip a follower stashes
// out-of-order replicated blocks and early certificates. Anything further
// ahead is dropped and refetched through certified catch-up — the same
// floor-chasing discipline the proof-waiter table follows, so a fast (or hostile) leader can never grow the stash maps without
// bound.
const pendingWindow = 1024

// evictStash drops stash entries the mirrored log has outgrown: a bid
// below the tip was installed (live or via catch-up) and its stashed copy
// or certificate can never be needed again.
func (n *Node) evictStash() {
	next := n.log.NumBlocks()
	for bid := range n.pendingRepl {
		if bid < next {
			delete(n.pendingRepl, bid)
		}
	}
	for bid := range n.pendingCerts {
		if bid < next {
			delete(n.pendingCerts, bid)
		}
	}
}

// convictLeader packages a leader-signed replicated block that contradicts
// the cloud's certificate as a standard add lie: the replication
// signature covers exactly the block-ack body a PutResponse carries, so
// the existing Judge convicts with zero new adjudication code. At most one
// dispute is filed per block id — certificates and duplicates can be
// redelivered indefinitely, and repeats carry no new evidence.
func (n *Node) convictLeader(bid uint64, blk wire.Block, sig []byte, why string) []wire.Envelope {
	if n.accused[bid] {
		return nil
	}
	if n.accused == nil {
		n.accused = make(map[uint64]bool)
	}
	n.accused[bid] = true
	n.logf(why, "bid", bid)
	resp := &wire.PutResponse{BID: bid, Block: blk, EdgeSig: sig}
	d := core.BuildAddLieDispute(n.key, n.leader, resp)
	return []wire.Envelope{{From: n.cfg.ID, To: n.cfg.Cloud, Msg: d}}
}

// handleTransfer adopts a cloud-signed leadership transfer. The promoted
// node flips to serving mode, inherits the chain's mirrored log and
// LSMerkle, re-certifies any uncertified tail, and (if faulty) starts
// hiding the tail it was told to serve. Demoted or bystander replicas
// re-point their mirror at the new leader and keep the transfer to
// announce it.
func (n *Node) handleTransfer(now int64, from wire.NodeID, m *wire.LeadershipTransfer) []wire.Envelope {
	if m.Chain != n.cfg.Chain || from != n.cfg.Cloud {
		return nil
	}
	if err := wcrypto.VerifyMsg(n.reg, n.cfg.Cloud, m, m.CloudSig); err != nil {
		n.logf("dropping transfer with bad cloud signature", "err", err)
		return nil
	}
	if m.NewLeader != n.cfg.ID && (n.transfer == nil || m.Epoch > n.transfer.Epoch) {
		// Kept even when a GroupJoin already moved the epoch this far:
		// the cloud re-sends a rejoining ex-leader its transfer after the
		// join.
		n.transfer = m
	}
	if m.Epoch <= n.epoch {
		return nil
	}
	n.epoch = m.Epoch
	if m.NewLeader != n.cfg.ID {
		n.logf("demoted to follower", "chain", n.cfg.Chain, "epoch", m.Epoch, "leader", m.NewLeader)
		return append(n.demote(now, m.NewLeader), n.heldEarly(now)...)
	}

	n.follower = false
	n.leader = n.cfg.ID
	n.cfg.Followers = nil
	for _, f := range m.Followers {
		if f != n.cfg.ID {
			n.cfg.Followers = append(n.cfg.Followers, f)
		}
	}
	// The mirrored history was acknowledged (and partly certified) under
	// the previous leader, exactly like a recovered log.
	n.resetTables()
	if f := n.cfg.Fault; f != nil && f.PromoteStale {
		// Stale-serve fault: pretend the mirrored log ends just before
		// PromoteStaleFrom. Reads of the tail are denied and the get/scan
		// window hides it; chain-keyed gossip still advertises the real
		// frontier, so clients convict through omission disputes.
		if f.OmitBlocks == nil {
			f.OmitBlocks = make(map[uint64]bool)
		}
		for bid := f.PromoteStaleFrom; bid < n.log.NumBlocks(); bid++ {
			f.OmitBlocks[bid] = true
		}
		f.HideL0 = true
		f.HideL0From = f.PromoteStaleFrom
	}
	n.logf("promoted to leader", "chain", n.cfg.Chain, "epoch", m.Epoch, "followers", len(n.cfg.Followers))
	return append(n.certifyTail(now), n.heldEarly(now)...)
}

// maxEarly bounds the client requests a follower holds for its first
// transfer (Node.early).
const maxEarly = 64

// heldEarly settles the client requests held for this node's first
// transfer: a promoted node handles them now, on this turn, and a node
// that still follows answers each with the transfer it now holds.
func (n *Node) heldEarly(now int64) []wire.Envelope {
	held := n.early
	n.early = nil
	var out []wire.Envelope
	for _, env := range held {
		out = append(out, n.Receive(now, env)...)
	}
	return out
}

// announceLeader answers a client request that reached this follower with
// the cloud-signed transfer it adopted. The cloud sends a transfer to each
// session once; a session whose copy was lost still addresses the demoted
// leader, and this copy rebinds it instead of leaving it to time out. A
// follower that holds no transfer keeps the request for its first one
// (Node.early).
func (n *Node) announceLeader(req wire.Envelope) []wire.Envelope {
	if n.transfer == nil {
		if len(n.early) < maxEarly {
			n.early = append(n.early, req)
		}
		return nil
	}
	return []wire.Envelope{{From: n.cfg.ID, To: req.From, Msg: n.transfer}}
}

// certifyTail re-submits certification for every mirrored-but-uncertified
// block — the cert-timeout failover case, where the dead leader cut and
// replicated blocks it never (successfully) certified. First-writer-wins
// at the cloud makes re-submission idempotent.
func (n *Node) certifyTail(now int64) []wire.Envelope {
	var out []wire.Envelope
	start := uint64(0)
	if ct, ok := n.log.CertifiedThrough(); ok {
		start = ct + 1
	}
	for bid := start; bid < n.log.NumBlocks(); bid++ {
		if _, ok := n.log.Cert(bid); ok {
			continue
		}
		if n.poisoned[bid] {
			// The cloud certified a digest this mirror contradicts; the
			// honest content is lost to this node. Re-certifying would read
			// as equivocation and convict the successor.
			continue
		}
		if f := n.cfg.Fault; f != nil && f.PromoteStale && bid >= f.PromoteStaleFrom {
			continue // a stale server does not certify what it hides
		}
		digest, err := n.log.Digest(bid)
		if err != nil {
			continue
		}
		cert := &wire.BlockCertify{Edge: n.cfg.Chain, BID: bid, Digest: digest}
		cert.EdgeSig = wcrypto.SignMsg(n.key, cert)
		env := wire.Envelope{From: n.cfg.ID, To: n.cfg.Cloud, Msg: cert}
		n.m.bytesToCloud.Add(uint64(wire.EncodedSize(env)))
		out = append(out, env)
	}
	return out
}

// reackDuplicate answers a write whose entry is already in the log — a
// client retry, or a post-failover resend of an entry the new leader
// inherited from the previous one. The acknowledgement is rebuilt from
// the containing block; if the block is certified the proof rides along,
// otherwise the client is registered for proof forwarding.
func (n *Node) reackDuplicate(from wire.NodeID, e wire.Entry) []wire.Envelope {
	pos, ok := n.log.SeenPos(e.Client, e.Seq)
	if !ok {
		return nil
	}
	// Replay defence: only a byte-identical resend earns a re-ack. The
	// same (client, seq) carrying different content is a replayed
	// sequence number — e.g. a fresh session reusing an identity — and
	// is rejected exactly as Append rejected it before replica groups.
	if stored, ok := n.log.EntryAt(pos); !ok ||
		!bytes.Equal(stored.Key, e.Key) || !bytes.Equal(stored.Value, e.Value) {
		n.logf("rejecting replayed (client, seq) with different content",
			"client", e.Client, "seq", e.Seq)
		return nil
	}
	blk, ok := n.log.BlockByPos(pos)
	if !ok {
		// Still buffered: re-register the responder so the eventual block
		// cut acknowledges this retry.
		n.reqs.Set(pos, e.Client)
		return nil
	}
	digest, err := n.log.Digest(blk.ID)
	if err != nil {
		return nil
	}
	ack := &wire.PutResponse{BID: blk.ID, Block: *blk, EdgeSig: wcrypto.SignBlockAck(n.key, blk.ID, digest)}
	out := []wire.Envelope{{From: n.cfg.ID, To: from, Msg: ack}}
	if cert, ok := n.log.Cert(blk.ID); ok {
		out = append(out, wire.Envelope{From: n.cfg.ID, To: from, Msg: cloneProof(&cert)})
	} else {
		n.awaitProof(blk.ID, from)
	}
	return out
}
