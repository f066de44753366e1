package edge

import (
	"bytes"

	"wedgechain/internal/mlsm"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
	"wedgechain/internal/wlog"
)

// Certified catch-up: how a node that missed history rejoins the group
// without trusting whoever serves it. A restarted follower (blank log) or
// a demoted ex-leader (uncertified tail truncated) asks the current leader
// for the blocks it is missing. Every shipped block carries the serving
// leader's transfer signature over the block-ack body — the same 44-byte
// promise client acknowledgements and the replication stream carry — and
// certified blocks additionally carry their cloud certificate. The
// receiver verifies each block against the certificate before installing
// it, so a lying sync peer does not poison the mirror: shipped content
// that contradicts a certificate is itself convicting evidence, filed
// through the standard add-lie dispute with zero new adjudication code.

// catchUpRun bounds how many blocks one CatchUpBlocks message carries.
// The receiver re-requests while still behind Through, so a long gap
// drains as a sequence of bounded messages instead of one giant frame.
const catchUpRun = 16

// requestCatchUp builds the signed request for every block from `from` up
// — usually the local block frontier, or the first uncertified block when
// the run is healing missing certificates over a complete mirror. Callers
// own rate limiting via lastCatchUp.
func (n *Node) requestCatchUp(now int64, from uint64) wire.Envelope {
	n.lastCatchUp = now
	n.m.catchUps.Inc()
	req := &wire.CatchUpRequest{
		Chain: n.cfg.Chain,
		Node:  n.cfg.ID,
		From:  from,
		Ts:    now,
	}
	req.Sig = wcrypto.SignMsg(n.key, req)
	return wire.Envelope{From: n.cfg.ID, To: n.leader, Msg: req}
}

// handleCatchUpRequest serves a bounded run of blocks to a node that is
// behind. Only the current leader serves; blocks are public (any client
// can read them), so the only gate is a valid requester signature on the
// same chain. Each item is signed over the digest of exactly the bytes
// shipped, and certified blocks carry their proof so the receiver can
// advance its certified prefix without per-block cloud round-trips.
func (n *Node) handleCatchUpRequest(now int64, from wire.NodeID, m *wire.CatchUpRequest) []wire.Envelope {
	if n.follower || m.Chain != n.cfg.Chain || m.Node != from {
		return nil
	}
	if err := wcrypto.VerifyMsg(n.reg, m.Node, m, m.Sig); err != nil {
		n.logf("dropping catch-up request with bad signature", "from", from, "err", err)
		return nil
	}
	through := n.log.NumBlocks()
	if m.From >= through {
		return nil
	}
	resp := &wire.CatchUpBlocks{
		Chain:   n.cfg.Chain,
		Leader:  n.cfg.ID,
		From:    m.From,
		Through: through,
	}
	end := m.From + catchUpRun
	if end > through {
		end = through
	}
	for bid := m.From; bid < end; bid++ {
		blk, err := n.log.Block(bid)
		if err != nil {
			return nil
		}
		digest, err := n.log.Digest(bid)
		if err != nil {
			return nil
		}
		item := wire.CatchUpItem{Block: *blk}
		if f := n.cfg.Fault; f != nil && f.TamperCatchUp {
			// Lying sync peer: alter the content and sign the tampered
			// digest, so the transfer signature verifies and the cloud
			// certificate is what refutes it.
			item.Block = tamperBlock(*blk, "")
			digest = wcrypto.BlockDigest(&item.Block)
		}
		item.ServerSig = wcrypto.SignBlockAck(n.key, bid, digest)
		if cert, ok := n.log.Cert(bid); ok {
			item.HasCert = true
			item.Cert = cert
		}
		resp.Items = append(resp.Items, item)
	}
	env := wire.Envelope{From: n.cfg.ID, To: from, Msg: resp}
	return []wire.Envelope{env}
}

// verifyCatchUpCert checks a certificate riding a catch-up item: right
// chain, right block, valid cloud signature.
func (n *Node) verifyCatchUpCert(it *wire.CatchUpItem, bid uint64) bool {
	c := &it.Cert
	if c.Edge != n.cfg.Chain || c.BID != bid {
		return false
	}
	if err := wcrypto.VerifyMsg(n.reg, n.cfg.Cloud, c, c.CloudSig); err != nil {
		n.logf("dropping catch-up certificate with bad cloud signature", "bid", bid, "err", err)
		return false
	}
	return true
}

// handleCatchUpBlocks installs a served run into the mirrored log. Every
// block is verified against its transfer signature, and — when certified —
// against the cloud's certificate, BEFORE installation: a shipped block
// that contradicts its own certificate convicts the serving peer and stops
// the run. Gaps or verification failures simply stop; the follower's
// gap-driven timer re-requests.
func (n *Node) handleCatchUpBlocks(now int64, from wire.NodeID, m *wire.CatchUpBlocks) []wire.Envelope {
	if !n.follower || m.Chain != n.cfg.Chain || from != n.leader || m.Leader != from {
		return nil
	}
	var out []wire.Envelope
	for i := range m.Items {
		it := &m.Items[i]
		bid := it.Block.ID
		if it.Block.Edge != n.cfg.Chain {
			break
		}
		if bid < n.log.NumBlocks() {
			// Already mirrored; at most heal a certificate we are missing.
			if it.HasCert && n.verifyCatchUpCert(it, bid) {
				if _, ok := n.log.Cert(bid); !ok {
					out = append(out, n.followerApplyCert(it.Cert)...)
				}
			}
			continue
		}
		if bid > n.log.NumBlocks() {
			break // gap inside the run; the re-request fills it
		}
		digest := wcrypto.BlockDigest(&it.Block)
		if err := wcrypto.VerifyBlockAck(n.reg, m.Leader, bid, digest, it.ServerSig); err != nil {
			n.logf("dropping catch-up block with bad transfer signature", "bid", bid, "err", err)
			break
		}
		if it.HasCert {
			if !n.verifyCatchUpCert(it, bid) {
				break
			}
			if !bytes.Equal(it.Cert.Digest, digest) {
				// The peer shipped content contradicting the cloud's
				// certificate; its own transfer signature is the evidence.
				out = append(out, n.convictLeader(bid, it.Block, it.ServerSig,
					"catch-up block contradicts certificate; convicting sync peer")...)
				break
			}
		}
		repl := &wire.ReplicateBlock{Chain: m.Chain, Leader: m.Leader, Block: it.Block, LeaderSig: it.ServerSig}
		out = append(out, n.installReplicated(repl, digest)...)
		if it.HasCert {
			if _, ok := n.log.Cert(bid); !ok {
				out = append(out, n.followerApplyCert(it.Cert)...)
			}
		}
	}
	// Live replication stashed while the gap existed may now be contiguous.
	out = append(out, n.installStashed()...)
	if n.log.NumBlocks() < m.Through {
		out = append(out, n.requestCatchUp(now, n.log.NumBlocks()))
	}
	return out
}

// handleGossip is the follower's view of the cloud's signed frontier
// statement (the reply to a FrontierRequest): when the certified chain is
// longer than the local mirror — missing blocks, or missing certificates
// over a complete mirror (the cert frame was lost and nothing retransmits
// certs) — start catching up. A cert-only gap requests from the first
// uncertified block, so the served run rides the missing certificates over
// blocks the mirror already holds. Clients consume the same message for
// freshness; an edge only acts on it as a follower.
func (n *Node) handleGossip(now int64, from wire.NodeID, m *wire.Gossip) []wire.Envelope {
	if !n.follower || from != n.cfg.Cloud || m.Edge != n.cfg.Chain ||
		n.leader == "" || n.cfg.CatchUpEvery <= 0 {
		return nil
	}
	if (m.Blocks <= n.log.NumBlocks() && m.Blocks <= n.log.CertifiedBlocks()) ||
		now-n.lastCatchUp < n.cfg.CatchUpEvery {
		return nil
	}
	if err := wcrypto.VerifyMsg(n.reg, n.cfg.Cloud, m, m.CloudSig); err != nil {
		return nil
	}
	catchFrom := n.log.NumBlocks()
	if m.Blocks > n.log.CertifiedBlocks() {
		if ct, ok := n.log.CertifiedThrough(); ok {
			if ct+1 < catchFrom {
				catchFrom = ct + 1
			}
		} else {
			catchFrom = 0
		}
	}
	n.logf("mirror behind certified frontier; catching up",
		"have", n.log.NumBlocks(), "haveCerts", n.log.CertifiedBlocks(),
		"certified", m.Blocks, "from", catchFrom)
	return []wire.Envelope{n.requestCatchUp(now, catchFrom)}
}

// handleGroupJoin adopts a cloud-signed rejoin admission. The cloud sends
// it to both sides: the rejoining node learns the current leader and epoch
// and starts catching up; the leader adds the node back to its replication
// fan-out. Stale admissions (older epoch) are ignored so a delayed join
// can never demote a newer view.
func (n *Node) handleGroupJoin(now int64, from wire.NodeID, m *wire.GroupJoin) []wire.Envelope {
	if m.Chain != n.cfg.Chain || from != n.cfg.Cloud {
		return nil
	}
	if err := wcrypto.VerifyMsg(n.reg, n.cfg.Cloud, m, m.CloudSig); err != nil {
		n.logf("dropping group join with bad cloud signature", "err", err)
		return nil
	}
	if m.Epoch < n.epoch {
		return nil
	}
	n.epoch = m.Epoch
	if m.Node == n.cfg.ID {
		if m.Leader == n.cfg.ID {
			return nil
		}
		n.logf("rejoining replica group", "chain", n.cfg.Chain, "epoch", m.Epoch, "leader", m.Leader)
		return n.demote(now, m.Leader)
	}
	if !n.follower && m.Leader == n.cfg.ID {
		for _, f := range n.cfg.Followers {
			if f == m.Node {
				return nil
			}
		}
		n.cfg.Followers = append(n.cfg.Followers, m.Node)
		n.logf("follower rejoined; resuming replication", "chain", n.cfg.Chain, "follower", m.Node)
	}
	return nil
}

// demote re-points the node at leader as a mirroring follower and discards
// everything the cloud never pinned. The uncertified tail may diverge from
// the history the new leader replicates (blocks this node cut, or mirrored
// from a dead leader, that were never certified), so it is truncated — in
// memory and in the durable segment — and refetched through certified
// catch-up. The certified prefix is identical everywhere by construction
// and stays. Role state from the old life (withheld group-commit acks,
// the submitter and proof-waiter tables, an in-flight merge claim) is
// dropped with it.
func (n *Node) demote(now int64, leader wire.NodeID) []wire.Envelope {
	n.follower = true
	n.leader = leader
	n.cfg.Followers = nil
	if n.pendingRepl == nil {
		n.pendingCerts = make(map[uint64]wire.BlockProof)
		n.replSigs = make(map[uint64][]byte)
		n.poisoned = make(map[uint64]bool)
	}
	n.pendingRepl = make(map[uint64]stashedBlock)
	if removed := n.log.TruncateUncertified(); removed > 0 {
		n.m.truncated.Add(uint64(removed))
		n.logf("truncated uncertified tail on demotion",
			"removed", removed, "keep", n.log.NumBlocks())
		if n.store != nil {
			if err := n.store.ResetTo(n.log); err != nil {
				n.logf("rewriting durable segment after truncation failed", "err", err)
			}
		}
	}
	// Replication signatures above the kept prefix vouch for truncated
	// content; the new leader re-signs what catch-up ships.
	for bid := range n.replSigs {
		if bid >= n.log.NumBlocks() {
			delete(n.replSigs, bid)
		}
	}
	n.pendingAcks = nil
	n.merging = nil
	n.resetTables()
	out := []wire.Envelope{{From: n.cfg.ID, To: n.cfg.Cloud, Msg: &wire.FrontierRequest{Chain: n.cfg.Chain}}}
	out = append(out, n.requestCatchUp(now, n.log.NumBlocks()))
	return out
}

// Restart revives a killed node as a blank follower, modelling a process
// that lost its in-memory state (the durable store, when present, is reset
// with the empty log — the diskless-restart case; a process restart with
// an intact store goes through NewPersistent instead). The node knows its
// chain but not who leads it: it heartbeats, the cloud notices a known
// member reporting from scratch and sends a GroupJoin naming the current
// leader, and certified catch-up rebuilds the mirror.
func (n *Node) Restart(now int64) {
	n.killed = false
	n.log = wlog.New(n.cfg.Chain, n.cfg.BatchSize)
	n.idx = mlsm.NewIndex(n.cfg.LevelThresholds)
	if n.store != nil {
		if err := n.store.ResetTo(n.log); err != nil {
			n.logf("resetting durable segment on restart failed", "err", err)
		}
	}
	n.resetTables()
	n.l0From = 0
	n.merging = nil
	n.pendingAcks = nil
	n.pendingSince = 0
	n.lastArrival = 0
	n.follower = true
	n.leader = ""
	n.epoch = 0
	n.transfer = nil
	n.early = nil
	n.lastHB = 0
	n.pendingRepl = make(map[uint64]stashedBlock)
	n.pendingCerts = make(map[uint64]wire.BlockProof)
	n.replSigs = make(map[uint64][]byte)
	n.poisoned = make(map[uint64]bool)
	n.accused = make(map[uint64]bool)
	n.lastCertFrontier = 0
	n.certStallSince = now
	n.lastCatchUp = now
	n.logf("restarted as blank follower", "chain", n.cfg.Chain)
}
