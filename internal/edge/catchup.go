package edge

import (
	"wedgechain/internal/mlsm"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
	"wedgechain/internal/wlog"
)

// Certified catch-up: how a node that missed history rejoins the group
// without trusting whoever serves it. A restarted follower (blank log) or
// a demoted ex-leader (uncertified tail truncated) asks the current leader
// for the blocks it is missing, and the leader re-sends them as the same
// ReplicateBlock frames live replication ships: each signed over the
// block-ack body — the 44-byte promise client acknowledgements carry —
// and, for certified blocks, carrying the cloud certificate. The follower
// installs them through handleReplicate, the one install path, which
// checks each block against its certificate before installing it, so a
// lying sync peer does not poison the mirror: shipped content that
// contradicts a certificate is itself convicting evidence, filed through
// the standard add-lie dispute with zero new adjudication code.

// catchUpRun bounds how many ReplicateBlock frames one catch-up request
// draws. The receiver asks for the next run once it has installed this
// one and is still behind the frames' Through, so a long gap drains as a
// sequence of bounded runs.
const catchUpRun = 16

// requestCatchUp builds the signed request for every block from `from` up
// — usually the local block frontier, or the first uncertified block when
// the run is healing missing certificates over a complete mirror. Callers
// own rate limiting via lastCatchUp.
func (n *Node) requestCatchUp(now int64, from uint64) wire.Envelope {
	n.lastCatchUp = now
	n.catchUpEnd = from + catchUpRun
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

// nextCatchUpRun asks for the next run once the mirror has reached the end
// of the one it asked for and is still short of the leader's block count
// (through, from the latest frame).
func (n *Node) nextCatchUpRun(now int64, through uint64) []wire.Envelope {
	tip := n.log.NumBlocks()
	if n.catchUpEnd == 0 || tip < n.catchUpEnd {
		return nil
	}
	n.catchUpEnd = 0
	if tip >= through {
		return nil
	}
	return []wire.Envelope{n.requestCatchUp(now, tip)}
}

// handleCatchUpRequest serves a bounded run of blocks to a node that is
// behind, as ReplicateBlock frames. Only the current leader serves; blocks
// are public (any client can read them), so the only gate is a valid
// requester signature on the same chain. Each frame is signed over the
// digest of exactly the bytes shipped, and certified blocks carry their
// certificate so the receiver can advance its certified prefix without
// per-block cloud round-trips.
func (n *Node) handleCatchUpRequest(now int64, from wire.NodeID, m *wire.CatchUpRequest) []wire.Envelope {
	if n.follower || m.Chain != n.cfg.Chain || m.Node != from {
		return nil
	}
	if err := wcrypto.VerifyMsg(n.reg, m.Node, m, m.Sig); err != nil {
		n.logf("dropping catch-up request with bad signature", "from", from, "err", err)
		return nil
	}
	through := n.log.NumBlocks()
	end := min(m.From+catchUpRun, through)
	var out []wire.Envelope
	for bid := m.From; bid < end; bid++ {
		blk, err := n.log.Block(bid)
		if err != nil {
			n.logf("cannot serve catch-up block", "bid", bid, "err", err)
			break
		}
		digest, err := n.log.Digest(bid)
		if err != nil {
			break
		}
		frame := &wire.ReplicateBlock{Chain: n.cfg.Chain, Leader: n.cfg.ID, Block: *blk, Through: through}
		if f := n.cfg.Fault; f != nil && f.TamperCatchUp {
			// Lying sync peer: alter the content and sign the tampered
			// digest, so the transfer signature verifies and the cloud
			// certificate is what refutes it.
			frame.Block = tamperBlock(*blk, "")
			digest = wcrypto.BlockDigest(&frame.Block)
		}
		frame.LeaderSig = wcrypto.SignBlockAck(n.key, bid, digest)
		if cert, ok := n.log.Cert(bid); ok {
			frame.Cert = &cert
		}
		out = append(out, wire.Envelope{From: n.cfg.ID, To: from, Msg: frame})
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
// can never demote a newer view. Only the rejoining node adopts the
// join's epoch, as it starts following the join's leader: a join can
// overtake the transfer that promotes its leader, and a leader-to-be that
// took the epoch from the join would ignore that transfer as stale.
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
	if m.Node == n.cfg.ID {
		if m.Leader == n.cfg.ID {
			return nil
		}
		n.epoch = m.Epoch
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
	n.pendingAcks, n.heldCuts = nil, nil
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
	n.setLog(wlog.New(n.cfg.Chain, n.cfg.BatchSize))
	n.idx = mlsm.NewIndex(n.cfg.LevelThresholds)
	if n.store != nil {
		// ResetTo binds the new log to the store, as Recover bound the
		// old one.
		if err := n.store.ResetTo(n.log); err != nil {
			n.logf("resetting durable segment on restart failed", "err", err)
		}
	}
	n.resetTables()
	n.l0From = 0
	n.merging = nil
	n.pendingAcks, n.heldCuts = nil, nil
	n.lastSync = noSync
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
	n.catchUpEnd = 0
	n.logf("restarted as blank follower", "chain", n.cfg.Chain)
}
