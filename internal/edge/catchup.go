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
	n.follow.lastCatchUp = now
	n.follow.catchUpEnd = from + catchUpRun
	n.m.catchUps.Inc()
	req := &wire.CatchUpRequest{
		Chain: n.cfg.Chain,
		Node:  n.cfg.ID,
		From:  from,
		Ts:    now,
	}
	req.Sig = wcrypto.SignMsg(n.key, req)
	return wire.Envelope{From: n.cfg.ID, To: n.follow.leader, Msg: req}
}

// nextCatchUpRun asks for the next run once the mirror has reached the end
// of the one it asked for and is still short of the leader's block count
// (through, from the latest frame).
func (n *Node) nextCatchUpRun(now int64, through uint64) []wire.Envelope {
	tip := n.log.NumBlocks()
	if n.follow.catchUpEnd == 0 || tip < n.follow.catchUpEnd {
		return nil
	}
	n.follow.catchUpEnd = 0
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
// per-block cloud round-trips. On a persistent node a run stops at the
// first block no successful sync covers: nothing leaves before it is
// durable.
func (n *Node) handleCatchUpRequest(now int64, from wire.NodeID, m *wire.CatchUpRequest) []wire.Envelope {
	if n.lead == nil || m.Chain != n.cfg.Chain || m.Node != from {
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
		if n.store != nil && !n.store.Covers(bid) {
			break
		}
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
	if n.follow == nil || from != n.cfg.Cloud || m.Edge != n.cfg.Chain || n.follow.leader == "" {
		return nil
	}
	if (m.Blocks <= n.log.NumBlocks() && m.Blocks <= n.log.CertifiedBlocks()) ||
		now-n.follow.lastCatchUp < catchUpEvery {
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

// Restart revives a killed node as a blank follower, modelling a process
// that lost its in-memory state (the durable store, when present, is reset
// with the empty log — the diskless-restart case; a process restart with
// an intact store goes through NewPersistent instead). The node knows its
// chain but neither its view nor its leader: its heartbeats report none,
// the cloud answers with the current view (or re-admits it by a new one),
// and certified catch-up rebuilds the mirror. A view naming the node
// itself leader is not adopted from this blank state (adoptView).
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
	n.l0From = 0
	n.lastSync = noSync
	n.lastArrival = 0
	n.lastHB = 0
	n.epoch = 0
	n.replSigs, n.poisoned, n.accused = nil, nil, nil
	n.lead = nil
	n.follow = newFollowerRole("", nil)
	n.logf("restarted as blank follower", "chain", n.cfg.Chain)
}
