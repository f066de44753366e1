package cloud

import (
	"fmt"
	"slices"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Cloud-arbitrated failover (the replica-group extension): each shard's
// chain may be served by a small group — one leader, N followers — whose
// liveness and replication progress the cloud tracks through signed
// heartbeats. The group's membership is a signed view (a
// LeadershipTransfer) under a per-chain epoch. When the leader's lease
// expires, certification stalls, or the leader is convicted, the cloud
// signs the next view, promoting the follower with the longest certified
// log prefix; clients rebind on it. A rejoin is the next view under the
// same leader. The cloud arbitrates but never serves: the promoted node
// is as untrusted as its predecessor, policed by the same lazy
// certification.

// memberState is the cloud's liveness view of one replica-group member.
type memberState struct {
	leased    int64  // last heartbeat that renewed the lease (the named leader, leading at the current epoch)
	blocks    uint64 // log frontier the member last reported
	certified uint64 // contiguous certified prefix the member last reported
	answered  int64  // last view or frontier sent in answer to a heartbeat (re-send rate limit)
}

// chainState is the cloud's leadership view of one replicated chain.
type chainState struct {
	leader    wire.NodeID
	followers []wire.NodeID
	epoch     uint64
	members   map[wire.NodeID]*memberState
	leaseBase int64 // fallback lease start while a node has never heartbeated
	staleNow  int64 // first observation of an uncertified replicated backlog; 0 = none
	dead      bool  // no promotable follower remained
	// last is the newest signed view; nil while the registered group
	// (epoch 0) stands.
	last *wire.LeadershipTransfer
}

// RegisterGroup declares chain's replica group: its initial leader and
// followers. Must run on the node's transport goroutine (or before the
// transport starts). Ungrouped chains need no registration.
func (n *Node) RegisterGroup(chain, leader wire.NodeID, followers []wire.NodeID) {
	st := &chainState{
		leader:    leader,
		followers: append([]wire.NodeID(nil), followers...),
		members:   make(map[wire.NodeID]*memberState),
	}
	n.chains[chain] = st
	n.nodeChain[leader] = chain
	for _, f := range followers {
		n.nodeChain[f] = chain
	}
}

// chainOf maps a node to the chain it serves; ungrouped nodes are their
// own chain.
func (n *Node) chainOf(node wire.NodeID) wire.NodeID {
	if c, ok := n.nodeChain[node]; ok {
		return c
	}
	return node
}

// leaderOf returns the chain's current leader; an ungrouped chain leads
// itself.
func (n *Node) leaderOf(chain wire.NodeID) wire.NodeID {
	if st, ok := n.chains[chain]; ok {
		return st.leader
	}
	return chain
}

// ChainLeader exposes the current leader of a chain (tests, façade).
func (n *Node) ChainLeader(chain wire.NodeID) wire.NodeID { return n.leaderOf(chain) }

// ChainEpoch exposes the epoch of the chain's current view.
func (n *Node) ChainEpoch(chain wire.NodeID) uint64 {
	if st, ok := n.chains[chain]; ok {
		return st.epoch
	}
	return 0
}

// handleHeartbeat records a replica's liveness and replication progress,
// and answers it when its sender needs healing (answerHeartbeat). Only the
// named leader, heartbeating as leader at the current epoch, renews the
// lease: a leader that missed its view, or restarted blank, lets it run
// out. The certification-stall detector compares the followers' mirrored
// frontier against the chain's certified block count: a backlog that
// persists past CertTimeout means the leader replicates but does not
// certify — crashed mid-protocol or starving Phase II on purpose.
func (n *Node) handleHeartbeat(now int64, from wire.NodeID, m *wire.ReplicaHeartbeat) []wire.Envelope {
	if m.Node != from || n.nodeChain[from] != m.Chain {
		return nil
	}
	st, ok := n.chains[m.Chain]
	if !ok {
		return nil
	}
	if err := wcrypto.VerifyMsg(n.reg, from, m, m.Sig); err != nil {
		n.logf("dropping heartbeat with bad signature", "node", from, "err", err)
		return nil
	}
	n.m.heartbeats.Inc()
	mem := st.members[from]
	if mem == nil {
		// Never answered: the first answer is not rate-limited.
		mem = &memberState{answered: now - n.cfg.LeaseTimeout}
		st.members[from] = mem
	}
	mem.blocks = m.Blocks
	mem.certified = m.Certified
	if from == st.leader {
		if m.Leader == from && m.Epoch == st.epoch {
			mem.leased = now
		}
	} else if m.Blocks > n.certs.Blocks(m.Chain) {
		if st.staleNow == 0 {
			st.staleNow = now
		}
	} else {
		st.staleNow = 0
	}
	return n.answerHeartbeat(now, from, m.Chain, st, mem, m)
}

// answerHeartbeat heals the sender's view of its chain. An ex-member (a
// restarted node, or a leader deposed while cut off from the cloud) is
// re-admitted by a new view. A member holding another view than the
// chain's gets the current one: a named leader that missed its promotion
// adopts it and leads. The exception is a named leader that recognises no
// leader at all: it restarted blank, must never lead from its empty log,
// and is left to its lease. An in-group follower whose mirror trails the
// certified frontier gets the signed frontier, which it turns into
// catch-up. Answers to a member are rate-limited to one per LeaseTimeout.
func (n *Node) answerHeartbeat(now int64, from, chain wire.NodeID, st *chainState, mem *memberState, m *wire.ReplicaHeartbeat) []wire.Envelope {
	if st.dead {
		return nil
	}
	if _, banned := n.punish.Banned(from); banned {
		return nil
	}
	if from != st.leader && !slices.Contains(st.followers, from) {
		return n.readmit(now, chain, st, from)
	}
	current := m.Epoch == st.epoch && m.Leader == st.leader
	if current && (from == st.leader || m.Blocks >= n.certs.Blocks(chain)) {
		return nil
	}
	if (from == st.leader && m.Leader == "") || now-mem.answered < n.cfg.LeaseTimeout {
		return nil
	}
	mem.answered = now
	switch {
	case current:
		return []wire.Envelope{{From: n.cfg.ID, To: from, Msg: n.frontier(now, chain)}}
	case st.last == nil:
		// No view was signed yet: the member lost the registered one.
		return n.readmit(now, chain, st, from)
	}
	return []wire.Envelope{{From: n.cfg.ID, To: from, Msg: st.last}}
}

// readmit lists member among the chain's followers and signs the new view
// at the next epoch, under the same leader. It reaches the leader and every
// follower — the member included — but no gossip target: clients have
// nothing to rebind.
func (n *Node) readmit(now int64, chain wire.NodeID, st *chainState, member wire.NodeID) []wire.Envelope {
	if !slices.Contains(st.followers, member) {
		st.followers = append(st.followers, member)
	}
	n.m.rejoins.Inc()
	n.logf("re-admitting member as follower", "chain", chain, "node", member, "epoch", st.epoch+1)
	return n.signView(now, chain, st, st.leader, "rejoin")
}

// handleFrontier answers a single-chain frontier query with the same
// signed Gossip statement periodic gossip emits. A rejoining node asks it
// to learn how far certified history extends before (and while) mirroring
// the chain back through certified catch-up.
func (n *Node) handleFrontier(now int64, from wire.NodeID, m *wire.FrontierRequest) []wire.Envelope {
	if _, banned := n.punish.Banned(n.leaderOf(m.Chain)); banned {
		return nil
	}
	return []wire.Envelope{{From: n.cfg.ID, To: from, Msg: n.frontier(now, m.Chain)}}
}

// frontier signs the chain's certified frontier as a Gossip statement.
func (n *Node) frontier(now int64, chain wire.NodeID) *wire.Gossip {
	g := &wire.Gossip{
		Edge:    chain,
		Ts:      now,
		LogSize: n.certs.Entries(chain),
		Blocks:  n.certs.Blocks(chain),
	}
	g.CloudSig = wcrypto.SignMsg(n.key, g)
	return g
}

// tickFailover runs the per-chain failure detectors: conviction of the
// current leader, lease expiry, and certification stall. At most one
// transfer per chain per tick.
func (n *Node) tickFailover(now int64) []wire.Envelope {
	var out []wire.Envelope
	for chain, st := range n.chains {
		if st.dead {
			continue
		}
		if st.leaseBase == 0 {
			st.leaseBase = now // grace period starts at first observation
		}
		if _, banned := n.punish.Banned(st.leader); banned {
			out = append(out, n.transfer(now, chain, st, fmt.Sprintf("leader %s convicted", st.leader))...)
			continue
		}
		last := st.leaseBase
		if mem := st.members[st.leader]; mem != nil && mem.leased > last {
			last = mem.leased
		}
		if now-last > n.cfg.LeaseTimeout {
			out = append(out, n.transfer(now, chain, st, fmt.Sprintf("leader %s lease expired", st.leader))...)
			continue
		}
		if st.staleNow > 0 && now-st.staleNow > n.cfg.CertTimeout {
			out = append(out, n.transfer(now, chain, st, fmt.Sprintf("certification stalled under %s", st.leader))...)
		}
	}
	return out
}

// transfer signs and broadcasts a leadership transfer for chain: the
// promotable follower with the longest certified prefix (ties broken by
// the longer mirrored log) becomes leader under a bumped epoch; the
// transfer reaches the group and every gossip target, and clients rebind
// on it. With no candidate left the chain is
// declared dead — clients keep their verdicts and the shard stays frozen,
// which is the correct failure mode for a fully compromised group.
func (n *Node) transfer(now int64, chain wire.NodeID, st *chainState, reason string) []wire.Envelope {
	var cand wire.NodeID
	var best *memberState
	for _, f := range st.followers {
		if _, banned := n.punish.Banned(f); banned {
			continue
		}
		mem := st.members[f]
		if mem == nil {
			mem = &memberState{}
		}
		if cand == "" || mem.certified > best.certified ||
			(mem.certified == best.certified && mem.blocks > best.blocks) {
			cand, best = f, mem
		}
	}
	if cand == "" {
		st.dead = true
		n.logf("chain has no promotable follower; marking dead", "chain", chain, "reason", reason)
		return nil
	}
	prev := st.leader
	st.leader = cand
	st.followers = slices.DeleteFunc(st.followers, func(f wire.NodeID) bool {
		_, banned := n.punish.Banned(f)
		return f == cand || banned
	})
	st.leaseBase = now
	st.staleNow = 0
	n.m.transfers.Inc()
	n.logf("leadership transfer", "chain", chain, "epoch", st.epoch+1, "prev", prev, "new", cand, "reason", reason)
	out := n.signView(now, chain, st, prev, reason)
	// The demoted leader (if merely slow, not dead) learns of its demotion
	// too, so it stops serving under a stale epoch.
	if _, banned := n.punish.Banned(prev); !banned {
		out = append(out, wire.Envelope{From: n.cfg.ID, To: prev, Msg: st.last})
	}
	for _, to := range n.cfg.GossipTo {
		out = append(out, wire.Envelope{From: n.cfg.ID, To: to, Msg: st.last})
	}
	return out
}

// signView signs the chain's membership as the view at the next epoch —
// prev led before it — and addresses it to the leader and every follower.
func (n *Node) signView(now int64, chain wire.NodeID, st *chainState, prev wire.NodeID, reason string) []wire.Envelope {
	st.epoch++
	v := &wire.LeadershipTransfer{
		Chain:     chain,
		Epoch:     st.epoch,
		Prev:      prev,
		NewLeader: st.leader,
		Followers: slices.Clone(st.followers),
		Reason:    reason,
		Ts:        now,
	}
	v.CloudSig = wcrypto.SignMsg(n.key, v)
	st.last = v
	out := []wire.Envelope{{From: n.cfg.ID, To: st.leader, Msg: v}}
	for _, f := range st.followers {
		out = append(out, wire.Envelope{From: n.cfg.ID, To: f, Msg: v})
	}
	return out
}
