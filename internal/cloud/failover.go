package cloud

import (
	"fmt"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Cloud-arbitrated failover (the replica-group extension): each shard's
// chain may be served by a small group — one leader, N followers — whose
// liveness and replication progress the cloud tracks through signed
// heartbeats. When the leader's lease expires, certification stalls, or
// the leader is convicted, the cloud signs a LeadershipTransfer promoting
// the follower with the longest certified log prefix; clients rebind on
// that transfer. The cloud arbitrates but never serves:
// the promoted node is as untrusted as its predecessor, policed by the
// same lazy certification.

// memberState is the cloud's liveness view of one replica-group member.
type memberState struct {
	lastHB    int64
	blocks    uint64 // log frontier the member last reported
	certified uint64 // contiguous certified prefix the member last reported
	lastJoin  int64  // last GroupJoin sent for this member (re-send rate limit)
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
	// last is the transfer that installed leader; nil before the first.
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

// ChainEpoch exposes the chain's current leadership epoch.
func (n *Node) ChainEpoch(chain wire.NodeID) uint64 {
	if st, ok := n.chains[chain]; ok {
		return st.epoch
	}
	return 0
}

// handleHeartbeat records a replica's liveness and replication progress.
// The certification-stall detector compares the followers' mirrored
// frontier against the chain's certified block count: a backlog that
// persists past CertTimeout means the leader replicates but does not
// certify — crashed mid-protocol or starving Phase II on purpose.
func (n *Node) handleHeartbeat(now int64, from wire.NodeID, m *wire.ReplicaHeartbeat, verified bool) []wire.Envelope {
	if m.Node != from || n.nodeChain[from] != m.Chain {
		return nil
	}
	st, ok := n.chains[m.Chain]
	if !ok {
		return nil
	}
	if !verified {
		if err := wcrypto.VerifyMsg(n.reg, from, m, m.Sig); err != nil {
			n.logf("dropping heartbeat with bad signature", "node", from, "err", err)
			return nil
		}
	}
	n.m.heartbeats.Inc()
	mem := st.members[from]
	if mem == nil {
		mem = &memberState{}
		st.members[from] = mem
	}
	mem.lastHB = now
	mem.blocks = m.Blocks
	mem.certified = m.Certified
	if from != st.leader {
		if m.Blocks > n.certs.Blocks(m.Chain) {
			if st.staleNow == 0 {
				st.staleNow = now
			}
		} else {
			st.staleNow = 0
		}
	}
	return n.maybeRejoin(now, from, m.Chain, st, mem, m)
}

// maybeRejoin re-admits a heartbeating ex-member (a restarted node, or a
// demoted ex-leader that was dropped from the follower set at transfer)
// and nudges restarted in-group followers that lost their in-memory view.
// The cloud signs a GroupJoin naming the current leader and epoch and
// sends it to BOTH sides: the node learns whom to mirror, the leader adds
// it back to the replication fan-out. While the member's reported frontier
// trails the chain's certified prefix the join is re-sent (rate-limited by
// the lease), healing lost admissions under chaos.
func (n *Node) maybeRejoin(now int64, from wire.NodeID, chain wire.NodeID, st *chainState, mem *memberState, m *wire.ReplicaHeartbeat) []wire.Envelope {
	if st.dead || from == st.leader {
		return nil
	}
	if _, banned := n.punish.Banned(from); banned {
		return nil
	}
	inGroup := false
	for _, f := range st.followers {
		if f == from {
			inGroup = true
			break
		}
	}
	if !inGroup {
		st.followers = append(st.followers, from)
		n.m.rejoins.Inc()
		n.logf("re-admitting ex-member as follower", "chain", chain, "node", from, "epoch", st.epoch)
	} else if m.Blocks >= n.certs.Blocks(chain) || now-mem.lastJoin < n.cfg.LeaseTimeout {
		// In the group and current (or recently nudged): nothing to heal.
		return nil
	}
	mem.lastJoin = now
	join := &wire.GroupJoin{Chain: chain, Node: from, Leader: st.leader, Epoch: st.epoch, Ts: now}
	join.CloudSig = wcrypto.SignMsg(n.key, join)
	out := []wire.Envelope{
		{From: n.cfg.ID, To: from, Msg: join},
		{From: n.cfg.ID, To: st.leader, Msg: join},
	}
	if !inGroup && st.last != nil {
		// An ex-leader cut off from the cloud when it was demoted never
		// got its transfer; it answers sessions still addressing it with
		// this copy.
		out = append(out, wire.Envelope{From: n.cfg.ID, To: from, Msg: st.last})
	}
	return out
}

// handleFrontier answers a single-chain frontier query with the same
// signed Gossip statement periodic gossip emits. A rejoining node asks it
// to learn how far certified history extends before (and while) mirroring
// the chain back through certified catch-up.
func (n *Node) handleFrontier(now int64, from wire.NodeID, m *wire.FrontierRequest) []wire.Envelope {
	if _, banned := n.punish.Banned(n.leaderOf(m.Chain)); banned {
		return nil
	}
	g := &wire.Gossip{
		Edge:    m.Chain,
		Ts:      now,
		LogSize: n.certs.Entries(m.Chain),
		Blocks:  n.certs.Blocks(m.Chain),
	}
	g.CloudSig = wcrypto.SignMsg(n.key, g)
	return []wire.Envelope{{From: n.cfg.ID, To: from, Msg: g}}
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
		if mem := st.members[st.leader]; mem != nil && mem.lastHB > last {
			last = mem.lastHB
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
	remaining := make([]wire.NodeID, 0, len(st.followers))
	for _, f := range st.followers {
		if f == cand {
			continue
		}
		if _, banned := n.punish.Banned(f); banned {
			continue
		}
		remaining = append(remaining, f)
	}
	st.epoch++
	prev := st.leader
	st.leader = cand
	st.followers = remaining
	st.leaseBase = now
	st.staleNow = 0
	n.m.transfers.Inc()
	n.logf("leadership transfer", "chain", chain, "epoch", st.epoch, "prev", prev, "new", cand, "reason", reason)

	t := &wire.LeadershipTransfer{
		Chain:     chain,
		Epoch:     st.epoch,
		Prev:      prev,
		NewLeader: cand,
		Followers: append([]wire.NodeID(nil), remaining...),
		Reason:    reason,
		Ts:        now,
	}
	t.CloudSig = wcrypto.SignMsg(n.key, t)
	st.last = t

	out := []wire.Envelope{{From: n.cfg.ID, To: cand, Msg: t}}
	for _, f := range remaining {
		out = append(out, wire.Envelope{From: n.cfg.ID, To: f, Msg: t})
	}
	// The demoted leader (if merely slow, not dead) learns of its demotion
	// too, so it stops serving under a stale epoch.
	if _, banned := n.punish.Banned(prev); !banned {
		out = append(out, wire.Envelope{From: n.cfg.ID, To: prev, Msg: t})
	}
	for _, to := range n.cfg.GossipTo {
		out = append(out, wire.Envelope{From: n.cfg.ID, To: to, Msg: t})
	}
	return out
}
