package edge

import (
	"bytes"
	"cmp"
	"slices"

	"wedgechain/internal/core"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
	"wedgechain/internal/wlog"
)

// Replica groups: a shard's chain is served by one leader and mirrored by
// followers. The leader streams every cut block to the followers signed
// with the block-ack body (the same 44-byte promise the client
// acknowledgements carry), the followers audit the stream against the
// cloud's certificates, and the cloud's signed view (LeadershipTransfer)
// promotes the follower with the longest certified prefix when the leader
// crashes, stalls certification, or is convicted, and re-admits a member
// that rejoins. Nothing here adds trust: a follower is just another
// untrusted edge node, kept honest by the same lazy certification that
// polices the leader.

// leaderRole is the state a node holds only while it leads its chain.
// Adopting a view that makes the node leader builds it whole; losing the
// lead drops it whole.
type leaderRole struct {
	// followers is the replication fan-out under the adopted view: every
	// cut block is replicated to them and every merge response mirrored.
	followers []wire.NodeID
	reqs      core.Window[wire.NodeID] // log position -> submitter, until the position is cut
	// waiters holds, per uncertified block, the distinct clients its
	// certificate is forwarded to: those that wrote an entry of it and
	// those served it by a read, get, scan or re-ack. Its floor chases the
	// certified frontier — a certified block registers no waiter.
	waiters core.Window[[]wire.NodeID]
	// readers maps each session that sent a ScanRequest to the certified
	// frontier its last one saw: that answer carried every certificate
	// below it. The leader pushes the certificates it installs to its
	// readers too (pushCert), so a later get or scan citing the block
	// finds it checked. An L0 install drops the readers that have not
	// read since the previous L0 merge started.
	readers map[wire.NodeID]uint64
	// pushes are the certificates queued in this turn; at its end they
	// become duePushes, which leave at the end of the next turn (endTurn).
	pushes, duePushes []certPush
	// merging is the merge request in flight (at most one), kept whole:
	// the response carries no pages, so the merged level is re-derived
	// from its blocks, which the log holds anyway, and the index's levels.
	// It is re-sent on a proof for block mergeCut or later, cut after it
	// last left, and mergeWait after mergeQuiet, the later of that
	// departure and the last tick a cut block awaited its certificate.
	merging    *wire.MergeRequest
	mergeCut   uint64
	mergeQuiet int64
	mergeWait  int64
	// Group commit: outputs of persisted-but-unsynced blocks (and re-acks
	// and reads of them), withheld until the shared fsync, and the cut
	// times of those blocks; and the runs held for their run ack (ackRuns).
	pendingAcks []wire.Envelope
	heldCuts    []int64
	runs        []heldRun
	// runEnd is one past the last position held for a run (holdRun), and
	// runCutBy when block runBID, once its first run ack left, is due its
	// cut (0: no run ack yet).
	runEnd   uint64
	runBID   uint64
	runCutBy int64
	// certStallSince tracks how long the certified frontier
	// (lastCertFrontier) has been stuck with an uncertified backlog — the
	// stall-gated cert retry trigger.
	lastCertFrontier uint64
	certStallSince   int64
}

// certPush is a certificate queued for the leader's readers, with the
// waiters it was forwarded to at once.
type certPush struct {
	proof   *wire.BlockProof
	waiting []wire.NodeID
}

// newLeaderRole starts leading on log with the view's followers (self
// left out). Whatever the log holds was acknowledged before this role —
// cut in an earlier life, recovered, or mirrored — so nothing behind the
// cut has a submitter, and nothing behind the certified frontier a waiter.
// An entry still in the cut buffer (a recovered run) was promised in an
// earlier life: its block is due its cut at once, and it gets its block
// ack there, addressed to its writer.
func newLeaderRole(self wire.NodeID, followers []wire.NodeID, log *wlog.Log) *leaderRole {
	r := &leaderRole{followers: fanOut(self, followers), readers: map[wire.NodeID]uint64{}}
	r.reqs.Advance(log.BufStart())
	r.awaitCut(log, log.BufStart())
	if log.BufferLen() > 0 {
		r.runBID, r.runCutBy = log.NumBlocks(), 1
	}
	r.waiters.Advance(log.CertifiedBlocks())
	return r
}

// awaitCut registers the writer of every buffered entry from position
// from on for its block ack.
func (r *leaderRole) awaitCut(log *wlog.Log, from uint64) {
	for p := from; p < log.NextPos(); p++ {
		if e, ok := log.EntryAt(p); ok && !wlog.IsNoop(&e) {
			r.reqs.Set(p, e.Client)
		}
	}
}

// fanOut is a view's followers without self, in a slice of its own.
func fanOut(self wire.NodeID, followers []wire.NodeID) []wire.NodeID {
	return slices.DeleteFunc(slices.Clone(followers), func(f wire.NodeID) bool { return f == self })
}

// followerRole is the state a node holds only while it mirrors its
// chain's leader. Adopting a view that names another leader builds it
// whole.
type followerRole struct {
	// leader is the node mirrored: empty after a restart, until a view
	// names one.
	leader wire.NodeID
	// view is the newest cloud-signed view adopted while following (nil
	// under the initial view); the node answers client requests with it
	// (announceLeader).
	view *wire.LeadershipTransfer
	// early holds client requests that reached this follower while it held
	// no view to point them at: a rebound client can hear of this node's
	// promotion before the node does, because the cloud's copy travels on
	// another connection. The next view to arrive settles them. At most
	// maxEarly are kept.
	early []wire.Envelope
	// Out-of-order replicated blocks and early certificates waiting for
	// their block.
	pendingRepl  map[uint64]stashedBlock
	pendingCerts map[uint64]wire.BlockProof
	// runs are the mirrored run acks of blocks not mirrored yet, at most
	// pendingWindow of them, their signatures unchecked until a promotion
	// cuts them (cutRuns).
	runs []*wire.ReplicateBlock
	// lastCatchUp rate-limits gap-driven catch-up requests; catchUpEnd is
	// the end of the run last asked for (0 once that run is in).
	lastCatchUp int64
	catchUpEnd  uint64
}

// newFollowerRole starts mirroring leader under view.
func newFollowerRole(leader wire.NodeID, view *wire.LeadershipTransfer) *followerRole {
	return &followerRole{
		leader:       leader,
		view:         view,
		pendingRepl:  make(map[uint64]stashedBlock),
		pendingCerts: make(map[uint64]wire.BlockProof),
	}
}

// Kill simulates a process crash: the node stops answering anything.
// Intended for failover tests and benchmarks; call on the node's
// transport goroutine.
func (n *Node) Kill() { n.killed = true }

// Killed reports whether the node has been killed.
func (n *Node) Killed() bool { return n.killed }

// IsFollower reports whether the node is currently mirroring rather than
// serving.
func (n *Node) IsFollower() bool { return n.follow != nil }

// Leader returns the chain leader this node currently recognizes (itself,
// when leading; empty after a restart, until a view names one).
func (n *Node) Leader() wire.NodeID {
	if n.follow != nil {
		return n.follow.leader
	}
	return n.cfg.ID
}

// Epoch returns the epoch of the highest view the node has adopted.
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
	followers := n.lead.followers
	if len(followers) == 0 {
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
	n.m.replicated.Add(uint64(len(followers)))
	for _, f := range followers {
		out = append(out, wire.Envelope{From: n.cfg.ID, To: f, Msg: &wire.ReplicateBlock{
			Chain:     n.cfg.Chain,
			Leader:    n.cfg.ID,
			Block:     sendBlk,
			LeaderSig: sig,
			Through:   blk.ID + 1,
		}})
	}
	return out
}

// heartbeat reports liveness, replication progress and the view held to
// the cloud: Blocks is the local log frontier, Certified the length of the
// contiguous certified prefix — the quantity the cloud maximizes when it
// picks a promotion candidate — and Epoch and Leader the view, which the
// cloud answers with the current one when they differ from it.
func (n *Node) heartbeat(now int64) wire.Envelope {
	hb := &wire.ReplicaHeartbeat{
		Node:      n.cfg.ID,
		Chain:     n.cfg.Chain,
		Blocks:    n.log.NumBlocks(),
		Certified: n.CertifiedBlocks(),
		Epoch:     n.epoch,
		Leader:    n.Leader(),
		Ts:        now,
	}
	hb.Sig = wcrypto.SignMsg(n.key, hb)
	return wire.Envelope{From: n.cfg.ID, To: n.cfg.Cloud, Msg: hb}
}

// handleReplicate installs a leader-replicated block into the mirrored
// log: live replication and catch-up runs alike. A certificate riding the
// frame is checked first: content that contradicts it convicts the leader
// with the frame's own signature, and a matching one waits for its block
// or certifies the mirrored copy. Blocks may arrive out of order (stashed
// until their predecessor lands); duplicates are compared by digest, and a
// divergent duplicate that contradicts an existing cloud certificate
// convicts the leader on the spot.
func (n *Node) handleReplicate(now int64, from wire.NodeID, m *wire.ReplicateBlock) []wire.Envelope {
	if n.follow == nil || m.Chain != n.cfg.Chain || from != n.follow.leader || m.Leader != from {
		return nil
	}
	if m.Block.Edge != n.cfg.Chain {
		return nil
	}
	if m.Run {
		if f := n.follow; m.Block.ID >= n.log.NumBlocks() && len(f.runs) < pendingWindow {
			f.runs = append(f.runs, m)
		}
		return nil
	}
	bid := m.Block.ID
	// One digest serves the signature check, the certificate and duplicate
	// comparisons and the install.
	digest := m.Block.BodyDigest()
	if err := wcrypto.VerifyBlockAck(n.reg, m.Leader, bid, digest, m.LeaderSig); err != nil {
		n.logf("dropping replicated block with bad leader signature", "bid", bid, "err", err)
		return nil
	}
	var out []wire.Envelope
	if c := m.Cert; c != nil {
		if c.Edge != n.cfg.Chain || c.BID != bid {
			return nil
		}
		if err := wcrypto.VerifyMsg(n.reg, n.cfg.Cloud, c, c.CloudSig); err != nil {
			n.logf("dropping replicated block with bad certificate", "bid", bid, "err", err)
			return nil
		}
		if !bytes.Equal(c.Digest, digest) {
			return n.convictLeader(bid, m.Block, m.LeaderSig,
				"replicated block contradicts its certificate; convicting leader")
		}
		if _, certified := n.log.Cert(bid); !certified {
			// Copied: a kept certificate must not pin the frame it rode in.
			out = n.followerApplyCert(*cloneProof(c))
		}
	}
	out = append(out, n.mirror(m, digest)...)
	return append(out, n.nextCatchUpRun(now, m.Through)...)
}

// mirror places a replicated block whose signature checked out over
// digest: installed when it is next, stashed when it is ahead, compared
// when it is a duplicate.
func (n *Node) mirror(m *wire.ReplicateBlock, digest []byte) []wire.Envelope {
	bid := m.Block.ID
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
		n.follow.pendingRepl[bid] = stashedBlock{m, digest}
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
		st, ok := n.follow.pendingRepl[bid]
		if !ok {
			return out
		}
		delete(n.follow.pendingRepl, bid)
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
	n.follow.runs = slices.DeleteFunc(n.follow.runs, func(r *wire.ReplicateBlock) bool { return r.Block.ID <= bid })
	if n.replSigs == nil {
		n.replSigs = make(map[uint64][]byte)
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
	if p, ok := n.follow.pendingCerts[bid]; ok {
		delete(n.follow.pendingCerts, bid)
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
		n.follow.pendingCerts[p.BID] = p
		return nil
	}
	fresh, err := n.log.SetCert(p)
	if err != nil {
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
	if !fresh {
		return nil // installed and synced when it first arrived
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
// floor-chasing discipline the proof-waiter table follows, so a fast (or
// hostile) leader can never grow the stash maps without bound.
const pendingWindow = 1024

// evictStash drops stash entries the mirrored log has outgrown: a bid
// below the tip was installed (live or via catch-up) and its stashed copy
// or certificate can never be needed again.
func (n *Node) evictStash() {
	next := n.log.NumBlocks()
	for bid := range n.follow.pendingRepl {
		if bid < next {
			delete(n.follow.pendingRepl, bid)
		}
	}
	for bid := range n.follow.pendingCerts {
		if bid < next {
			delete(n.follow.pendingCerts, bid)
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
	d := core.BuildAddLieDispute(n.key, n.follow.leader, resp)
	return []wire.Envelope{{From: n.cfg.ID, To: n.cfg.Cloud, Msg: d}}
}

// adoptView is the one place a node changes role: it checks a
// cloud-signed view of the chain and adopts it. The highest epoch wins: a
// view no newer than the node's is ignored. A view that changes neither
// the node's role nor its leader records the epoch and, for a sitting
// leader, the new fan-out — tables, tail and stash stay. Any other view
// builds the new role whole: promotion or demotion. A node restarted
// blank never leads from its empty log: it waits for a view naming
// another leader. Client requests held for a view are settled once one is
// adopted.
func (n *Node) adoptView(now int64, from wire.NodeID, v *wire.LeadershipTransfer) []wire.Envelope {
	leads := v.NewLeader == n.cfg.ID
	if v.Chain != n.cfg.Chain || from != n.cfg.Cloud || v.Epoch <= n.epoch ||
		(leads && n.follow != nil && n.follow.leader == "") {
		return nil
	}
	if err := wcrypto.VerifyMsg(n.reg, n.cfg.Cloud, v, v.CloudSig); err != nil {
		n.logf("dropping view with bad cloud signature", "err", err)
		return nil
	}
	n.epoch = v.Epoch
	var held, out []wire.Envelope
	if n.follow != nil {
		held, n.follow.early = n.follow.early, nil
	}
	switch {
	case leads && n.lead != nil:
		n.lead.followers = fanOut(n.cfg.ID, v.Followers)
	case !leads && n.follow != nil && n.follow.leader == v.NewLeader:
		n.follow.view = v
	case leads:
		out = n.promote(now, v)
	default:
		out = n.demote(now, v)
	}
	for _, env := range held {
		out = append(out, n.receive(now, env)...)
	}
	return out
}

// promote makes the node the chain's leader under v: it inherits the
// mirrored log and LSMerkle, re-certifies any uncertified tail, and (if
// faulty) starts hiding the tail it was told to serve.
func (n *Node) promote(now int64, v *wire.LeadershipTransfer) []wire.Envelope {
	runs := n.follow.runs
	n.follow = nil
	n.lead = newLeaderRole(n.cfg.ID, v.Followers, n.log)
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
	n.logf("promoted to leader", "chain", n.cfg.Chain, "epoch", v.Epoch, "followers", len(n.lead.followers))
	return append(n.certifyTail(now), n.cutRuns(now, runs)...)
}

// cutRuns puts the runs a promoted follower mirrored back in its cut
// buffer, in log order and as far as they continue its log, and cuts every
// block they make, so each promise its old leader made lands at its
// promised position. A run whose leader signature does not check out ends
// the refill: it is no promise, and nothing after it can be placed.
func (n *Node) cutRuns(now int64, runs []*wire.ReplicateBlock) []wire.Envelope {
	slices.SortStableFunc(runs, func(a, b *wire.ReplicateBlock) int { return cmp.Compare(a.Block.StartPos, b.Block.StartPos) })
	var out []wire.Envelope
	cut := func() {
		if blk := n.log.TryCut(now, true); blk != nil {
			out = append(out, n.emitBlock(now, blk)...)
		}
	}
	for _, r := range runs {
		if r.Block.ID > n.log.NumBlocks() && n.log.BufferLen() > 0 {
			cut()
		}
		if r.Block.StartPos+uint64(len(r.Block.Entries)) <= n.log.NextPos() {
			continue // held already
		}
		if err := wcrypto.VerifyMsg(n.reg, r.Leader, r, r.LeaderSig); err != nil {
			n.logf("mirrored run has a bad leader signature", "bid", r.Block.ID, "err", err)
			break
		}
		from := n.log.NextPos()
		if err := n.log.Refill(&r.Block); err != nil {
			n.logf("mirrored run does not continue the log", "bid", r.Block.ID, "err", err)
			break
		}
		n.lead.awaitCut(n.log, from)
	}
	if n.log.BufferLen() > 0 {
		cut()
	}
	return out
}

// demote makes the node a mirroring follower of v's leader and discards
// everything the cloud never pinned. The uncertified tail may diverge from
// the history the new leader replicates (blocks this node cut, or mirrored
// from a dead leader, that were never certified), so it is truncated — in
// memory and in the durable segment — and refetched through certified
// catch-up. The certified prefix is identical everywhere by construction
// and stays. The old role (withheld group-commit acks, the submitter and
// proof-waiter tables, an in-flight merge claim, or the old leader's
// stash) goes with it.
func (n *Node) demote(now int64, v *wire.LeadershipTransfer) []wire.Envelope {
	n.lead = nil
	n.follow = newFollowerRole(v.NewLeader, v)
	n.logf("following new leader", "chain", n.cfg.Chain, "epoch", v.Epoch, "leader", v.NewLeader)
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
	out := []wire.Envelope{{From: n.cfg.ID, To: n.cfg.Cloud, Msg: &wire.FrontierRequest{Chain: n.cfg.Chain}}}
	return append(out, n.requestCatchUp(now, n.log.NumBlocks()))
}

// maxEarly bounds the client requests a follower holds for a view
// (followerRole.early).
const maxEarly = 64

// announceLeader answers a client request that reached this follower with
// the cloud-signed view it adopted. The cloud sends a failover's view to
// each session once; a session whose copy was lost still addresses the
// demoted leader, and this copy rebinds it instead of leaving it to time
// out. A follower that holds no view keeps the request for its next one
// (followerRole.early).
func (n *Node) announceLeader(req wire.Envelope) []wire.Envelope {
	f := n.follow
	if f.view == nil {
		if len(f.early) < maxEarly {
			f.early = append(f.early, req)
		}
		return nil
	}
	return []wire.Envelope{{From: n.cfg.ID, To: req.From, Msg: f.view}}
}

// certifyTail re-submits certification for every mirrored-but-uncertified
// block — the cert-timeout failover case, where the dead leader cut and
// replicated blocks it never (successfully) certified. First-writer-wins
// at the cloud makes re-submission idempotent. On a persistent node it
// stops at the first block no successful sync covers: the cloud must not
// certify what a crash can still lose.
func (n *Node) certifyTail(now int64) []wire.Envelope {
	var out []wire.Envelope
	start := uint64(0)
	if ct, ok := n.log.CertifiedThrough(); ok {
		start = ct + 1
	}
	for bid := start; bid < n.log.NumBlocks(); bid++ {
		if n.store != nil && !n.store.Covers(bid) {
			break
		}
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
		out = n.certify(out, bid, digest, nil)
	}
	return out
}

// reackDuplicate answers a write whose entry is already in the log — a
// client retry, or a post-failover resend of an entry the new leader
// inherited from the previous one. The acknowledgement is rebuilt from
// the containing block; if the block is certified the proof rides along,
// otherwise the client is registered for proof forwarding. On a
// persistent node a block no successful sync covers yet (its group commit
// is pending, or failed) is not durable, so the re-ack joins the held
// outputs and leaves with the next sync.
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
		n.lead.reqs.Set(pos, e.Client)
		return nil
	}
	digest, err := n.log.Digest(blk.ID)
	if err != nil {
		return nil
	}
	ack := &wire.PutResponse{BID: blk.ID, Block: *blk, EdgeSig: wcrypto.SignBlockAck(n.key, blk.ID, digest)}
	out := []wire.Envelope{{From: n.cfg.ID, To: from, Msg: ack}}
	if n.store != nil && !n.store.Covers(blk.ID) {
		n.awaitProof(blk.ID, from)
		n.lead.pendingAcks = append(n.lead.pendingAcks, out...)
		return nil
	}
	if cert, ok := n.log.Cert(blk.ID); ok {
		out = append(out, wire.Envelope{From: n.cfg.ID, To: from, Msg: cloneProof(&cert)})
	} else {
		n.awaitProof(blk.ID, from)
	}
	return out
}
