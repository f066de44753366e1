// Package cloud implements WedgeChain's trusted cloud node: the
// certification authority of lazy certification (Section IV), the merge
// service of LSMerkle (Section V), the gossip source for omission
// detection, and the adjudicator of disputes.
//
// The cloud never holds block payloads for certification — only digests
// (data-free coordination). For merges it receives certified L0 blocks,
// verifies them against their certified digests, merges them into the
// keys, versions and record leaves it kept of each level, signs the new
// roots and discards the values; no level page crosses the link either
// way, and its answer carries the roots (the edge re-derives the pages).
package cloud

import (
	"bytes"
	"fmt"
	"log/slog"
	"time"

	"wedgechain/internal/core"
	"wedgechain/internal/mlsm"
	"wedgechain/internal/obs"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Config parameterizes the cloud node. A zero knob means the layer
// default (fill); a negative GossipEvery turns gossip off.
type Config struct {
	ID wire.NodeID
	// Levels is the number of LSMerkle levels (excluding L0) per edge.
	Levels int
	// PageCap is the records-per-page target for merged pages.
	PageCap int
	// GossipEvery emits signed log-size gossip at this period (ns).
	GossipEvery int64
	// GossipTo lists gossip recipients (clients, typically).
	GossipTo []wire.NodeID
	// LeaseTimeout is how long a replica-group leader may go without a
	// heartbeat before the cloud declares it dead and signs a leadership
	// transfer. Only chains registered via RegisterGroup are tracked.
	LeaseTimeout int64
	// CertTimeout bounds how long followers may mirror blocks the chain
	// never certifies before the cloud treats the leader as stalled
	// (crashed after replication, or deliberately starving Phase II) and
	// fails over.
	CertTimeout int64
	// CertWorkers is read by nothing: certification, signature check
	// included, runs on the node's own turn. The field remains
	// only because the macro benchmark's harness still sets it.
	CertWorkers int
	// CertBatch is read by nothing: every certificate is one signed
	// BlockProof. The field remains only because the macro benchmark's
	// harness still sets it.
	CertBatch int
	// Logger receives operational events; nil disables logging.
	Logger *slog.Logger
	// Metrics is the registry this node's series live in; nil keeps them
	// on a private registry.
	Metrics *obs.Registry
}

// fill replaces every zero knob with the layer default. It is the one
// place those defaults are written, and it is idempotent: a negative
// GossipEvery passes through untouched.
func (c *Config) fill() {
	if c.Levels <= 0 {
		c.Levels = 3
	}
	if c.PageCap <= 0 {
		c.PageCap = 100
	}
	if c.GossipEvery == 0 {
		c.GossipEvery = int64(1e9)
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = int64(1e9)
	}
	if c.CertTimeout <= 0 {
		c.CertTimeout = int64(3e9)
	}
}

// Defaults returns a zero Config with every knob at its layer default:
// the values a binary's flags start from.
func Defaults() (c Config) {
	c.fill()
	return c
}

// Validate rejects configurations that would silently misbehave at
// runtime. Called by the façade before construction; direct users of the
// package may call it too. fill() still papers over zero values with
// defaults — Validate only flags combinations no default can repair.
func (c *Config) Validate() error {
	if c.ID == "" {
		return fmt.Errorf("cloud: config requires an ID")
	}
	if c.LeaseTimeout < 0 || c.CertTimeout < 0 {
		return fmt.Errorf("cloud: negative interval (LeaseTimeout %d, CertTimeout %d)",
			c.LeaseTimeout, c.CertTimeout)
	}
	return nil
}

// edgeState is the cloud's bookkeeping for one edge node: certified
// digests (held in the shared CertTable), block proofs for re-delivery,
// and per level the edge's index structure without its values.
type edgeState struct {
	proofs     map[uint64]*wire.BlockProof
	l0Consumed uint64         // next uncompacted block id
	levels     []*mlsm.Hashes // per level (0-based = level 1): keys, versions, leaves
	epoch      uint64
	pageSeq    uint64
	// lastMerge is the response to the latest successful merge and
	// lastMergeSig the EdgeSig of its request. The cloud's state has moved
	// past that request, so a repeat of it (the edge re-sends when the
	// answer is lost) is answered with lastMerge, never merged twice. The
	// signature, not ReqID alone, identifies the request: a promoted
	// leader numbers its requests from its own counter.
	lastMerge    *wire.MergeResponse
	lastMergeSig []byte
}

// Node is the cloud node state machine. Not safe for concurrent use.
type Node struct {
	cfg    Config
	key    wcrypto.KeyPair
	reg    *wcrypto.Registry
	certs  *core.CertTable
	punish *core.Punishments
	edges  map[wire.NodeID]*edgeState

	// Replica-group failover state: chains maps a chain identity to its
	// current leadership view; nodeChain maps every group member (leader
	// and followers) back to its chain. Ungrouped chains appear in
	// neither — for them node and chain coincide and no liveness is
	// tracked (the legacy single-node shard).
	chains    map[wire.NodeID]*chainState
	nodeChain map[wire.NodeID]wire.NodeID

	lastGossip int64
	m          *metrics
	vcache     *verdictCache
}

// Stats is a point-in-time snapshot of the node's operational
// counters, read atomically from the metrics registry — safe to call
// from any goroutine while the node runs.
type Stats struct {
	Certifies uint64
	// ProofSigns counts Ed25519 signatures spent on block proofs. The
	// cloud signs each (edge, bid) proof once, when it first certifies
	// the block: duplicate certify attempts and dispute re-delivery reuse
	// the cached signed proof, so ProofSigns == Certifies always.
	ProofSigns    uint64
	Conflicts     uint64
	Merges        uint64
	MergeRejects  uint64
	Disputes      uint64
	GuiltyEdges   uint64
	GossipsSent   uint64
	BytesFromEdge uint64
	Heartbeats    uint64
	Transfers     uint64
	// Rejoins counts ex-members re-admitted to their replica group after
	// a restart or demotion (certified catch-up brings them current).
	Rejoins uint64
	// VerdictCacheHits counts disputes answered from the adjudication
	// cache; JudgeDecodes counts full Judge runs (one evidence decode
	// each) — under a dispute flood hits grow with the flood while
	// decodes grow with the number of distinct lies.
	VerdictCacheHits uint64
	JudgeDecodes     uint64
}

// New constructs a cloud node. It starts no goroutine: the node runs only
// when its transport calls Receive or Tick.
func New(cfg Config, key wcrypto.KeyPair, reg *wcrypto.Registry) *Node {
	cfg.fill()
	return &Node{
		cfg:       cfg,
		key:       key,
		reg:       reg,
		certs:     core.NewCertTable(),
		punish:    core.NewPunishments(),
		edges:     make(map[wire.NodeID]*edgeState),
		chains:    make(map[wire.NodeID]*chainState),
		nodeChain: make(map[wire.NodeID]wire.NodeID),
		vcache:    newVerdictCache(),
		m:         newMetrics(cfg.Metrics, string(cfg.ID)),
	}
}

// Close does nothing: a node owns no goroutine or file. It remains only
// because the macro benchmark's harness still calls it.
func (n *Node) Close() {}

// ID implements core.Handler.
func (n *Node) ID() wire.NodeID { return n.cfg.ID }

// Certs exposes the certification table (tests, baselines).
func (n *Node) Certs() *core.CertTable { return n.certs }

// Punishments exposes the punishment registry.
func (n *Node) Punishments() *core.Punishments { return n.punish }

// Stats returns a snapshot of the node's counters. Each field is an
// atomic load, so polling mid-run from another goroutine is race-free.
func (n *Node) Stats() Stats {
	return Stats{
		Certifies:     n.m.certifies.Value(),
		ProofSigns:    n.m.proofSigns.Value(),
		Conflicts:     n.m.conflicts.Value(),
		Merges:        n.m.merges.Value(),
		MergeRejects:  n.m.mergeRejects.Value(),
		Disputes:      n.m.disputesGuilty.Value() + n.m.disputesNotGuilty.Value(),
		GuiltyEdges:   n.m.guiltyEdges.Value(),
		GossipsSent:   n.m.gossipsSent.Value(),
		BytesFromEdge: n.m.bytesFromEdge.Value(),
		Heartbeats:    n.m.heartbeats.Value(),
		Transfers:     n.m.transfers.Value(),
		Rejoins:       n.m.rejoins.Value(),

		VerdictCacheHits: n.m.verdictCacheHits.Value(),
		JudgeDecodes:     n.m.judgeDecodes.Value(),
	}
}

// Flagged reports whether edge has been convicted, with the first reason.
func (n *Node) Flagged(edge wire.NodeID) (string, bool) {
	return n.punish.Banned(edge)
}

// AddGossipTarget subscribes id to gossip. Must be called on the node's
// transport goroutine (e.g. via the transport's Do hook).
func (n *Node) AddGossipTarget(id wire.NodeID) {
	for _, t := range n.cfg.GossipTo {
		if t == id {
			return
		}
	}
	n.cfg.GossipTo = append(n.cfg.GossipTo, id)
}

func (n *Node) logf(msg string, args ...any) {
	if n.cfg.Logger != nil {
		n.cfg.Logger.Info(msg, args...)
	}
}

func (n *Node) edge(id wire.NodeID) *edgeState {
	s := n.edges[id]
	if s == nil {
		s = &edgeState{
			proofs: make(map[uint64]*wire.BlockProof),
			levels: make([]*mlsm.Hashes, n.cfg.Levels),
		}
		for i := range s.levels {
			s.levels[i] = mlsm.HashLevel(nil)
		}
		n.edges[id] = s
	}
	return s
}

// Receive implements core.Handler. Every handler checks the signatures of
// what it receives itself, on the node's own turn.
func (n *Node) Receive(now int64, env wire.Envelope) []wire.Envelope {
	switch m := env.Msg.(type) {
	case *wire.BlockCertify:
		t0 := time.Now()
		out := n.applyCertify(now, env.From, m)
		n.m.certify.Observe(time.Since(t0).Seconds())
		return out
	case *wire.MergeRequest:
		n.m.bytesFromEdge.Add(uint64(wire.EncodedSize(env)))
		return n.handleMerge(now, env.From, m)
	case *wire.Dispute:
		return n.handleDispute(now, env.From, m)
	case *wire.ReplicaHeartbeat:
		return n.handleHeartbeat(now, env.From, m)
	case *wire.FrontierRequest:
		return n.handleFrontier(now, env.From, m)
	default:
		return nil
	}
}

// Tick implements core.Handler: periodic gossip emission. Convicted
// edges are excluded — their chains are frozen at conviction, and
// continuing to gossip them would invite clients to keep trusting a
// banned shard — while sibling shards' gossip continues undisturbed.
func (n *Node) Tick(now int64) []wire.Envelope {
	out := n.tickFailover(now)
	if n.cfg.GossipEvery <= 0 || now-n.lastGossip < n.cfg.GossipEvery {
		return out
	}
	n.lastGossip = now
	for edgeID := range n.edges {
		// Skip chains whose CURRENT leader is banned: either the chain is
		// dead (no promotable follower) or a transfer is about to land —
		// but a chain that failed over to an honest node keeps gossiping,
		// because verdicts are node-scoped while gossip is chain-scoped.
		if _, banned := n.punish.Banned(n.leaderOf(edgeID)); banned {
			continue
		}
		g := n.frontier(now, edgeID)
		for _, to := range n.cfg.GossipTo {
			out = append(out, wire.Envelope{From: n.cfg.ID, To: to, Msg: g})
			n.m.gossipsSent.Inc()
		}
	}
	return out
}

// applyCertify implements the cloud algorithm of Section IV-D: sign the
// first digest reported for (edge, bid); flag the edge on any conflicting
// report. Certification is data-free — this handler never sees the block,
// unless the edge runs full-data certification and ships it.
func (n *Node) applyCertify(now int64, from wire.NodeID, m *wire.BlockCertify) []wire.Envelope {
	// m.Edge names the chain; only the chain's current leader may certify
	// under it. For ungrouped chains leaderOf is the identity map, so the
	// legacy from == m.Edge check is preserved exactly.
	if from != n.leaderOf(m.Edge) {
		return nil
	}
	if _, banned := n.punish.Banned(from); banned {
		return nil
	}
	if wcrypto.VerifyMAC(n.reg, n.key, from, n.cfg.ID, m, m.MAC) != nil {
		n.logf("dropping certify with bad MAC", "edge", from)
		return nil
	}
	if len(m.Body) > 0 && !fullDataBodyMatches(m) {
		// Full-data mode: the shipped body must decode to a block whose
		// recomputed digest (the key-ordered Merkle root over its entries)
		// is the claimed one; a mismatch is an immediately provable lie.
		v := wire.Verdict{
			Edge: from, BID: m.BID, Kind: wire.DisputeAddLie, Guilty: true,
			Reason: "certify body does not hash to claimed digest",
		}
		v.CloudSig = wcrypto.SignMsg(n.key, &v)
		n.convict(v)
		return n.broadcastVerdict(v)
	}
	return n.certifyOne(now, m.Edge, from, m.BID, m.Digest)
}

// certifyOne records one (chain, bid, digest) certification and fans out
// its signed proof: signed on first accept, re-sent from the cache on a
// duplicate.
func (n *Node) certifyOne(now int64, chain, from wire.NodeID, bid uint64, digest []byte) []wire.Envelope {
	st := n.edge(chain)
	switch n.certs.Certify(chain, bid, digest) {
	case core.CertAccepted:
		n.m.certifies.Inc()
		proof := n.signedProof(st, chain, bid, digest)
		return n.proofFanout(chain, from, proof)
	case core.CertDuplicate:
		// Re-delivery: the digest matched the certified one, so the
		// cached proof is returned without spending a signature.
		n.m.proofCacheHits.Inc()
		proof := n.signedProof(st, chain, bid, digest)
		return n.proofFanout(chain, from, proof)
	default: // CertConflict: equivocation caught red-handed.
		n.m.conflicts.Inc()
		v := wire.Verdict{
			Edge:   from,
			BID:    bid,
			Kind:   wire.DisputeAddLie,
			Guilty: true,
			Reason: fmt.Sprintf("conflicting digest certify for block %d", bid),
		}
		v.CloudSig = wcrypto.SignMsg(n.key, &v)
		n.convict(v)
		return append(n.broadcastVerdict(v), wire.Envelope{From: n.cfg.ID, To: from, Msg: &v})
	}
}

// proofFanout delivers a signed block proof to the certifying node and,
// for replica groups, to every other group member — followers audit their
// mirrored digests against it, and a broadcast straight from the cloud
// stays robust when the leader dies right after certifying.
func (n *Node) proofFanout(chain, from wire.NodeID, proof *wire.BlockProof) []wire.Envelope {
	out := []wire.Envelope{{From: n.cfg.ID, To: from, Msg: proof}}
	if st, ok := n.chains[chain]; ok {
		if st.leader != from {
			out = append(out, wire.Envelope{From: n.cfg.ID, To: st.leader, Msg: proof})
		}
		for _, f := range st.followers {
			if f != from {
				out = append(out, wire.Envelope{From: n.cfg.ID, To: f, Msg: proof})
			}
		}
	}
	return out
}

// fullDataBodyMatches decodes a full-data certify body (the block's
// canonical encoding) and checks that the block's recomputed digest is
// the one the request claims. The digest is derived (a Merkle root over
// the entries in key order), not a flat hash of the body bytes, so the
// check must go through the block fields.
func fullDataBodyMatches(m *wire.BlockCertify) bool {
	var blk wire.Block
	d := wire.NewDecoder(m.Body)
	blk.DecodeFrom(d)
	if d.Finish() != nil {
		return false
	}
	return bytes.Equal(wcrypto.RecomputedBlockDigest(&blk), m.Digest)
}

// signedProof returns the cached signed proof for (edge, bid), signing it
// on first use only. Every path that hands out a proof — first certify,
// duplicate certify, dispute attachment — goes through here, which is what
// makes the one-signature-per-proof invariant (Stats.ProofSigns) hold.
func (n *Node) signedProof(st *edgeState, edge wire.NodeID, bid uint64, digest []byte) *wire.BlockProof {
	if p, ok := st.proofs[bid]; ok {
		return p
	}
	p := &wire.BlockProof{Edge: edge, BID: bid, Digest: digest}
	p.CloudSig = wcrypto.SignMsg(n.key, p)
	n.m.proofSigns.Inc()
	st.proofs[bid] = p
	return p
}

func (n *Node) convict(v wire.Verdict) {
	if _, already := n.punish.Banned(v.Edge); !already {
		n.m.guiltyEdges.Inc()
	}
	n.punish.Punish(v)
	n.logf("edge punished", "edge", v.Edge, "reason", v.Reason)
}

// broadcastVerdict pushes a signed guilty verdict to every gossip target
// except those in skip (parties already served directly). In a sharded
// cluster this is how clients of a convicted shard learn of the
// conviction even when they were not party to the dispute; clients of
// sibling shards discard the verdict by its Edge field, so one shard's
// punishment never perturbs another's pipeline.
func (n *Node) broadcastVerdict(v wire.Verdict, skip ...wire.NodeID) []wire.Envelope {
	var out []wire.Envelope
	for _, to := range n.cfg.GossipTo {
		skipped := false
		for _, s := range skip {
			if to == s {
				skipped = true
				break
			}
		}
		if !skipped {
			out = append(out, wire.Envelope{From: n.cfg.ID, To: to, Msg: &v})
		}
	}
	return out
}

// VerdictsFor returns the guilty verdicts recorded against one edge.
func (n *Node) VerdictsFor(edge wire.NodeID) []wire.Verdict {
	return n.punish.VerdictsFor(edge)
}

// handleDispute adjudicates client evidence (Section IV-E "Disputes").
// The verdict is returned to the client; when a certificate exists for the
// disputed block it is attached, so an honest edge's slow certification
// still lets the client finish Phase II.
//
// Adjudications are memoized by evidence digest: a flood of
// byte-identical accusations costs one Judge decode for the first and a
// cache hit for every replay, from any claimant whose signature verifies.
// Conviction side effects (punishment, broadcast) ran when the verdict
// was first issued; a replay only re-delivers the same signed ruling.
func (n *Node) handleDispute(now int64, from wire.NodeID, d *wire.Dispute) []wire.Envelope {
	// The accused is a node; certificates, scan artifacts and gossip are
	// keyed by its chain. For ungrouped edges the two coincide.
	chain := n.chainOf(d.Edge)
	// Claimant gate before any cache access: only well-signed disputes
	// may read or seed memoized verdicts, so a forged accusation can
	// neither poison the cache nor probe it.
	if err := wcrypto.VerifyMsg(n.reg, from, d, d.ClientSig); err != nil {
		v := wire.Verdict{Edge: d.Edge, BID: d.BID, Kind: d.Kind,
			Reason: "dispute rejected: bad client signature"}
		n.m.disputesNotGuilty.Inc()
		v.CloudSig = wcrypto.SignMsg(n.key, &v)
		out := []wire.Envelope{{From: n.cfg.ID, To: from, Msg: &v}}
		return append(out, n.attachProof(chain, d.BID, from)...)
	}
	key := verdictKey(d)
	if cv, ok := n.vcache.get(key); ok {
		n.m.verdictCacheHits.Inc()
		if cv.verdict.Guilty {
			n.m.disputesGuilty.Inc()
		} else {
			n.m.disputesNotGuilty.Inc()
		}
		v := cv.verdict
		out := []wire.Envelope{{From: n.cfg.ID, To: from, Msg: &v}}
		return append(out, n.attachProof(chain, d.BID, from)...)
	}
	n.m.judgeDecodes.Inc()
	v := core.Judge(n.reg, n.certs, n.cfg.ID, from, d, chain)
	if v.Guilty {
		n.m.disputesGuilty.Inc()
	} else {
		n.m.disputesNotGuilty.Inc()
	}
	v.CloudSig = wcrypto.SignMsg(n.key, &v)
	n.vcache.put(key, &cachedVerdict{verdict: v})
	out := []wire.Envelope{{From: n.cfg.ID, To: from, Msg: &v}}
	if v.Guilty {
		n.convict(v)
		out = append(out, n.broadcastVerdict(v, from)...)
	}
	return append(out, n.attachProof(chain, d.BID, from)...)
}

// attachProof re-delivers the certificate for a disputed block when one
// exists. Every certified bid already carries its cached signed proof,
// so this spends no signature.
func (n *Node) attachProof(chain wire.NodeID, bid uint64, to wire.NodeID) []wire.Envelope {
	digest, ok := n.certs.Lookup(chain, bid)
	if !ok {
		return nil
	}
	proof := n.signedProof(n.edge(chain), chain, bid, digest)
	return []wire.Envelope{{From: n.cfg.ID, To: to, Msg: proof}}
}

// handleMerge implements the merge protocol of Section V-B: verify the
// shipped L0 blocks against their certified digests, merge them — or the
// source level — into the destination level as the cloud kept them (keys,
// versions and record leaves, no values), hash the level it derives, and
// sign the new roots and global root with a freshness timestamp. Each
// shipped block is hashed once, its digest serving the signature check
// and the certified-digest comparison, and only records new from L0 are
// hashed. The response carries no pages: the edge re-derives them.
func (n *Node) handleMerge(now int64, from wire.NodeID, m *wire.MergeRequest) []wire.Envelope {
	reject := func(reason string) []wire.Envelope {
		n.m.mergeRejects.Inc()
		resp := &wire.MergeResponse{Edge: m.Edge, ReqID: m.ReqID, OK: false, Reason: reason, FromLevel: m.FromLevel}
		resp.CloudSig = wcrypto.SignMsg(n.key, resp)
		n.logf("merge rejected", "edge", from, "reason", reason)
		return []wire.Envelope{{From: n.cfg.ID, To: from, Msg: resp}}
	}
	if from != n.leaderOf(m.Edge) {
		return nil
	}
	if _, banned := n.punish.Banned(from); banned {
		return nil
	}
	st := n.edge(m.Edge)
	if st.lastMerge != nil && st.lastMerge.ReqID == m.ReqID && bytes.Equal(st.lastMergeSig, m.EdgeSig) {
		return []wire.Envelope{{From: n.cfg.ID, To: from, Msg: st.lastMerge}}
	}
	lvl := int(m.FromLevel)
	if lvl < 0 || lvl >= n.cfg.Levels {
		return reject("source level out of range")
	}
	// Level content is the cloud's own: a request names a level, and only
	// an L0 merge ships data.
	if len(m.SrcPages)+len(m.DstPages) > 0 || (lvl > 0 && len(m.L0Blocks) > 0) {
		return reject("merge request carries level content")
	}
	l0Digests := make([][]byte, len(m.L0Blocks))
	for i := range m.L0Blocks {
		l0Digests[i] = wcrypto.RecomputedBlockDigest(&m.L0Blocks[i])
	}
	if err := wcrypto.VerifyMergeRequest(n.reg, from, m, l0Digests); err != nil {
		return reject("bad edge signature")
	}

	dst := st.levels[lvl]
	runs := []*mlsm.Records{dst.Records()}
	var srcKVs []wire.KV
	var consumedTo uint64
	if lvl == 0 {
		if len(m.L0Blocks) == 0 {
			return reject("empty L0 merge")
		}
		// Blocks must be the contiguous certified prefix starting at the
		// cloud's consumption cursor, each matching its certified digest.
		want := st.l0Consumed
		var entries uint64
		for i := range m.L0Blocks {
			blk := &m.L0Blocks[i]
			if blk.Edge != m.Edge || blk.ID != want {
				return reject(fmt.Sprintf("L0 block %d out of order (want %d)", blk.ID, want))
			}
			certified, ok := n.certs.Lookup(m.Edge, blk.ID)
			if !ok {
				return reject(fmt.Sprintf("L0 block %d not certified", blk.ID))
			}
			if !bytes.Equal(l0Digests[i], certified) {
				// The edge shipped content contradicting its own
				// certified digest, and signed for it: the digest in the
				// signed body commits this block id. Caught lying.
				v := wire.Verdict{
					Edge: from, BID: blk.ID, Kind: wire.DisputeAddLie, Guilty: true,
					Reason: fmt.Sprintf("merge shipped block %d contradicting certified digest", blk.ID),
				}
				v.CloudSig = wcrypto.SignMsg(n.key, &v)
				n.convict(v)
				return append(n.broadcastVerdict(v), reject("block contradicts certified digest")...)
			}
			entries += uint64(len(blk.Entries))
			srcKVs = append(srcKVs, mlsm.BlockKVs(blk)...)
			want++
		}
		consumedTo = want - 1
		n.certs.AddEntries(m.Edge, entries)
	} else {
		src := st.levels[lvl-1]
		srcKVs = mlsm.PagesKVs(src.Pages())
		runs = append(runs, src.Records())
	}

	pageSeq := st.pageSeq
	merged := mlsm.Merge(srcKVs, dst.Pages(), uint32(lvl+1), n.cfg.PageCap, pageSeq, now)
	st.pageSeq += uint64(len(merged))

	// Refresh what is kept: the target level becomes the merged one; a
	// source level > 0 becomes empty.
	st.levels[lvl] = mlsm.HashLevel(merged, runs...)
	if lvl > 0 {
		st.levels[lvl-1] = mlsm.HashLevel(nil)
	} else {
		st.l0Consumed = consumedTo + 1
	}

	roots := make([][]byte, len(st.levels))
	for i, h := range st.levels {
		roots[i] = h.Root
	}
	st.epoch++
	global := wire.SignedRoot{
		Edge:   m.Edge,
		Epoch:  st.epoch,
		Root:   mlsm.GlobalRoot(roots),
		Ts:     now,
		L0From: st.l0Consumed, // signed compaction frontier: pins where served L0 windows must start
	}
	global.CloudSig = wcrypto.SignMsg(n.key, &global)

	n.m.merges.Inc()
	resp := &wire.MergeResponse{
		Edge:       m.Edge,
		ReqID:      m.ReqID,
		OK:         true,
		FromLevel:  m.FromLevel,
		PageSeq:    pageSeq,
		PageCap:    uint32(n.cfg.PageCap),
		Roots:      roots,
		Global:     global,
		ConsumedTo: consumedTo,
	}
	resp.CloudSig = wcrypto.SignMsg(n.key, resp)
	// Copied: a decoded request's signature aliases its frame.
	st.lastMerge, st.lastMergeSig = resp, append([]byte(nil), m.EdgeSig...)
	return []wire.Envelope{{From: n.cfg.ID, To: from, Msg: resp}}
}
