package edge

import (
	"testing"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Follower mirror path under a misbehaving network: the replication
// stream can be duplicated and reordered by the transport (and the chaos
// layer injects exactly that), so the mirror must install every block
// exactly once, in order, without ever mistaking a benign byte-identical
// redelivery for leader equivocation. The divergent-duplicate case (a
// real equivocation) is covered by the integration failover tests; these
// cover the honest-network-misbehavior cases.

// replicaPair wires a leader (with one registered follower) and that
// follower as directly-driven nodes, capturing the leader's replication
// stream so tests can deliver it duplicated or out of order.
type replicaPair struct {
	leader   *Node
	follower *Node
	keys     map[wire.NodeID]wcrypto.KeyPair
	reg      *wcrypto.Registry
}

func newReplicaPair(t *testing.T) *replicaPair {
	t.Helper()
	reg := wcrypto.NewRegistry()
	keys := map[wire.NodeID]wcrypto.KeyPair{}
	for _, id := range []wire.NodeID{"edge-1", "edge-1.r1", "cloud", "c1"} {
		k := wcrypto.DeterministicKey(id)
		keys[id] = k
		reg.Register(id, k.Pub)
	}
	p := &replicaPair{keys: keys, reg: reg}
	p.leader = New(Config{
		ID:        "edge-1",
		Cloud:     "cloud",
		BatchSize: 2,
		Followers: []wire.NodeID{"edge-1.r1"},
	}, keys["edge-1"], reg)
	p.follower = New(Config{
		ID:        "edge-1.r1",
		Chain:     "edge-1",
		Cloud:     "cloud",
		BatchSize: 2,
		Follower:  true,
	}, keys["edge-1.r1"], reg)
	return p
}

// cutBlock writes one full batch through the leader and returns the
// ReplicateBlock frame it emitted for the follower.
func (p *replicaPair) cutBlock(t *testing.T, now int64, seq uint64) *wire.ReplicateBlock {
	t.Helper()
	var repl *wire.ReplicateBlock
	for i := uint64(0); i < 2; i++ {
		out := p.leader.Receive(now, put(p.keys["c1"], wire.Entry{Client: "c1", Seq: seq + i, Value: []byte{byte(seq), byte(i)}}))
		for _, env := range out {
			if m, ok := env.Msg.(*wire.ReplicateBlock); ok {
				repl = m
			}
		}
	}
	if repl == nil {
		t.Fatal("leader cut no replication frame")
	}
	return repl
}

// deliver hands one replication frame to the follower, which checks the
// leader signature itself.
func (p *replicaPair) deliver(m *wire.ReplicateBlock) []wire.Envelope {
	cp := *m
	return p.follower.Receive(1, wire.Envelope{From: "edge-1", To: "edge-1.r1", Msg: &cp})
}

func assertNoDispute(t *testing.T, envs []wire.Envelope) {
	t.Helper()
	for _, env := range envs {
		if env.Msg.MsgKind() == wire.KindDispute {
			t.Fatalf("benign redelivery produced a dispute: %v", env.Msg)
		}
	}
}

func TestReplicateDuplicateFrameIdempotent(t *testing.T) {
	p := newReplicaPair(t)
	r0 := p.cutBlock(t, 1, 1)

	p.deliver(r0)
	if got := p.follower.LogBlocks(); got != 1 {
		t.Fatalf("blocks after first delivery = %d, want 1", got)
	}
	// Byte-identical redelivery: installed once, no conviction.
	assertNoDispute(t, p.deliver(r0))
	if got := p.follower.LogBlocks(); got != 1 {
		t.Fatalf("blocks after duplicate = %d, want 1", got)
	}

	// Redelivery after the block certifies must stay benign too — the
	// equivocation check compares digests only for *divergent* content.
	d, err := p.follower.log.Digest(0)
	if err != nil {
		t.Fatal(err)
	}
	proof := wire.BlockProof{Edge: "edge-1", BID: 0, Digest: d}
	proof.CloudSig = wcrypto.SignMsg(p.keys["cloud"], &proof)
	p.follower.Receive(1, wire.Envelope{From: "cloud", To: "edge-1.r1", Msg: &proof})
	if got := p.follower.CertifiedBlocks(); got != 1 {
		t.Fatalf("certified = %d, want 1", got)
	}
	assertNoDispute(t, p.deliver(r0))
	if got := p.follower.LogBlocks(); got != 1 {
		t.Fatalf("blocks after post-cert duplicate = %d, want 1", got)
	}
}

func TestReplicateReorderedFramesInstallInOrder(t *testing.T) {
	p := newReplicaPair(t)
	r0 := p.cutBlock(t, 1, 1)
	r1 := p.cutBlock(t, 2, 10)
	r2 := p.cutBlock(t, 3, 20)

	// Deliver 2, 1 (each twice — duplication and reordering together,
	// exactly what a Dup rule on the chaos net produces), then 0: nothing
	// installs until the gap at 0 fills, then the whole stash drains in
	// id order in one step.
	for _, m := range []*wire.ReplicateBlock{r2, r1, r2, r1} {
		assertNoDispute(t, p.deliver(m))
		if got := p.follower.LogBlocks(); got != 0 {
			t.Fatalf("gap not respected: %d blocks installed", got)
		}
	}
	assertNoDispute(t, p.deliver(r0))
	if got := p.follower.LogBlocks(); got != 3 {
		t.Fatalf("blocks after gap fill = %d, want 3", got)
	}
	for bid, want := range []*wire.ReplicateBlock{r0, r1, r2} {
		got, err := p.follower.log.Digest(uint64(bid))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(wcrypto.BlockDigest(&want.Block)) {
			t.Fatalf("block %d mirrored out of order", bid)
		}
	}

	// Late duplicates of now-installed blocks are still benign.
	assertNoDispute(t, p.deliver(r1))
	if got := p.follower.LogBlocks(); got != 3 {
		t.Fatalf("blocks after late duplicate = %d, want 3", got)
	}
}

// TestReplicatedBlockHashedOnce: a follower hashes each replicated block
// it installs exactly once, whether the block arrives in order or waits in
// the stash, and installing it (which freezes the mirror's copy under the
// verified digest) does not hash it again.
func TestReplicatedBlockHashedOnce(t *testing.T) {
	p := newReplicaPair(t)
	frames := []*wire.ReplicateBlock{p.cutBlock(t, 1, 1), p.cutBlock(t, 2, 10), p.cutBlock(t, 3, 20)}
	before := wire.DigestCalls()
	for _, i := range []int{0, 2, 1} { // block 2 arrives early and is stashed
		p.follower.Receive(5, framed(t, wire.Envelope{From: "edge-1", To: "edge-1.r1", Msg: frames[i]}))
	}
	if got := p.follower.LogBlocks(); got != 3 {
		t.Fatalf("mirrored %d blocks, want 3", got)
	}
	if got := wire.DigestCalls() - before; got != 3 {
		t.Fatalf("%d digests computed for 3 replicated blocks", got)
	}
	for bid := uint64(0); bid < 3; bid++ {
		blk, err := p.leader.log.Block(bid)
		if err != nil {
			t.Fatal(err)
		}
		if d, err := p.follower.log.Digest(bid); err != nil || string(d) != string(blk.BodyDigest()) {
			t.Fatalf("mirrored digest of block %d is %x (err %v)", bid, d, err)
		}
	}
}

// TestReplicateFrameCarriesCertificate: a certificate riding a replication
// frame, as catch-up ships them, is checked before the block is placed. A
// matching one certifies the mirrored copy of a block already in, or the
// block as it installs; a forged one drops the frame; one the content
// contradicts convicts the leader with the frame's own signature and
// installs nothing.
func TestReplicateFrameCarriesCertificate(t *testing.T) {
	p := newReplicaPair(t)
	r0, r1, r2 := p.cutBlock(t, 1, 1), p.cutBlock(t, 2, 10), p.cutBlock(t, 3, 20)
	withCert := func(m *wire.ReplicateBlock, digest []byte, signer wire.NodeID) *wire.ReplicateBlock {
		c := &wire.BlockProof{Edge: "edge-1", BID: m.Block.ID, Digest: digest}
		c.CloudSig = wcrypto.SignMsg(p.keys[signer], c)
		cp := *m
		cp.Cert = c
		return &cp
	}
	counts := func(blocks, certified uint64) {
		t.Helper()
		if got := p.follower.LogBlocks(); got != blocks {
			t.Fatalf("mirrored %d blocks, want %d", got, blocks)
		}
		if got := p.follower.CertifiedBlocks(); got != certified {
			t.Fatalf("certified %d blocks, want %d", got, certified)
		}
	}

	assertNoDispute(t, p.deliver(r0))
	assertNoDispute(t, p.deliver(withCert(r0, wcrypto.BlockDigest(&r0.Block), "cloud")))
	counts(1, 1)

	assertNoDispute(t, p.deliver(withCert(r1, wcrypto.BlockDigest(&r1.Block), "edge-1")))
	counts(1, 1)
	assertNoDispute(t, p.deliver(withCert(r1, wcrypto.BlockDigest(&r1.Block), "cloud")))
	counts(2, 2)

	out := p.deliver(withCert(r2, wcrypto.BlockDigest(&r0.Block), "cloud"))
	if len(out) != 1 || out[0].To != "cloud" || out[0].Msg.MsgKind() != wire.KindDispute {
		t.Fatalf("contradicted certificate sent %v, want one dispute to the cloud", out)
	}
	d := out[0].Msg.(*wire.Dispute)
	ev, err := wire.DecodeMessage(d.Evidence)
	if err != nil || d.Edge != "edge-1" || d.BID != 2 {
		t.Fatalf("dispute against %q over block %d (evidence err %v), want edge-1 over 2", d.Edge, d.BID, err)
	}
	if resp, ok := ev.(*wire.PutResponse); !ok || string(resp.EdgeSig) != string(r2.LeaderSig) {
		t.Fatalf("evidence %T is not the frame's own signature", ev)
	}
	counts(2, 2)
}

// signedView is the cloud's view of chain edge-1 at epoch: leader leads
// followers, after prev.
func (p *replicaPair) signedView(epoch uint64, prev, leader wire.NodeID, followers ...wire.NodeID) *wire.LeadershipTransfer {
	v := &wire.LeadershipTransfer{Chain: "edge-1", Epoch: epoch, Prev: prev, NewLeader: leader, Followers: followers, Reason: "test", Ts: 1}
	v.CloudSig = wcrypto.SignMsg(p.keys["cloud"], v)
	return v
}

// fromCloud delivers a message from the cloud to n.
func fromCloud(n *Node, m wire.Message) []wire.Envelope {
	return n.Receive(1, wire.Envelope{From: "cloud", To: n.ID(), Msg: m})
}

// TestJoinOvertakingTransferDoesNotBlockPromotion: the view that re-admits
// a member reaches the chain's leader as well as the member, and on a
// reordering network it can reach the leader-to-be before the view that
// promotes it. The later view promotes the node on its own, and the
// overtaken one is stale when it arrives.
func TestJoinOvertakingTransferDoesNotBlockPromotion(t *testing.T) {
	p := newReplicaPair(t)
	fromCloud(p.follower, p.signedView(3, "edge-1.r1", "edge-1.r1", "edge-1.r2"))
	fromCloud(p.follower, p.signedView(2, "edge-1", "edge-1.r1"))
	if p.follower.IsFollower() || p.follower.Leader() != "edge-1.r1" || p.follower.Epoch() != 3 {
		t.Fatalf("after the rejoin view then the transfer: follower=%v leader=%q epoch=%d, want the promoted leader at epoch 3",
			p.follower.IsFollower(), p.follower.Leader(), p.follower.Epoch())
	}
	if got := p.follower.lead.followers; len(got) != 1 || got[0] != "edge-1.r2" {
		t.Fatalf("fan-out = %v, want the re-admitted edge-1.r2", got)
	}
}

// TestRejoinViewKeepsLeaderTables: a view that re-admits a member under
// the sitting leader changes its fan-out and nothing else. A write
// buffered before it is acknowledged by the cut after it, the new member
// mirrors that block, and its Phase II proof still reaches the writer.
func TestRejoinViewKeepsLeaderTables(t *testing.T) {
	p := newReplicaPair(t)
	put := func(seq uint64) []wire.Envelope {
		return p.leader.Receive(1, put(p.keys["c1"], wire.Entry{Client: "c1", Seq: seq, Value: []byte{byte(seq)}}))
	}
	put(1)
	if out := fromCloud(p.leader, p.signedView(1, "edge-1", "edge-1", "edge-1.r1", "edge-1.r2")); len(out) != 0 {
		t.Fatalf("the rejoin view made the leader send %v", kindsOf(out))
	}
	to := map[wire.NodeID]map[wire.Kind]int{}
	for _, env := range put(2) {
		if to[env.To] == nil {
			to[env.To] = map[wire.Kind]int{}
		}
		to[env.To][env.Msg.MsgKind()]++
	}
	if to["c1"][wire.KindPutResponse] != 1 || to["edge-1.r1"][wire.KindReplicateBlock] != 1 || to["edge-1.r2"][wire.KindReplicateBlock] != 1 {
		t.Fatalf("the cut after the view sent %v, want c1 acknowledged and both followers replicated", to)
	}
	digest, err := p.leader.Log().Digest(0)
	if err != nil {
		t.Fatal(err)
	}
	proof := &wire.BlockProof{Edge: "edge-1", BID: 0, Digest: digest}
	proof.CloudSig = wcrypto.SignMsg(p.keys["cloud"], proof)
	if out := fromCloud(p.leader, proof); len(out) != 1 || out[0].To != "c1" || out[0].Msg.MsgKind() != wire.KindBlockProof {
		t.Fatalf("the proof sent %v, want it forwarded to c1", kindsOf(out))
	}
	if p.leader.IsFollower() || p.leader.Epoch() != 1 {
		t.Fatalf("leader follower=%v epoch=%d, want leading at epoch 1", p.leader.IsFollower(), p.leader.Epoch())
	}
}

// TestFollowerKeepsTailOnSameLeaderView: a follower that already follows
// the view's leader records the epoch and keeps its mirrored, uncertified
// tail: no truncation and no catch-up.
func TestFollowerKeepsTailOnSameLeaderView(t *testing.T) {
	p := newReplicaPair(t)
	p.deliver(p.cutBlock(t, 1, 1))
	p.deliver(p.cutBlock(t, 2, 3))
	if out := fromCloud(p.follower, p.signedView(1, "edge-1", "edge-1", "edge-1.r1", "edge-1.r2")); len(out) != 0 {
		t.Fatalf("the view made the follower send %v", kindsOf(out))
	}
	if p.follower.LogBlocks() != 2 || p.follower.Stats().Truncated != 0 || p.follower.Epoch() != 1 || p.follower.Leader() != "edge-1" {
		t.Fatalf("follower holds %d blocks (%d truncated) at epoch %d under %q, want 2 blocks, none truncated, epoch 1 under edge-1",
			p.follower.LogBlocks(), p.follower.Stats().Truncated, p.follower.Epoch(), p.follower.Leader())
	}
}

// TestStaleViewNeverReplacesNewer: a view no newer than the one a node
// holds changes nothing — neither a follower's leader nor a leader's role.
func TestStaleViewNeverReplacesNewer(t *testing.T) {
	p := newReplicaPair(t)
	fromCloud(p.follower, p.signedView(3, "edge-1", "edge-1.r2", "edge-1.r1"))
	for _, v := range []*wire.LeadershipTransfer{
		p.signedView(2, "edge-1", "edge-1"),
		p.signedView(3, "edge-1.r2", "edge-1.r1"),
	} {
		if out := fromCloud(p.follower, v); len(out) != 0 {
			t.Fatalf("stale view %d made the follower send %v", v.Epoch, kindsOf(out))
		}
		if !p.follower.IsFollower() || p.follower.Leader() != "edge-1.r2" || p.follower.Epoch() != 3 {
			t.Fatalf("after stale view %d: follower=%v leader=%q epoch=%d, want following edge-1.r2 at epoch 3",
				v.Epoch, p.follower.IsFollower(), p.follower.Leader(), p.follower.Epoch())
		}
	}
	fromCloud(p.leader, p.signedView(2, "edge-1", "edge-1", "edge-1.r1"))
	fromCloud(p.leader, p.signedView(1, "edge-1", "edge-1.r1"))
	if p.leader.IsFollower() || p.leader.Epoch() != 2 {
		t.Fatalf("leader follower=%v epoch=%d after a stale demotion, want leading at epoch 2", p.leader.IsFollower(), p.leader.Epoch())
	}
}
