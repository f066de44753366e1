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
		e := wire.Entry{Client: "c1", Seq: seq + i, Value: []byte{byte(seq), byte(i)}}
		e.Sig = wcrypto.SignMsg(p.keys["c1"], &e)
		out := p.leader.Receive(now, wire.Envelope{
			From: "c1", To: "edge-1", Msg: &wire.PutRequest{Entry: e},
		})
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
