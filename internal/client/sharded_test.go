package client

import (
	"fmt"
	"testing"

	"wedgechain/internal/core"
	"wedgechain/internal/shard"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

type shardedFixture struct {
	s    *Sharded
	keys map[wire.NodeID]wcrypto.KeyPair
	reg  *wcrypto.Registry
}

func newShardedFixture(t *testing.T, shards int) *shardedFixture {
	t.Helper()
	reg := wcrypto.NewRegistry()
	keys := map[wire.NodeID]wcrypto.KeyPair{}
	ids := []wire.NodeID{"cloud", "c1"}
	var edges []wire.NodeID
	for i := 1; i <= shards; i++ {
		edges = append(edges, wire.NodeID(fmt.Sprintf("edge-%d", i)))
	}
	ids = append(ids, edges...)
	for _, id := range ids {
		k := wcrypto.DeterministicKey(id)
		keys[id] = k
		reg.Register(id, k.Pub)
	}
	ring, err := shard.New(edges)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSharded(Config{
		ID: "c1", Cloud: "cloud", ProofTimeout: 1000,
	}, ring, keys["c1"], reg)
	return &shardedFixture{s: s, keys: keys, reg: reg}
}

func (f *shardedFixture) signedPutResponse(edge wire.NodeID, blk wire.Block) *wire.PutResponse {
	resp := &wire.PutResponse{BID: blk.ID, Block: blk}
	resp.EdgeSig = wcrypto.SignMsg(f.keys[edge], resp)
	return resp
}

func (f *shardedFixture) edgeSignedProof(edge wire.NodeID, blk *wire.Block) *wire.BlockProof {
	p := &wire.BlockProof{Edge: edge, BID: blk.ID, Digest: wcrypto.BlockDigest(blk)}
	p.CloudSig = wcrypto.SignMsg(f.keys["cloud"], p)
	return p
}

func TestShardedRoutesPutsByKey(t *testing.T) {
	f := newShardedFixture(t, 4)
	perEdge := map[wire.NodeID]int{}
	for i := 0; i < 64; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		want := f.s.EdgeFor(key)
		op, envs := f.s.Put(10, key, []byte("v"))
		if op.Edge != want {
			t.Fatalf("op.Edge = %q, want %q", op.Edge, want)
		}
		if len(envs) != 1 || envs[0].To != want {
			t.Fatalf("put %d routed to %q, want %q", i, envs[0].To, want)
		}
		perEdge[envs[0].To]++
	}
	if len(perEdge) != 4 {
		t.Fatalf("64 puts reached only %d of 4 shards: %v", len(perEdge), perEdge)
	}
}

func TestShardedPutBatchSplitsPerShard(t *testing.T) {
	f := newShardedFixture(t, 4)
	const n = 32
	keys := make([][]byte, n)
	values := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
		values[i] = []byte(fmt.Sprintf("val-%d", i))
	}
	ops, envs := f.s.PutBatch(5, keys, values)
	if len(ops) != n {
		t.Fatalf("ops = %d", len(ops))
	}
	for i, op := range ops {
		if op == nil || string(op.Key) != string(keys[i]) {
			t.Fatalf("op %d out of order: %+v", i, op)
		}
		if op.Edge != f.s.EdgeFor(keys[i]) {
			t.Fatalf("op %d misrouted to %q", i, op.Edge)
		}
	}
	// One batch envelope per shard that owns at least one key.
	owners := map[wire.NodeID]bool{}
	for _, k := range keys {
		owners[f.s.EdgeFor(k)] = true
	}
	if len(envs) != len(owners) {
		t.Fatalf("envelopes = %d, want one per owning shard (%d)", len(envs), len(owners))
	}
	total := 0
	for _, env := range envs {
		pb, ok := env.Msg.(*wire.PutBatch)
		if !ok {
			t.Fatalf("unexpected message %T", env.Msg)
		}
		for _, e := range pb.Entries {
			if f.s.EdgeFor(e.Key) != env.To {
				t.Fatalf("entry %q shipped to %q", e.Key, env.To)
			}
		}
		total += len(pb.Entries)
	}
	if total != n {
		t.Fatalf("batch entries = %d, want %d", total, n)
	}
}

func TestShardedPhaseIsolationAndDemux(t *testing.T) {
	f := newShardedFixture(t, 2)
	// Two keys owned by different shards.
	var keyA, keyB []byte
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		switch f.s.EdgeFor(k) {
		case "edge-1":
			if keyA == nil {
				keyA = k
			}
		case "edge-2":
			if keyB == nil {
				keyB = k
			}
		}
		if keyA != nil && keyB != nil {
			break
		}
	}
	opA, envsA := f.s.Put(10, keyA, []byte("va"))
	opB, envsB := f.s.Put(10, keyB, []byte("vb"))

	entryA := entryOf(t, envsA)
	blkA := wire.Block{Edge: "edge-1", ID: 0, Entries: []wire.Entry{entryA}}
	f.s.Receive(20, wire.Envelope{From: "edge-1", To: "c1", Msg: f.signedPutResponse("edge-1", blkA)})
	if opA.Phase != core.PhaseI {
		t.Fatalf("opA phase = %v", opA.Phase)
	}
	if opB.Phase != core.PhaseNone {
		t.Fatalf("opB advanced by sibling shard's response: %v", opB.Phase)
	}

	// The cloud's proof for shard A routes by the proof's Edge field and
	// upgrades only shard A's op.
	f.s.Receive(30, wire.Envelope{From: "cloud", To: "c1", Msg: f.edgeSignedProof("edge-1", &blkA)})
	if opA.Phase != core.PhaseII || !opA.Done {
		t.Fatalf("opA after proof: %+v", opA)
	}
	if opB.Phase != core.PhaseNone || opB.Done {
		t.Fatalf("opB touched by shard A proof: %+v", opB)
	}

	pending := f.s.Pending()
	if pending["edge-1"] != 0 || pending["edge-2"] != 1 {
		t.Fatalf("pending = %v, want edge-1:0 edge-2:1", pending)
	}

	entryB := entryOf(t, envsB)
	blkB := wire.Block{Edge: "edge-2", ID: 0, Entries: []wire.Entry{entryB}}
	f.s.Receive(40, wire.Envelope{From: "edge-2", To: "c1", Msg: f.signedPutResponse("edge-2", blkB)})
	f.s.Receive(50, wire.Envelope{From: "cloud", To: "c1", Msg: f.edgeSignedProof("edge-2", &blkB)})
	if opB.Phase != core.PhaseII {
		t.Fatalf("opB after its own proof: %+v", opB)
	}
	if n := f.s.Pending()["edge-2"]; n != 0 {
		t.Fatalf("edge-2 pending = %d after settle", n)
	}
}

func TestShardedLogOpsUseHomeShard(t *testing.T) {
	f := newShardedFixture(t, 4)
	home := f.s.Home().Edge()
	if f.s.Map().ShardOf(home) != shard.Of([]byte("c1"), 4) {
		t.Fatalf("home shard %q does not match client identity hash", home)
	}
	_, envs := f.s.Add(10, []byte("payload"))
	if len(envs) != 1 || envs[0].To != home {
		t.Fatalf("add routed to %q, want home %q", envs[0].To, home)
	}
	_, envs = f.s.Read(20, 0)
	if len(envs) != 1 || envs[0].To != home {
		t.Fatalf("read routed to %q, want home %q", envs[0].To, home)
	}
	envs, err := f.s.Reserve(30, 2)
	if err != nil || len(envs) != 1 || envs[0].To != home {
		t.Fatalf("reserve routed to %q, want home %q", envs[0].To, home)
	}
	if _, _, err := f.s.ReadFrom(40, "edge-2", 0); err != nil {
		t.Fatalf("ReadFrom known edge: %v", err)
	}
	if _, _, err := f.s.ReadFrom(40, "edge-99", 0); err == nil {
		t.Fatal("ReadFrom accepted an edge outside the shard map")
	}
}

func TestShardedVerdictRoutesToConcernedShard(t *testing.T) {
	f := newShardedFixture(t, 2)
	v := &wire.Verdict{Edge: "edge-2", BID: 3, Kind: wire.DisputeAddLie, Guilty: true, Reason: "test"}
	v.CloudSig = wcrypto.SignMsg(f.keys["cloud"], v)
	// Must not panic and must not leak to shard 1; nothing is accused, so
	// no output either.
	if out := f.s.Receive(10, wire.Envelope{From: "cloud", To: "c1", Msg: v}); len(out) != 0 {
		t.Fatalf("unexpected output %v", out)
	}
	// A verdict for an edge outside the map is dropped.
	v2 := &wire.Verdict{Edge: "edge-9", BID: 3, Kind: wire.DisputeAddLie, Guilty: true, Reason: "test"}
	v2.CloudSig = wcrypto.SignMsg(f.keys["cloud"], v2)
	if out := f.s.Receive(10, wire.Envelope{From: "cloud", To: "c1", Msg: v2}); out != nil {
		t.Fatalf("unexpected output %v", out)
	}
}

// A transfer announced by the demoted leader itself routes by chain, like
// the cloud's copy, and re-keys the sender index to the promoted node.
func TestShardedTransferFromOldLeaderRekeys(t *testing.T) {
	f := newShardedFixture(t, 2)
	tr := &wire.LeadershipTransfer{Chain: "edge-1", Epoch: 1, Prev: "edge-1", NewLeader: "edge-1.r1"}
	tr.CloudSig = wcrypto.SignMsg(f.keys["cloud"], tr)
	f.s.Receive(10, wire.Envelope{From: "edge-1", To: "c1", Msg: tr})
	c := f.s.byChain["edge-1"]
	if c.Edge() != "edge-1.r1" || f.s.byEdge["edge-1.r1"] != c {
		t.Fatalf("core bound to %q, sender index %v", c.Edge(), f.s.byEdge)
	}
}
