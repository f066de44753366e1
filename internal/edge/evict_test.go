package edge

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wedgechain/internal/cloud"
	"wedgechain/internal/obs"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Durable nodes keep their L0 window in memory, not their history: a
// block that left the window through an L0 merge is read back from the
// segment whenever it is needed again.

// durableRig is a durable leader ("edge-1", two-entry blocks, L0 merges
// at two certified blocks), its durable follower and a cloud, with every
// message routed between them.
type durableRig struct {
	leader, follower *Node
	cloud            *cloud.Node
	keys             map[wire.NodeID]wcrypto.KeyPair
	reg              *wcrypto.Registry
	metrics          *obs.Registry
	logged           bytes.Buffer
	dirs             map[wire.NodeID]string
	now              int64
	seq              uint64
}

func newDurableRig(t *testing.T) *durableRig {
	t.Helper()
	p := newReplicaPair(t)
	r := &durableRig{keys: p.keys, reg: p.reg, metrics: obs.NewRegistry(), dirs: map[wire.NodeID]string{}}
	r.cloud = cloud.New(cloud.Config{ID: "cloud", Levels: 3, PageCap: 2}, p.keys["cloud"], p.reg)
	open := func(cfg Config) *Node {
		cfg.Metrics = r.metrics
		cfg.Logger = unstampedLogger(&r.logged)
		r.dirs[cfg.ID] = t.TempDir()
		n, recovered, err := NewPersistent(cfg, p.keys[cfg.ID], p.reg, r.dirs[cfg.ID], false)
		if err != nil || recovered != 0 {
			t.Fatalf("opening %s: %d blocks, %v", cfg.ID, recovered, err)
		}
		t.Cleanup(func() { n.CloseStore() })
		return n
	}
	r.leader = open(Config{ID: "edge-1", Cloud: "cloud", BatchSize: 2, L0Threshold: 2, Followers: []wire.NodeID{"edge-1.r1"}})
	r.follower = open(Config{ID: "edge-1.r1", Chain: "edge-1", Cloud: "cloud", BatchSize: 2, Follower: true})
	return r
}

// pump delivers envs and everything they cause, and returns every
// envelope it delivered.
func (r *durableRig) pump(t *testing.T, envs ...wire.Envelope) []wire.Envelope {
	t.Helper()
	var seen []wire.Envelope
	for len(envs) > 0 {
		if len(seen) > 10_000 {
			t.Fatal("messages never settle")
		}
		env := envs[0]
		envs = envs[1:]
		seen = append(seen, env)
		switch env.To {
		case "cloud":
			envs = append(envs, r.cloud.Receive(r.now, env)...)
		case "edge-1":
			envs = append(envs, r.leader.Receive(r.now, env)...)
		case "edge-1.r1":
			envs = append(envs, r.follower.Receive(r.now, env)...)
		}
	}
	return seen
}

// putBlocks writes n blocks of two puts through the leader and returns
// their canonical bytes as cut.
func (r *durableRig) putBlocks(t *testing.T, n int) [][]byte {
	t.Helper()
	var cut [][]byte
	for i := 0; i < 2*n; i++ {
		r.now++
		r.seq++
		e := wire.Entry{Client: "c1", Seq: r.seq, Key: []byte{'k', byte('a' + r.seq%5)}, Value: bytes.Repeat([]byte{byte(r.seq)}, 40)}
		e.Sig = wcrypto.SignMsg(r.keys["c1"], &e)
		for _, env := range r.pump(t, wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.PutRequest{Entry: e}}) {
			if m, ok := env.Msg.(*wire.ReplicateBlock); ok && env.To == "edge-1.r1" && m.Cert == nil {
				cut = append(cut, bytes.Clone(m.Block.Canonical()))
			}
		}
	}
	return cut
}

func (r *durableRig) segmentReads(node wire.NodeID) uint64 {
	return r.metrics.CounterVec("wedge_wlog_segment_reads_total", "", "node").With(string(node)).Value()
}

// resident reads the block bytes node's log holds, from its gauge.
func (r *durableRig) resident(node wire.NodeID) int {
	return int(r.metrics.GaugeVec("wedge_wlog_resident_block_bytes", "", "node").With(string(node)).Value())
}

// TestDurableLeaderEvictsAfterFirstMerge: a durable node started on an
// empty directory drops the bytes of the blocks its first L0 merge
// consumed, and still serves a read of one with its certificate, the
// block byte-identical to the one it cut.
func TestDurableLeaderEvictsAfterFirstMerge(t *testing.T) {
	r := newDurableRig(t)
	cut := r.putBlocks(t, 3)
	if r.leader.L0From() != 2 {
		t.Fatalf("l0From = %d, want 2", r.leader.L0From())
	}
	if got, want := r.resident("edge-1"), len(cut[2]); got != want {
		t.Fatalf("leader holds %d block bytes, want block 2's %d", got, want)
	}
	out := r.leader.Receive(r.now, wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.ReadRequest{ReqID: 1, BID: 0}})
	resp, _ := only[*wire.ReadResponse](t, out)
	if !resp.OK || !resp.HasProof || !bytes.Equal(resp.Block.Canonical(), cut[0]) {
		t.Fatalf("read of a compacted block: ok %v proof %v", resp.OK, resp.HasProof)
	}
	if err := wcrypto.VerifyReadResponse(r.reg, "edge-1", resp, wcrypto.RecomputedBlockDigest(&resp.Block)); err != nil {
		t.Fatal(err)
	}
	if reads := r.segmentReads("edge-1"); reads != 1 {
		t.Fatalf("segment reads = %d, want 1", reads)
	}
}

// TestCorruptCompactedBlockIsNotServed flips one byte of a compacted
// block's record in the leader's segment: a read of that block is
// answered with nothing signed — neither the altered block nor a denial
// — and a log line.
func TestCorruptCompactedBlockIsNotServed(t *testing.T) {
	r := newDurableRig(t)
	cut := r.putBlocks(t, 3)
	path := filepath.Join(r.dirs["edge-1"], "wedgelog.seg")
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(seg, cut[1])
	if at < 0 {
		t.Fatal("block 1 not found in the segment")
	}
	seg[at+len(cut[1])-1] ^= 0x01 // the last entry's signature
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	r.logged.Reset()
	out := r.leader.Receive(r.now, wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.ReadRequest{ReqID: 1, BID: 1}})
	if len(out) != 0 {
		t.Fatalf("a corrupt block was answered: %v", kindsOf(out))
	}
	if !strings.Contains(r.logged.String(), `msg="cannot serve block" bid=1`) {
		t.Fatalf("no log line for the corrupt block:\n%s", r.logged.String())
	}
	out = r.leader.Receive(r.now, wire.Envelope{From: "c1", To: "edge-1", Msg: &wire.ReadRequest{ReqID: 2, BID: 0}})
	if resp, _ := only[*wire.ReadResponse](t, out); !resp.OK || !bytes.Equal(resp.Block.Canonical(), cut[0]) {
		t.Fatal("an intact neighbour is not served")
	}
}

// TestRestartedFollowerEvictsBelowItsWindow: a durable follower restarted
// blank catches up from a leader whose blocks are all compacted — the run
// is served from the leader's segment, byte-identical to the blocks as
// cut — and, once the next mirrored L0 merge moves its window, drops the
// bytes of every block below it.
func TestRestartedFollowerEvictsBelowItsWindow(t *testing.T) {
	r := newDurableRig(t)
	cut := r.putBlocks(t, 4)
	if r.leader.L0From() != 4 || r.follower.L0From() != 4 || r.resident("edge-1.r1") != 0 {
		t.Fatalf("before restart: leader l0From %d, follower l0From %d holding %d bytes",
			r.leader.L0From(), r.follower.L0From(), r.resident("edge-1.r1"))
	}

	r.follower.Restart(r.now)
	// The cloud re-admits the blank node by a view that keeps the leader.
	view := &wire.LeadershipTransfer{Chain: "edge-1", Epoch: 1, Prev: "edge-1", NewLeader: "edge-1",
		Followers: []wire.NodeID{"edge-1.r1"}, Reason: "rejoin", Ts: r.now}
	view.CloudSig = wcrypto.SignMsg(r.keys["cloud"], view)
	readsBefore := r.segmentReads("edge-1")
	var served int
	for _, env := range r.pump(t, wire.Envelope{From: "cloud", To: "edge-1", Msg: view}, wire.Envelope{From: "cloud", To: "edge-1.r1", Msg: view}) {
		if m, ok := env.Msg.(*wire.ReplicateBlock); ok && env.To == "edge-1.r1" {
			if !bytes.Equal(m.Block.Canonical(), cut[m.Block.ID]) {
				t.Fatalf("catch-up block %d differs from the block as cut", m.Block.ID)
			}
			served++
		}
	}
	if served != 4 || r.segmentReads("edge-1")-readsBefore != 4 {
		t.Fatalf("catch-up served %d blocks with %d segment reads, want 4 and 4", served, r.segmentReads("edge-1")-readsBefore)
	}
	if r.follower.Log().NumBlocks() != 4 || r.follower.L0From() != 0 {
		t.Fatalf("follower after catch-up: %d blocks, l0From %d", r.follower.Log().NumBlocks(), r.follower.L0From())
	}

	cut = append(cut, r.putBlocks(t, 2)...)
	if r.follower.L0From() != 6 {
		t.Fatalf("follower l0From = %d after the next merge, want 6", r.follower.L0From())
	}
	if got := r.resident("edge-1.r1"); got != 0 {
		t.Fatalf("follower holds %d block bytes below its window", got)
	}
	for bid, want := range cut {
		blk, err := r.follower.Log().Block(uint64(bid))
		if err != nil || !bytes.Equal(blk.Canonical(), want) {
			t.Fatalf("follower block %d reads back wrong: %v", bid, err)
		}
	}
}
