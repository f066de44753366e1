package deploy

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"wedgechain/internal/client"
	"wedgechain/internal/edge"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// TestBuildShardedReplicated: three chains of three members, the first two
// sharded, and a fault on edge-2. The signed map names the shard leaders
// and lists their followers, every member plays its role, the fault lands
// on edge-2 alone, and the cloud knows each group: it names each chain's
// leader and counts every follower's heartbeat.
func TestBuildShardedReplicated(t *testing.T) {
	d, err := Build(Topology{Edges: 3, Shards: 2, Replicas: 3, Clients: 1, Edge: edge.Config{BatchSize: 1},
		Faults: map[wire.NodeID]*edge.Fault{"edge-2": {KillMidBatch: true}}})
	if err != nil {
		t.Fatal(err)
	}
	sm := d.ShardMap
	if err := wcrypto.VerifyMsg(d.Registry, CloudID, sm, sm.CloudSig); err != nil {
		t.Fatalf("shard map signature: %v", err)
	}
	if !slices.Equal(sm.Edges, []wire.NodeID{"edge-1", "edge-2"}) || len(sm.Followers) != 2 || len(d.Chains) != 3 {
		t.Fatalf("shard map %v with followers %v, %d chains", sm.Edges, sm.Followers, len(d.Chains))
	}
	for i, chain := range d.Chains {
		id := EdgeID(i + 1)
		if d.Cloud.ChainLeader(id) != id || chain[0].ID() != id || chain[0].IsFollower() {
			t.Errorf("chain %s: the cloud names %s, first member %s", id, d.Cloud.ChainLeader(id), chain[0].ID())
		}
		for k, f := range chain[1:] {
			if f.ID() != FollowerID(i+1, k+1) || !f.IsFollower() || f.Chain() != id || i < 2 && sm.Followers[i][k] != f.ID() {
				t.Errorf("member %s of chain %s: follower %v of %s", f.ID(), id, f.IsFollower(), f.Chain())
			}
			for _, env := range f.Tick(int64(1e9)) {
				d.Cloud.Receive(int64(1e9), env)
			}
		}
	}
	if got := d.Cloud.Stats().Heartbeats; got != 6 {
		t.Fatalf("the cloud counted %d follower heartbeats, want 6", got)
	}
	for _, en := range d.Edges() {
		c := client.New(client.Config{ID: "c1", Edge: en.ID(), Cloud: CloudID}, d.Keys["c1"], d.Registry)
		_, envs := c.Put(1, []byte("k"), []byte("v"))
		if en.Receive(1, envs[0]); en.Killed() != (en.ID() == "edge-2") {
			t.Errorf("%s killed: %v", en.ID(), en.Killed())
		}
	}
}

// TestBuildDurableAndRejects: a DataDir gives each edge its store in
// DataDir/<id>; a key that cannot be made and an edge template the edge
// layer refuses fail the build.
func TestBuildDurableAndRejects(t *testing.T) {
	dir := t.TempDir()
	d, err := Build(Topology{Replicas: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, en := range d.Edges() {
		if fi, err := os.Stat(filepath.Join(dir, string(en.ID()))); err != nil || !fi.IsDir() || en.CloseStore() != nil {
			t.Errorf("%s: no store in its directory (%v)", en.ID(), err)
		}
	}
	boom := errors.New("no entropy")
	if _, err := Build(Topology{Key: func(wire.NodeID) (wcrypto.KeyPair, error) { return wcrypto.KeyPair{}, boom }}); !errors.Is(err, boom) {
		t.Errorf("key error: Build returned %v", err)
	}
	if _, err := Build(Topology{Edge: edge.Config{BatchSize: -1}}); err == nil {
		t.Error("an edge template with BatchSize -1 built")
	}
}
