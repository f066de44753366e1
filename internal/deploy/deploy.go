// Package deploy builds the one deployment shape WedgeChain runs: a
// trusted cloud, untrusted edges serving chains (a leader and its
// followers), and clients, all checking signatures against one key
// registry. It decides node names, keys, the cloud-signed shard map, group
// registration and each member's role; a host runs what it returns, the
// simulator (internal/sim) or one loopback TCP endpoint per node
// (Loopback).
package deploy

import (
	"fmt"
	"path/filepath"
	"slices"

	"wedgechain/internal/cloud"
	"wedgechain/internal/edge"
	"wedgechain/internal/shard"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// CloudID is the trusted cloud node's identity.
const CloudID = wire.NodeID("cloud")

// EdgeID names the i-th chain (1-based) and its initial leader.
func EdgeID(i int) wire.NodeID { return wire.NodeID(fmt.Sprintf("edge-%d", i)) }

// FollowerID names the k-th follower (1-based) of the i-th chain.
func FollowerID(i, k int) wire.NodeID { return wire.NodeID(fmt.Sprintf("edge-%d.r%d", i, k)) }

// ClientID names the i-th client (1-based).
func ClientID(i int) wire.NodeID { return wire.NodeID(fmt.Sprintf("c%d", i)) }

// Topology describes a deployment. A count below one means one.
type Topology struct {
	// Edges is the number of chains; the shard map spans the first
	// Shards of them (0 = all).
	Edges, Shards int
	// Replicas is each chain's member count, its leader included.
	Replicas int
	// Clients registers c1..cN, who are also the cloud's gossip targets.
	Clients int
	// Cloud and Edge are the node templates. Build sets identities, roles,
	// the cloud's gossip targets and each edge's Fault.
	Cloud cloud.Config
	Edge  edge.Config
	// Faults makes the edges it names byzantine.
	Faults map[wire.NodeID]*edge.Fault
	// DataDir, when set, gives every edge a durable store in DataDir/<id>.
	// Only tests set it today: durable sim worlds are built on it, and so
	// is the durable arm of the release auditor ROADMAP item 2 plans.
	DataDir string
	// Key makes a node's key pair; nil means wcrypto.DeterministicKey.
	Key func(wire.NodeID) (wcrypto.KeyPair, error)
}

// Deployment is a built topology, not yet hosted.
type Deployment struct {
	Keys     map[wire.NodeID]wcrypto.KeyPair
	Registry *wcrypto.Registry
	// Ring routes keys across the shard edges; ShardMap is its wire form,
	// followers listed, signed by the cloud.
	Ring     *shard.Map
	ShardMap *wire.ShardMap
	// Cloud has every replica group registered, so its failure detector
	// knows each chain from its first tick.
	Cloud *cloud.Node
	// Chains holds each chain's leader followed by its followers.
	Chains [][]*edge.Node
}

// Edges lists every edge node, chain by chain.
func (d *Deployment) Edges() []*edge.Node { return slices.Concat(d.Chains...) }

func (t *Topology) fill() {
	t.Edges, t.Replicas = max(t.Edges, 1), max(t.Replicas, 1)
	if t.Shards < 1 || t.Shards > t.Edges {
		t.Shards = t.Edges
	}
	if t.Key == nil {
		t.Key = func(id wire.NodeID) (wcrypto.KeyPair, error) { return wcrypto.DeterministicKey(id), nil }
	}
}

// members lists chain i's leader followed by its followers.
func (t *Topology) members(i int) []wire.NodeID {
	ids := []wire.NodeID{EdgeID(i)}
	for k := 1; k < t.Replicas; k++ {
		ids = append(ids, FollowerID(i, k))
	}
	return ids
}

// Keys makes the key of every node t names and registers each in one
// registry: the cloud, the leaders, the followers chain by chain, then
// the clients.
func Keys(t Topology) (map[wire.NodeID]wcrypto.KeyPair, *wcrypto.Registry, error) {
	t.fill()
	ids := []wire.NodeID{CloudID}
	for i := 1; i <= t.Edges; i++ {
		ids = append(ids, EdgeID(i))
	}
	for i := 1; i <= t.Edges; i++ {
		ids = append(ids, t.members(i)[1:]...)
	}
	for i := 1; i <= t.Clients; i++ {
		ids = append(ids, ClientID(i))
	}
	keys, reg := make(map[wire.NodeID]wcrypto.KeyPair, len(ids)), wcrypto.NewRegistry()
	for _, id := range ids {
		k, err := t.Key(id)
		if err != nil {
			return nil, nil, err
		}
		keys[id] = k
		reg.Register(id, k.Pub)
	}
	return keys, reg, nil
}

// Build makes the keys and the nodes of t.
func Build(t Topology) (*Deployment, error) {
	t.fill()
	keys, reg, err := Keys(t)
	if err != nil {
		return nil, err
	}
	d := &Deployment{Keys: keys, Registry: reg}
	var leaders []wire.NodeID
	for i := 1; i <= t.Shards; i++ {
		leaders = append(leaders, EdgeID(i))
	}
	if d.Ring, err = shard.New(leaders); err != nil {
		return nil, err
	}
	d.ShardMap = d.Ring.Wire(1)
	for i := 1; i <= t.Shards && t.Replicas > 1; i++ {
		d.ShardMap.Followers = append(d.ShardMap.Followers, t.members(i)[1:])
	}
	d.ShardMap.CloudSig = wcrypto.SignMsg(keys[CloudID], d.ShardMap)

	ccfg := t.Cloud
	ccfg.ID = CloudID
	for i := 1; i <= t.Clients; i++ {
		ccfg.GossipTo = append(ccfg.GossipTo, ClientID(i))
	}
	d.Cloud = cloud.New(ccfg, keys[CloudID], reg)
	for i := 1; i <= t.Edges; i++ {
		ids := t.members(i)
		if t.Replicas > 1 {
			d.Cloud.RegisterGroup(ids[0], ids[0], ids[1:])
		}
		var chain []*edge.Node
		for _, id := range ids {
			ecfg := t.Edge
			ecfg.ID, ecfg.Chain, ecfg.Cloud, ecfg.Fault = id, ids[0], CloudID, t.Faults[id]
			ecfg.Follower = id != ids[0]
			if !ecfg.Follower {
				ecfg.Followers = ids[1:]
			}
			if err := ecfg.Validate(); err != nil {
				return nil, err
			}
			var en *edge.Node
			if t.DataDir == "" {
				en = edge.New(ecfg, keys[id], reg)
			} else if en, _, err = edge.NewPersistent(ecfg, keys[id], reg, filepath.Join(t.DataDir, string(id)), true); err != nil {
				return nil, fmt.Errorf("deploy: durable edge %s: %w", id, err)
			}
			chain = append(chain, en)
		}
		d.Chains = append(d.Chains, chain)
	}
	return d, nil
}
