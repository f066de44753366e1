package integration

import (
	"testing"

	"wedgechain/internal/client"
	"wedgechain/internal/core"
	"wedgechain/internal/deploy"
	"wedgechain/internal/edge"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// TestGetKindsInert: a get is a point-range scan, and the retired get
// kinds are decoded but handled by nobody. A GetRequest for a key the
// leader holds draws no answer from the leader and no leader pointer from
// its follower, and counts nowhere; a correctly signed GetResponse
// claiming an answer settles no get at the client and moves none of its
// counters.
func TestGetKindsInert(t *testing.T) {
	d, err := deploy.Build(deploy.Topology{Replicas: 2, Clients: 1, Edge: edge.Config{BatchSize: 1}})
	if err != nil {
		t.Fatal(err)
	}
	keys, leader, follower := d.Keys, d.Chains[0][0], d.Chains[0][1]
	c := client.New(client.Config{ID: "c1", Edge: "edge-1", Cloud: "cloud"}, keys["c1"], d.Registry)
	_, put := c.Put(1, []byte("k"), []byte("v"))
	leader.Receive(1, put[0])
	// The follower learns who leads, so it points requests there.
	tr := &wire.LeadershipTransfer{Chain: "edge-1", Epoch: 1, NewLeader: "edge-1", Followers: []wire.NodeID{"edge-1.r1"}}
	tr.CloudSig = wcrypto.SignMsg(keys["cloud"], tr)
	follower.Receive(1, wire.Envelope{From: "cloud", To: "edge-1.r1", Msg: tr})

	get := &wire.GetRequest{Key: []byte("k"), ReqID: 1}
	for _, n := range []*edge.Node{leader, follower} {
		if out := n.Receive(2, wire.Envelope{From: "c1", To: n.ID(), Msg: get}); len(out) != 0 {
			t.Fatalf("%s answered a GetRequest with %d messages", n.ID(), len(out))
		}
		if st := n.Stats(); st.Gets != 0 || st.Scans != 0 {
			t.Fatalf("%s counted a GetRequest: gets %d scans %d", n.ID(), st.Gets, st.Scans)
		}
	}
	// The point scan that replaced it is live at both: answered by the
	// leader, pointed at the leader by the follower.
	start, end := wire.PointRange([]byte("k"))
	point := &wire.ScanRequest{Start: start, End: end, Limit: 1, ReqID: 2}
	for _, n := range []*edge.Node{leader, follower} {
		if out := n.Receive(3, wire.Envelope{From: "c1", To: n.ID(), Msg: point}); len(out) != 1 {
			t.Fatalf("%s answered a point scan with %d messages", n.ID(), len(out))
		}
	}

	op, _ := c.Get(4, []byte("k"))
	resp := &wire.GetResponse{ReqID: op.ReqID, Key: []byte("k"), Found: true, Value: []byte("v"), Ver: 1}
	resp.EdgeSig = wcrypto.SignMsg(keys["edge-1"], resp)
	before := c.Stats()
	if out := c.Receive(5, wire.Envelope{From: "edge-1", To: "c1", Msg: resp}); len(out) != 0 {
		t.Fatalf("client answered a GetResponse with %d messages", len(out))
	}
	if op.Done || op.Phase != core.PhaseNone || op.Found {
		t.Fatalf("a GetResponse settled the get: done=%v phase=%v found=%v", op.Done, op.Phase, op.Found)
	}
	if after := c.Stats(); after != before {
		t.Fatalf("a GetResponse moved counters: %+v -> %+v", before, after)
	}
}
