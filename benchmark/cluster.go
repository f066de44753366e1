package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"wedgechain/internal/client"
	"wedgechain/internal/cloud"
	"wedgechain/internal/core"
	"wedgechain/internal/edge"
	"wedgechain/internal/faultnet"
	"wedgechain/internal/obs"
	"wedgechain/internal/shard"
	"wedgechain/internal/transport"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

const (
	cloudID  = wire.NodeID("cloud")
	maxKinds = 64 // above every wire.Kind value
)

// harnessClock is the one clock every harness timestamp is read from.
var harnessClock = time.Now()

func nowNS() int64 { return int64(time.Since(harnessClock)) }

// cluster is one WedgeChain deployment inside this process: the state
// machines the wedge-cloud, wedge-edge and wedge-client binaries run,
// each behind its own TCP endpoint on loopback, configured as those
// binaries configure them.
type cluster struct {
	sp          *spec
	tr          *tracer // nil unless this is a traced run
	roles       map[wire.NodeID]role
	newRegistry func() *wcrypto.Registry

	cloud     *cloud.Node
	cloudWrap *nodeWrap
	leaders   []*edge.Node
	leaderIDs []wire.NodeID
	edgeWraps []*nodeWrap // leaders first, then followers
	stores    []*edge.Node
	dirs      []string // leaders' log directories (durable workloads)
	tmp       string

	tcps      []*transport.TCP
	endpoints []*endpoint
	sessions  []*session
	oracle    *oracle
	keys      [][]byte

	cancel context.CancelFunc
	wg     sync.WaitGroup
	errMu  sync.Mutex
	err    error
}

// nodeWrap sits between a node's TCP endpoint and its state machine. It
// always counts what the node emits (bytes on the cloud links are an
// end-to-end metric) and, in a traced run, times every call.
type nodeWrap struct {
	c     *cluster
	inner core.Handler
	id    wire.NodeID
	role  role

	emitted   [maxKinds]atomic.Uint64 // envelopes, by kind
	bytes     [maxKinds]atomic.Uint64 // traced runs only: encoded bytes of everything emitted, by kind
	linkBytes [maxKinds]atomic.Uint64 // encoded bytes emitted onto an edge<->cloud link, by kind
	certMsgs  atomic.Uint64           // cloud: distinct signed certificates emitted
	mergeOut  atomic.Int64            // edge: merge requests awaiting their response
	mergedKVs atomic.Uint64           // cloud: records shipped in merge requests
	busyNS    atomic.Int64            // traced runs only
	tickNS    atomic.Int64
	tickTrace string
}

func (c *cluster) wrapNode(h core.Handler, r role) *nodeWrap {
	return &nodeWrap{c: c, inner: h, id: h.ID(), role: r, tickTrace: "tick/" + string(h.ID())}
}

var tickSpanNames = [4]string{roleClient: "client.tick", roleEdge: "edge.tick", roleFollower: "edge.follower_tick", roleCloud: "cloud.tick"}

// recvSpanNames[role][kind] is the span name of a delivery, built once.
var recvSpanNames = func() (names [4][maxKinds]string) {
	for r, layer := range [4]string{roleClient: "client.recv.", roleEdge: "edge.recv.", roleFollower: "edge.follower_recv.", roleCloud: "cloud.recv."} {
		for k := range names[r] {
			names[r][k] = layer + wire.Kind(k).String()
		}
	}
	return names
}()

func (w *nodeWrap) ID() wire.NodeID { return w.id }

func (w *nodeWrap) Receive(now int64, env wire.Envelope) []wire.Envelope {
	kind := env.Msg.MsgKind()
	switch m := env.Msg.(type) {
	case *wire.MergeResponse:
		if w.role == roleEdge {
			w.mergeOut.Add(-1)
		}
	case *wire.MergeRequest:
		n := 0
		for i := range m.L0Blocks {
			n += len(m.L0Blocks[i].Entries)
		}
		for i := range m.SrcPages {
			n += len(m.SrcPages[i].KVs)
		}
		for i := range m.DstPages {
			n += len(m.DstPages[i].KVs)
		}
		w.mergedKVs.Add(uint64(n))
	}
	tr := w.c.tr
	if tr == nil || !tr.on.Load() {
		outs := w.inner.Receive(now, env)
		w.account(outs, false)
		return outs
	}
	arrive := nowNS()
	cause, wait := tr.arrived(env, arrive, w.role)
	start := nowNS()
	outs := w.inner.Receive(now, env)
	end := nowNS()
	w.busyNS.Add(end - start)
	id := tr.newID()
	tr.record(span{ID: id, Trace: traceOf(env), Name: recvSpanNames[w.role][kind], Node: string(w.id),
		Start: start, End: end, Cause: cause, Wait: wait})
	tr.emitted(outs, id, end, w.role)
	w.account(outs, true)
	return outs
}

func (w *nodeWrap) Tick(now int64) []wire.Envelope {
	tr := w.c.tr
	if tr == nil || !tr.on.Load() {
		outs := w.inner.Tick(now)
		w.account(outs, false)
		return outs
	}
	start := nowNS()
	outs := w.inner.Tick(now)
	end := nowNS()
	w.busyNS.Add(end - start)
	w.tickNS.Add(end - start)
	id := tr.newID()
	tr.record(span{ID: id, Trace: w.tickTrace, Name: tickSpanNames[w.role], Node: string(w.id), Start: start, End: end})
	tr.emitted(outs, id, end, w.role)
	w.account(outs, true)
	return outs
}

// account counts what a handler call emitted.
func (w *nodeWrap) account(outs []wire.Envelope, sizes bool) {
	var lastCert wire.Message
	for _, env := range outs {
		kind := env.Msg.MsgKind()
		w.emitted[kind].Add(1)
		onLink := env.To == cloudID
		if w.role == roleCloud {
			to := w.c.roles[env.To]
			onLink = to == roleEdge || to == roleFollower
		}
		if onLink || sizes {
			n := uint64(wire.EncodedSize(env))
			if onLink {
				w.linkBytes[kind].Add(n)
			}
			if sizes {
				w.bytes[kind].Add(n)
			}
		}
		switch kind {
		case wire.KindMergeRequest:
			w.mergeOut.Add(1)
		case wire.KindBlockProof, wire.KindBlockCertBatch:
			// The cloud fans one signed certificate out to the whole
			// replica group; count the signature, not the copies.
			if w.role == roleCloud && env.Msg != lastCert {
				lastCert = env.Msg
				w.certMsgs.Add(1)
			}
		}
	}
}

func sumKinds(a *[maxKinds]atomic.Uint64, kinds ...wire.Kind) uint64 {
	var n uint64
	if len(kinds) == 0 {
		for i := range a {
			n += a[i].Load()
		}
		return n
	}
	for _, k := range kinds {
		n += a[k].Load()
	}
	return n
}

// endpoint is one client TCP endpoint with the sessions multiplexed on it
// and the generator goroutine that issues their operations.
type endpoint struct {
	tcp      *transport.TCP
	sessions []*session
	ready    chan *session // closed loop: sessions whose next op may be issuable
}

func (c *cluster) fail(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
}

func (c *cluster) firstErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// newCluster assembles and starts the deployment sp describes. tmpRoot is
// where durable workloads keep their log directories.
func newCluster(sp *spec, seed int64, tr *tracer, tmpRoot string) (c *cluster, err error) {
	c = &cluster{sp: sp, tr: tr, roles: map[wire.NodeID]role{cloudID: roleCloud}}
	defer func() {
		if err != nil {
			c.close()
		}
	}()

	// Identities. A chain is named after its first leader, as in the
	// binaries; followers and multiplexed sessions get derived names.
	followers := make(map[wire.NodeID][]wire.NodeID)
	var edgeIDs []wire.NodeID // leaders, then followers
	for i := 1; i <= sp.Shards; i++ {
		id := wire.NodeID(fmt.Sprintf("edge-%d", i))
		c.leaderIDs = append(c.leaderIDs, id)
		c.roles[id] = roleEdge
	}
	edgeIDs = append(edgeIDs, c.leaderIDs...)
	for _, lid := range c.leaderIDs {
		for k := 1; k < sp.Replicas; k++ {
			fid := wire.NodeID(fmt.Sprintf("%s.f%d", lid, k))
			followers[lid] = append(followers[lid], fid)
			edgeIDs = append(edgeIDs, fid)
			c.roles[fid] = roleFollower
		}
	}
	var sessionIDs []wire.NodeID
	for i := 0; i < sp.Sessions; i++ {
		id := wire.NodeID(fmt.Sprintf("c%d.s%d", i%generators, i/generators))
		sessionIDs = append(sessionIDs, id)
		c.roles[id] = roleClient
	}

	// Deterministic demo keys (cmd/internal/cli.Registry): every process
	// of a real deployment derives the same registry from the peer list.
	keys := make(map[wire.NodeID]wcrypto.KeyPair, len(c.roles))
	for id := range c.roles {
		keys[id] = wcrypto.DeterministicKey(id)
	}
	c.newRegistry = func() *wcrypto.Registry {
		reg := wcrypto.NewRegistry()
		for id, k := range keys {
			reg.Register(id, k.Pub)
		}
		return reg
	}
	metrics := obs.NewRegistry() // private: the binaries' obs.Default(), minus the global

	// Cloud (cmd/wedge-cloud): gossips to every peer.
	ccfg := cloud.Config{
		ID: cloudID, Levels: 3, PageCap: burstSize,
		GossipEvery: gossipEvery.Nanoseconds(),
		GossipTo:    append(append([]wire.NodeID(nil), edgeIDs...), sessionIDs...),
		CertWorkers: sp.CertWorkers, CertBatch: sp.CertBatch,
		// wedge-cloud's default lease is 1 s. An edge fsyncs on its handler
		// goroutine, so one slow fsync of the host's virtual disk silences
		// the leader's heartbeats, and the cloud then transfers leadership
		// away from a healthy leader (seen once in ten runs). Failover is
		// not a workload of this benchmark: the lease is out of its way.
		LeaseTimeout: leaseTimeout.Nanoseconds(),
		Metrics:      metrics,
	}
	if err := ccfg.Validate(); err != nil {
		return nil, err
	}
	c.cloud = cloud.New(ccfg, keys[cloudID], c.newRegistry())
	if sp.Replicas > 1 {
		for _, lid := range c.leaderIDs {
			c.cloud.RegisterGroup(lid, lid, followers[lid])
		}
	}
	c.cloudWrap = c.wrapNode(c.cloud, roleCloud)

	// Edges (cmd/wedge-edge).
	if sp.Durable {
		if c.tmp, err = os.MkdirTemp(tmpRoot, "wlog-"); err != nil {
			return nil, err
		}
	}
	newEdge := func(cfg edge.Config) (*edge.Node, error) {
		cfg.Cloud = cloudID
		cfg.BatchSize = burstSize
		cfg.FlushEvery = flushEvery.Nanoseconds()
		cfg.L0Threshold = 10
		cfg.LevelThresholds = []int{10, 100, 1000}
		cfg.Metrics = metrics
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if !sp.Durable {
			return edge.New(cfg, keys[cfg.ID], c.newRegistry()), nil
		}
		cfg.SyncEvery = groupCommit.Nanoseconds()
		dir := filepath.Join(c.tmp, string(cfg.ID))
		n, _, err := edge.NewPersistent(cfg, keys[cfg.ID], c.newRegistry(), dir, true)
		if err == nil {
			c.stores = append(c.stores, n)
			if !cfg.Follower {
				c.dirs = append(c.dirs, dir)
			}
		}
		return n, err
	}
	var followerNodes []*edge.Node
	for _, lid := range c.leaderIDs {
		n, err := newEdge(edge.Config{ID: lid, Followers: followers[lid], CertBatch: sp.CertBatch})
		if err != nil {
			return nil, err
		}
		c.leaders = append(c.leaders, n)
		for _, fid := range followers[lid] {
			fn, err := newEdge(edge.Config{ID: fid, Chain: lid, Follower: true})
			if err != nil {
				return nil, err
			}
			followerNodes = append(followerNodes, fn)
		}
	}
	for _, n := range c.leaders {
		c.edgeWraps = append(c.edgeWraps, c.wrapNode(n, roleEdge))
	}
	for _, n := range followerNodes {
		c.edgeWraps = append(c.edgeWraps, c.wrapNode(n, roleFollower))
	}

	// Sessions (cmd/wedge-client -sessions-per-conn): full verification,
	// one sharded session per identity, multiplexed over two endpoints.
	ring, err := shard.New(c.leaderIDs)
	if err != nil {
		return nil, err
	}
	c.keys = keyTable(max(sp.PutKeys, sp.Preload))
	c.oracle = newOracle(len(c.keys))
	c.endpoints = make([]*endpoint, generators)
	for i := range c.endpoints {
		c.endpoints[i] = &endpoint{ready: make(chan *session, sp.Sessions)}
	}
	for i, id := range sessionIDs {
		sh := client.NewSharded(client.Config{ID: id, Cloud: cloudID}, ring, keys[id], c.newRegistry())
		s := newSession(c, sh, c.endpoints[i%generators])
		c.sessions = append(c.sessions, s)
		s.ep.sessions = append(s.ep.sessions, s)
	}

	// One TCP endpoint per node, listening on an ephemeral loopback
	// port. The cloud delay, when the workload has one, is a faultnet
	// rule on every frame to or from the cloud.
	delay := func(r faultnet.Rule) *faultnet.Net {
		if sp.CloudDelay == 0 {
			return nil
		}
		r.Faults = faultnet.LinkFaults{DelayMin: sp.CloudDelay.Nanoseconds(), DelayMax: sp.CloudDelay.Nanoseconds()}
		fn := faultnet.New(seed)
		fn.Add(r)
		return fn
	}
	nodeTCP := func(h core.Handler, fault *faultnet.Net) *transport.TCP {
		return transport.NewTCP(h, transport.TCPConfig{
			Listen: "127.0.0.1:0", Fault: fault,
			Registry: c.newRegistry(), VerifyWorkers: -1, Obs: metrics,
		})
	}
	addrOf := make(map[wire.NodeID]*transport.TCP)
	addrOf[cloudID] = nodeTCP(c.cloudWrap, delay(faultnet.Rule{From: cloudID}))
	c.tcps = append(c.tcps, addrOf[cloudID])
	for _, w := range c.edgeWraps {
		t := nodeTCP(w, delay(faultnet.Rule{To: cloudID}))
		addrOf[w.id] = t
		c.tcps = append(c.tcps, t)
	}
	for _, ep := range c.endpoints {
		ep.tcp = transport.NewTCP(ep.sessions[0], transport.TCPConfig{
			Listen: "127.0.0.1:0", Fault: delay(faultnet.Rule{To: cloudID}),
		})
		for _, s := range ep.sessions[1:] {
			ep.tcp.AddSession(s)
		}
		for _, s := range ep.sessions {
			addrOf[s.id] = ep.tcp
		}
		c.tcps = append(c.tcps, ep.tcp)
	}
	for _, t := range c.tcps {
		if err := t.Listen(); err != nil {
			return nil, err
		}
	}
	for _, t := range c.tcps {
		for id, peer := range addrOf {
			t.SetPeer(id, peer.Addr().String())
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	for _, t := range c.tcps {
		c.wg.Add(1)
		go func(t *transport.TCP) {
			defer c.wg.Done()
			if err := t.Serve(ctx); err != nil {
				c.fail(err)
			}
		}(t)
	}
	return c, nil
}

// close stops every endpoint, waits for them, closes the nodes' stores
// and goroutines, and removes the log directories. Safe on a partly
// built cluster.
func (c *cluster) close() {
	if c.cancel != nil {
		c.cancel()
		c.wg.Wait()
	}
	if c.cloud != nil {
		c.cloud.Close()
	}
	c.closeStores()
	if c.tmp != "" {
		os.RemoveAll(c.tmp)
	}
}

func (c *cluster) closeStores() {
	for _, n := range c.stores {
		if err := n.CloseStore(); err != nil {
			c.fail(fmt.Errorf("closing %s's log: %w", n.ID(), err))
		}
	}
	c.stores = nil
}

// stop stops the endpoints and flushes the durable logs but keeps the
// directories, so the recovery check can read them; close removes them.
func (c *cluster) stop() {
	c.cancel()
	c.wg.Wait()
	c.cancel = nil
	c.closeStores()
}

// mergesInFlight reports merge requests the leaders still await.
func (c *cluster) mergesInFlight() int64 {
	var n int64
	for _, w := range c.edgeWraps {
		n += w.mergeOut.Load()
	}
	return n
}
