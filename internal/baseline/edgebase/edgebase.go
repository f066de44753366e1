// Package edgebase implements the Edge-baseline of Section II-C: the
// straightforward way to use an untrusted edge node. Writes go to the
// trusted cloud, which certifies them, updates the authoritative mLSM
// index, and synchronously pushes the new state — full data, not digests —
// to the edge before acknowledging the client. Reads are then served at
// the edge with Merkle proofs exactly as in WedgeChain.
//
// The synchronous cloud-then-edge write path is what WedgeChain's lazy
// certification removes; the full-data push is what data-free
// certification removes. The benchmarks quantify both.
package edgebase

import (
	"wedgechain/internal/core"
	"wedgechain/internal/mlsm"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// All three roles implement core.Handler.
var (
	_ core.Handler = (*Cloud)(nil)
	_ core.Handler = (*Edge)(nil)
	_ core.Handler = (*Client)(nil)
)

// CloudConfig parameterizes the Edge-baseline cloud.
type CloudConfig struct {
	ID   wire.NodeID
	Edge wire.NodeID
	// BatchSize groups writes into blocks (the evaluation's batch size).
	BatchSize int
	// L0Threshold triggers cloud-side compaction of L0 blocks into L1.
	L0Threshold int
	// LevelThresholds are the page budgets of levels 1..n.
	LevelThresholds []int
	// PageCap is the records-per-page target.
	PageCap int
}

func (c *CloudConfig) fill() {
	if c.BatchSize <= 0 {
		c.BatchSize = 100
	}
	if c.L0Threshold <= 0 {
		c.L0Threshold = 10
	}
	if len(c.LevelThresholds) == 0 {
		c.LevelThresholds = []int{10, 100, 1000}
	}
	if c.PageCap <= 0 {
		c.PageCap = c.BatchSize
	}
}

type pendingWrite struct {
	client wire.NodeID
	seq    uint64
}

type queuedPush struct {
	push    *wire.EBStatePush
	writers []pendingWrite
	bid     uint64
}

// Cloud is the Edge-baseline cloud: authoritative owner of the index.
// Not safe for concurrent use.
type Cloud struct {
	cfg CloudConfig
	key wcrypto.KeyPair
	reg *wcrypto.Registry

	buf     []wire.Entry
	writers []pendingWrite

	blocks  []wire.Block
	l0From  uint64
	levels  [][]wire.Page // levels[i] = pages of level i+1
	epoch   uint64
	pageSeq uint64

	queue    []queuedPush
	inFlight bool

	stats CloudStats
}

// CloudStats are counters for the Edge-baseline cloud.
type CloudStats struct {
	Writes      uint64
	Blocks      uint64
	Compactions uint64
	PushBytes   uint64
}

// NewCloud constructs the Edge-baseline cloud.
func NewCloud(cfg CloudConfig, key wcrypto.KeyPair, reg *wcrypto.Registry) *Cloud {
	cfg.fill()
	return &Cloud{
		cfg:    cfg,
		key:    key,
		reg:    reg,
		levels: make([][]wire.Page, len(cfg.LevelThresholds)),
	}
}

// ID implements core.Handler.
func (c *Cloud) ID() wire.NodeID { return c.cfg.ID }

// Stats returns a copy of the counters.
func (c *Cloud) Stats() CloudStats { return c.stats }

// Receive implements core.Handler.
func (c *Cloud) Receive(now int64, env wire.Envelope) []wire.Envelope {
	switch m := env.Msg.(type) {
	case *wire.EBPutBatch:
		return c.handlePut(now, env.From, m)
	case *wire.EBStateAck:
		return c.handleAck(now, env.From, m)
	default:
		return nil
	}
}

// Tick implements core.Handler.
func (c *Cloud) Tick(now int64) []wire.Envelope { return nil }

// handlePut buffers each correctly signed entry of a write batch, cutting
// and pushing a block at every BatchSize entries.
func (c *Cloud) handlePut(now int64, from wire.NodeID, m *wire.EBPutBatch) []wire.Envelope {
	var out []wire.Envelope
	for _, e := range m.Entries {
		if e.Client != from || wcrypto.VerifyMsg(c.reg, e.Client, &e, e.Sig) != nil {
			continue
		}
		c.stats.Writes++
		c.buf = append(c.buf, e)
		c.writers = append(c.writers, pendingWrite{client: e.Client, seq: e.Seq})
		if len(c.buf) == c.cfg.BatchSize {
			out = append(out, c.cutAndPush(now)...)
		}
	}
	return out
}

// cutAndPush certifies a block, compacts if needed, and enqueues the state
// push to the edge. Clients are acknowledged only after the edge acks —
// the synchronous coordination the paper's Figure 4 measures.
func (c *Cloud) cutAndPush(now int64) []wire.Envelope {
	var start uint64
	if n := len(c.blocks); n > 0 {
		last := &c.blocks[n-1]
		start = last.StartPos + uint64(len(last.Entries))
	}
	blk := wire.Block{
		Edge:     c.cfg.Edge,
		ID:       uint64(len(c.blocks)),
		StartPos: start,
		Ts:       now,
		Entries:  c.buf,
	}
	c.buf = nil
	c.blocks = append(c.blocks, blk)
	c.stats.Blocks++

	proof := wire.BlockProof{Edge: c.cfg.Edge, BID: blk.ID, Digest: wcrypto.BlockDigest(&blk)}
	proof.CloudSig = wcrypto.SignMsg(c.key, &proof)

	// Cloud-side compaction, cascading like an LSM tree.
	compacted := c.maybeCompact(now)

	c.epoch++
	roots := c.roots()
	global := wire.SignedRoot{Edge: c.cfg.Edge, Epoch: c.epoch, Root: mlsm.GlobalRoot(roots), Ts: now, L0From: c.l0From}
	global.CloudSig = wcrypto.SignMsg(c.key, &global)

	push := &wire.EBStatePush{
		Epoch:  c.epoch,
		Block:  blk,
		Proof:  proof,
		L0From: c.l0From,
		Roots:  roots,
		Global: global,
	}
	if compacted {
		// Ship the full level state; pages carry their level numbers.
		for _, lvl := range c.levels {
			push.Pages = append(push.Pages, lvl...)
		}
	}
	push.CloudSig = wcrypto.SignMsg(c.key, push)

	writers := c.writers
	c.writers = nil
	c.queue = append(c.queue, queuedPush{push: push, writers: writers, bid: blk.ID})
	return c.pump()
}

// maybeCompact merges L0 into L1 (and cascades) when thresholds trip.
func (c *Cloud) maybeCompact(now int64) bool {
	did := false
	if uint64(len(c.blocks))-c.l0From > uint64(c.cfg.L0Threshold) {
		var kvs []wire.KV
		for bid := c.l0From; bid < uint64(len(c.blocks)); bid++ {
			kvs = append(kvs, mlsm.BlockKVs(&c.blocks[bid])...)
		}
		c.levels[0] = mlsm.Merge(kvs, c.levels[0], 1, c.cfg.PageCap, c.pageSeq, now)
		c.pageSeq += uint64(len(c.levels[0]))
		c.l0From = uint64(len(c.blocks))
		did = true
	}
	for i := 0; i+1 < len(c.levels); i++ {
		if len(c.levels[i]) <= c.cfg.LevelThresholds[i] {
			continue
		}
		c.levels[i+1] = mlsm.Merge(mlsm.PagesKVs(c.levels[i]), c.levels[i+1], uint32(i+2), c.cfg.PageCap, c.pageSeq, now)
		c.pageSeq += uint64(len(c.levels[i+1]))
		c.levels[i] = nil
		did = true
	}
	return did
}

func (c *Cloud) roots() [][]byte {
	roots := make([][]byte, len(c.levels))
	for i := range c.levels {
		roots[i] = mlsm.LevelTree(c.levels[i]).Root()
	}
	return roots
}

// pump sends the next queued push when none is in flight.
func (c *Cloud) pump() []wire.Envelope {
	if c.inFlight || len(c.queue) == 0 {
		return nil
	}
	c.inFlight = true
	env := wire.Envelope{From: c.cfg.ID, To: c.cfg.Edge, Msg: c.queue[0].push}
	c.stats.PushBytes += uint64(wire.EncodedSize(env))
	return []wire.Envelope{env}
}

func (c *Cloud) handleAck(now int64, from wire.NodeID, m *wire.EBStateAck) []wire.Envelope {
	if from != c.cfg.Edge || !c.inFlight || len(c.queue) == 0 {
		return nil
	}
	head := c.queue[0]
	if m.Epoch != head.push.Epoch {
		return nil
	}
	if err := wcrypto.VerifyMsg(c.reg, c.cfg.Edge, m, m.EdgeSig); err != nil {
		return nil
	}
	c.queue = c.queue[1:]
	c.inFlight = false
	out := make([]wire.Envelope, 0, len(head.writers)+1)
	for _, w := range head.writers {
		out = append(out, wire.Envelope{
			From: c.cfg.ID, To: w.client,
			Msg: &wire.EBPutResponse{Seq: w.seq, BID: head.bid, OK: true},
		})
	}
	return append(out, c.pump()...)
}

// Flush force-commits a partial batch (used by drivers at workload end).
func (c *Cloud) Flush(now int64) []wire.Envelope {
	if len(c.buf) == 0 {
		return nil
	}
	return c.cutAndPush(now)
}
