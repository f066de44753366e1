package edgebase

import (
	"bytes"

	"wedgechain/internal/mlsm"
	"wedgechain/internal/scan"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// EdgeConfig parameterizes the Edge-baseline edge node.
type EdgeConfig struct {
	ID    wire.NodeID
	Cloud wire.NodeID
	// LevelThresholds must match the cloud's configuration.
	LevelThresholds []int
}

// Edge is the Edge-baseline edge: a passive, untrusted replica that
// installs cloud state pushes and serves reads with proofs. It has no way
// to commit writes on its own — the property that keeps it trustless but
// also keeps the cloud on the write path.
type Edge struct {
	cfg EdgeConfig
	key wcrypto.KeyPair
	reg *wcrypto.Registry

	blocks []wire.Block
	certs  []wire.BlockProof
	l0From uint64
	idx    *mlsm.Index

	stats EdgeStats
}

// EdgeStats are counters for the Edge-baseline edge.
type EdgeStats struct {
	Pushes uint64
	Scans  uint64 // gets among them: a get is a point-range scan
	Reads  uint64
}

// NewEdge constructs the Edge-baseline edge node.
func NewEdge(cfg EdgeConfig, key wcrypto.KeyPair, reg *wcrypto.Registry) *Edge {
	if len(cfg.LevelThresholds) == 0 {
		cfg.LevelThresholds = []int{10, 100, 1000}
	}
	return &Edge{cfg: cfg, key: key, reg: reg, idx: mlsm.NewIndex(cfg.LevelThresholds)}
}

// ID implements core.Handler.
func (e *Edge) ID() wire.NodeID { return e.cfg.ID }

// Stats returns a copy of the counters.
func (e *Edge) Stats() EdgeStats { return e.stats }

// Blocks returns the number of installed blocks.
func (e *Edge) Blocks() uint64 { return uint64(len(e.blocks)) }

// Receive implements core.Handler.
func (e *Edge) Receive(now int64, env wire.Envelope) []wire.Envelope {
	switch m := env.Msg.(type) {
	case *wire.EBStatePush:
		return e.handlePush(now, env.From, m)
	case *wire.ScanRequest:
		return e.handleScan(now, env.From, m)
	case *wire.ReadRequest:
		return e.handleRead(now, env.From, m)
	default:
		return nil
	}
}

// Tick implements core.Handler.
func (e *Edge) Tick(now int64) []wire.Envelope { return nil }

func (e *Edge) handlePush(now int64, from wire.NodeID, m *wire.EBStatePush) []wire.Envelope {
	if from != e.cfg.Cloud {
		return nil
	}
	if err := wcrypto.VerifyMsg(e.reg, e.cfg.Cloud, m, m.CloudSig); err != nil {
		return nil
	}
	if m.Block.ID == uint64(len(e.blocks)) {
		blk := m.Block
		blk.Freeze() // keeps the key index gets cut their slices from
		e.blocks = append(e.blocks, blk)
		e.certs = append(e.certs, m.Proof)
	}
	e.l0From = m.L0From
	if len(m.Pages) > 0 || len(m.Roots) > 0 {
		// Whole-index replacement on compaction; roots-only refresh
		// otherwise. InstallAll validates against the signed roots.
		if len(m.Pages) > 0 {
			if err := e.idx.InstallAll(m.Pages, m.Roots, m.Global); err != nil {
				return nil // refuse inconsistent state; no ack, cloud stalls
			}
		} else if e.idx.Levels() > 0 {
			// Roots unchanged; adopt the re-signed (fresher) global.
			if err := e.idx.InstallAll(e.flatPages(), m.Roots, m.Global); err != nil {
				return nil
			}
		}
	}
	e.stats.Pushes++
	ack := &wire.EBStateAck{Epoch: m.Epoch}
	ack.EdgeSig = wcrypto.SignMsg(e.key, ack)
	return []wire.Envelope{{From: e.cfg.ID, To: e.cfg.Cloud, Msg: ack}}
}

func (e *Edge) flatPages() []wire.Page {
	var out []wire.Page
	for lvl := 1; lvl <= e.idx.Levels(); lvl++ {
		out = append(out, e.idx.Pages(lvl)...)
	}
	return out
}

// handleScan serves the same proof-carrying read protocol as the
// WedgeChain edge — scans, and gets as the scan of one key; every L0 block
// here is already certified, so responses are always Phase II
// equivalents.
func (e *Edge) handleScan(now int64, from wire.NodeID, m *wire.ScanRequest) []wire.Envelope {
	if m.Start != nil && m.End != nil && bytes.Compare(m.Start, m.End) >= 0 {
		return nil // an empty range has nothing to prove
	}
	e.stats.Scans++
	var src mlsm.L0Source
	for bid := e.l0From; bid < uint64(len(e.blocks)); bid++ {
		src.Blocks = append(src.Blocks, e.blocks[bid])
		src.Certs = append(src.Certs, e.certs[bid])
	}
	resp := scan.Assemble(m.Start, m.End, m.ReqID, src, e.idx)
	resp.EdgeSig = wcrypto.SignMsg(e.key, resp)
	return []wire.Envelope{{From: e.cfg.ID, To: from, Msg: resp}}
}

func (e *Edge) handleRead(now int64, from wire.NodeID, m *wire.ReadRequest) []wire.Envelope {
	e.stats.Reads++
	resp := &wire.ReadResponse{ReqID: m.ReqID, BID: m.BID, Ts: now}
	if m.BID < uint64(len(e.blocks)) {
		resp.OK = true
		resp.Block = e.blocks[m.BID]
		resp.HasProof = true
		resp.Proof = e.certs[m.BID]
	}
	resp.EdgeSig = wcrypto.SignMsg(e.key, resp)
	return []wire.Envelope{{From: e.cfg.ID, To: from, Msg: resp}}
}
