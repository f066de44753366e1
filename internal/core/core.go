// Package core implements WedgeChain's primary contribution: lazy
// (asynchronous) certification with data-free coordination (Sections III
// and IV of the paper).
//
// The protocol distinguishes two commitments. Phase I commit happens at the
// untrusted edge alone: the edge's signed response is a promise the client
// can later use as evidence. Phase II commit happens when the trusted cloud
// certifies the block's digest. The cloud accepts exactly one digest per
// (edge, block id) — first writer wins — so two Phase II committed views of
// the same block can never disagree (agreement), and any Phase I promise
// that contradicts the certified digest convicts the edge (detect and
// punish, rather than prevent).
//
// This package holds the pieces shared by the edge, cloud and client state
// machines: the commit-phase vocabulary, the cloud's certification table
// with equivocation detection, dispute evidence construction and
// adjudication, and the punishment registry.
package core

import (
	"bytes"
	"fmt"

	"wedgechain/internal/scan"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Phase is the commitment status of an operation.
type Phase uint8

// Commitment phases.
const (
	PhaseNone Phase = iota
	// PhaseI: committed at the untrusted edge; the client holds signed
	// evidence that convicts the edge if it lied (Definition 1).
	PhaseI
	// PhaseII: certified by the trusted cloud; no two clients can
	// disagree on the content (Definition 2).
	PhaseII
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseNone:
		return "none"
	case PhaseI:
		return "phase-I"
	case PhaseII:
		return "phase-II"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// Handler is a protocol node: a deterministic, single-threaded state
// machine driven by message delivery and time ticks. The discrete-event
// simulator and the TCP transport both drive the same Handler
// implementations, so measured behaviour and deployed
// behaviour come from identical protocol code.
type Handler interface {
	// ID returns the node's identity.
	ID() wire.NodeID
	// Receive processes one message at virtual time now (nanoseconds)
	// and returns the messages to send.
	Receive(now int64, env wire.Envelope) []wire.Envelope
	// Tick fires periodically, driving timeouts and background work.
	Tick(now int64) []wire.Envelope
}

// CertTable is the cloud's record of certified digests: at most one digest
// per (edge, block id). It detects certify-time equivocation — an edge
// submitting a second, different digest for an already-certified block.
type CertTable struct {
	digests map[wire.NodeID]map[uint64][]byte
	entries map[wire.NodeID]uint64 // certified entry count per edge
	blocks  map[wire.NodeID]uint64 // certified block count per edge
}

// NewCertTable returns an empty certification table.
func NewCertTable() *CertTable {
	return &CertTable{
		digests: make(map[wire.NodeID]map[uint64][]byte),
		entries: make(map[wire.NodeID]uint64),
		blocks:  make(map[wire.NodeID]uint64),
	}
}

// CertResult is the outcome of a certification attempt.
type CertResult uint8

// Certification outcomes.
const (
	// CertAccepted: first digest for this block id; certified.
	CertAccepted CertResult = iota
	// CertDuplicate: identical digest already certified; idempotent.
	CertDuplicate
	// CertConflict: a different digest is already certified — the edge
	// equivocated and must be punished.
	CertConflict
)

// Certify records digest for (edge, bid), applying first-writer-wins.
// Certification is data-free, so it credits no entries (AddEntries does,
// at merge time).
func (t *CertTable) Certify(edge wire.NodeID, bid uint64, digest []byte) CertResult {
	m := t.digests[edge]
	if m == nil {
		m = make(map[uint64][]byte)
		t.digests[edge] = m
	}
	if prev, ok := m[bid]; ok {
		if bytes.Equal(prev, digest) {
			return CertDuplicate
		}
		return CertConflict
	}
	m[bid] = append([]byte(nil), digest...)
	t.blocks[edge]++
	return CertAccepted
}

// Lookup returns the certified digest for (edge, bid).
func (t *CertTable) Lookup(edge wire.NodeID, bid uint64) ([]byte, bool) {
	d, ok := t.digests[edge][bid]
	return d, ok
}

// Entries returns the certified entry count for edge (gossiped LogSize).
func (t *CertTable) Entries(edge wire.NodeID) uint64 { return t.entries[edge] }

// AddEntries credits entry counts learned after certification.
// Certification is data-free — the cloud cannot see entry counts in a
// digest — so it learns them when blocks later ship for compaction.
func (t *CertTable) AddEntries(edge wire.NodeID, n uint64) { t.entries[edge] += n }

// Blocks returns the certified block count for edge.
func (t *CertTable) Blocks(edge wire.NodeID) uint64 { return t.blocks[edge] }

// Punishments records guilty verdicts. Punished edges are banned: the
// cloud stops serving them and clients stop trusting them. Per the paper's
// security model (Section II-D), identities are real-world bound, so a
// banned edge cannot re-enter under a new name.
type Punishments struct {
	banned map[wire.NodeID]string // edge -> reason
	log    []wire.Verdict
}

// NewPunishments returns an empty punishment registry.
func NewPunishments() *Punishments {
	return &Punishments{banned: make(map[wire.NodeID]string)}
}

// Punish records a guilty verdict for edge.
func (p *Punishments) Punish(v wire.Verdict) {
	if !v.Guilty {
		return
	}
	if _, ok := p.banned[v.Edge]; !ok {
		p.banned[v.Edge] = v.Reason
	}
	p.log = append(p.log, v)
}

// Banned reports whether edge has been punished, with the first reason.
func (p *Punishments) Banned(edge wire.NodeID) (string, bool) {
	r, ok := p.banned[edge]
	return r, ok
}

// Verdicts returns all recorded guilty verdicts in order.
func (p *Punishments) Verdicts() []wire.Verdict { return p.log }

// VerdictsFor returns the recorded guilty verdicts against one edge, in
// order. In a sharded deployment this scopes a conviction to the shard it
// concerns without mixing in sibling shards' histories.
func (p *Punishments) VerdictsFor(edge wire.NodeID) []wire.Verdict {
	var out []wire.Verdict
	for _, v := range p.log {
		if v.Edge == edge {
			out = append(out, v)
		}
	}
	return out
}

// BuildAddLieDispute packages a signed PutResponse — or a block-ack
// signature over a replicated or catch-up block, dressed as one — whose
// block never matched the certified digest as dispute evidence.
func BuildAddLieDispute(key wcrypto.KeyPair, edge wire.NodeID, resp *wire.PutResponse) *wire.Dispute {
	d := &wire.Dispute{
		Kind:     wire.DisputeAddLie,
		Edge:     edge,
		BID:      resp.BID,
		Evidence: wire.EncodeMessage(resp),
	}
	d.ClientSig = wcrypto.SignMsg(key, d)
	return d
}

// BuildReadLieDispute packages a signed ReadResponse whose block content
// contradicts the certified digest.
func BuildReadLieDispute(key wcrypto.KeyPair, edge wire.NodeID, resp *wire.ReadResponse) *wire.Dispute {
	d := &wire.Dispute{
		Kind:     wire.DisputeReadLie,
		Edge:     edge,
		BID:      resp.BID,
		Evidence: wire.EncodeMessage(resp),
	}
	d.ClientSig = wcrypto.SignMsg(key, d)
	return d
}

// BuildScanLieDispute packages a signed ScanResponse — a scan's or a
// get's — as dispute evidence. Two lies travel under this kind: a structurally defective completeness
// proof (the cloud re-verifies the whole proof; any defect in a signed
// proof is the edge's own), and an L0 block bid whose content contradicts
// the certified digest.
func BuildScanLieDispute(key wcrypto.KeyPair, edge wire.NodeID, bid uint64, resp *wire.ScanResponse) *wire.Dispute {
	d := &wire.Dispute{
		Kind:     wire.DisputeScanLie,
		Edge:     edge,
		BID:      bid,
		Evidence: wire.EncodeMessage(resp),
	}
	d.ClientSig = wcrypto.SignMsg(key, d)
	return d
}

// BuildOmissionDispute packages a signed not-available denial together
// with cloud gossip proving the denied block exists.
func BuildOmissionDispute(key wcrypto.KeyPair, edge wire.NodeID, denial *wire.ReadResponse, gossip *wire.Gossip) *wire.Dispute {
	d := &wire.Dispute{
		Kind:      wire.DisputeOmission,
		Edge:      edge,
		BID:       denial.BID,
		Evidence:  wire.EncodeMessage(denial),
		Evidence2: wire.EncodeMessage(gossip),
	}
	d.ClientSig = wcrypto.SignMsg(key, d)
	return d
}

// Judge adjudicates a dispute against the certification table on behalf of
// the cloud node self — inner cloud signatures inside evidence
// (certificates, signed roots) are verified against the adjudicator's own
// identity, never a guessed one. It verifies the client's signature on the
// accusation and the edge's signature on the evidence — the evidence is
// self-authenticating, so a client cannot frame an edge, and an edge cannot
// repudiate its promises.
//
// Conviction rules:
//   - add-lie / read-lie: guilty when the evidence block's digest differs
//     from the certified digest, or when no digest was ever certified for
//     that block id (the edge promised a block it never reported; disputes
//     arrive only after the client's generous proof timeout).
//   - scan-lie (a get is a point-range scan): guilty when the response
//     fails the read verifier the client ran (scan.Verify, freshness
//     exempt), or when the disputed block's slice folds to a digest the
//     table refutes.
//   - omission: guilty when the edge's signed denial is timestamped at or
//     after cloud gossip covering the denied block.
//
// Certified state is resolved under chain, while the accused node d.Edge
// remains the evidence signer: in a replica group, blocks, certificates,
// roots and gossip are keyed by the chain (the shard's stable identity),
// yet the promise under judgment was signed by whichever node served it —
// leader today, a promoted follower tomorrow. An unreplicated shard's chain
// is d.Edge.
func Judge(reg *wcrypto.Registry, certs *CertTable, self, from wire.NodeID, d *wire.Dispute, chain wire.NodeID) wire.Verdict {
	verdict := wire.Verdict{Edge: d.Edge, BID: d.BID, Kind: d.Kind}
	if err := wcrypto.VerifyMsg(reg, from, d, d.ClientSig); err != nil {
		verdict.Reason = "dispute rejected: bad client signature"
		return verdict
	}
	ev, err := wire.DecodeMessage(d.Evidence)
	if err != nil {
		verdict.Reason = "dispute rejected: undecodable evidence"
		return verdict
	}
	switch d.Kind {
	case wire.DisputeAddLie:
		resp, ok := ev.(*wire.PutResponse)
		if !ok {
			verdict.Reason = "dispute rejected: evidence is not a put-response"
			return verdict
		}
		if err := wcrypto.VerifyMsg(reg, d.Edge, resp, resp.EdgeSig); err != nil {
			verdict.Reason = "dispute rejected: evidence not signed by edge"
			return verdict
		}
		if resp.BID != d.BID {
			verdict.Reason = "dispute rejected: evidence bid mismatch"
			return verdict
		}
		return judgeDigest(certs, chain, verdict, &resp.Block)
	case wire.DisputeReadLie:
		resp, ok := ev.(*wire.ReadResponse)
		if !ok || !resp.OK {
			verdict.Reason = "dispute rejected: evidence is not a served read"
			return verdict
		}
		if err := wcrypto.VerifyMsg(reg, d.Edge, resp, resp.EdgeSig); err != nil {
			verdict.Reason = "dispute rejected: evidence not signed by edge"
			return verdict
		}
		if resp.BID != d.BID {
			verdict.Reason = "dispute rejected: evidence bid mismatch"
			return verdict
		}
		return judgeDigest(certs, chain, verdict, &resp.Block)
	case wire.DisputeScanLie:
		resp, ok := ev.(*wire.ScanResponse)
		if !ok {
			verdict.Reason = "dispute rejected: evidence is not a scan-response"
			return verdict
		}
		if err := wcrypto.VerifyMsg(reg, d.Edge, resp, resp.EdgeSig); err != nil {
			verdict.Reason = "dispute rejected: evidence not signed by edge"
			return verdict
		}
		// Structural re-verification with the same code the client ran.
		// The response is edge-signed and self-contained (it echoes the
		// scanned range), so any structural defect — omission, injection,
		// boundary truncation, bad Merkle fold — is the edge's own lie.
		// Freshness is exempt: staleness is time-relative, not provable
		// after the fact (FreshnessWindow 0 disables the check).
		if _, err := scan.Verify(scan.Params{Reg: reg, Edge: chain, Cloud: self}, resp); err != nil {
			verdict.Guilty = true
			verdict.Reason = fmt.Sprintf("scan proof does not verify: %v", err)
			return verdict
		}
		// The proof holds up structurally; the accusation must then name
		// an L0 block whose served slice the certified digest refutes.
		if v, ok := judgeSlice(certs, chain, verdict, resp.Proof.L0Pruned); ok {
			return v
		}
		verdict.Reason = "not guilty: scan proof verifies and disputed block not in evidence"
		return verdict
	case wire.DisputeOmission:
		denial, ok := ev.(*wire.ReadResponse)
		if !ok || denial.OK {
			verdict.Reason = "dispute rejected: evidence is not a denial"
			return verdict
		}
		if err := wcrypto.VerifyMsg(reg, d.Edge, denial, denial.EdgeSig); err != nil {
			verdict.Reason = "dispute rejected: evidence not signed by edge"
			return verdict
		}
		ev2, err := wire.DecodeMessage(d.Evidence2)
		if err != nil {
			verdict.Reason = "dispute rejected: undecodable gossip evidence"
			return verdict
		}
		gossip, ok := ev2.(*wire.Gossip)
		if !ok {
			verdict.Reason = "dispute rejected: second evidence is not gossip"
			return verdict
		}
		// Gossip must carry the adjudicating cloud's own signature, like
		// every other inner cloud statement the Judge accepts.
		if err := wcrypto.VerifyMsg(reg, self, gossip, gossip.CloudSig); err != nil {
			verdict.Reason = "dispute rejected: gossip not signed by cloud"
			return verdict
		}
		if gossip.Edge != chain {
			verdict.Reason = "dispute rejected: gossip is for another edge"
			return verdict
		}
		if denial.BID >= gossip.Blocks {
			verdict.Reason = "not guilty: denied block not covered by gossip"
			return verdict
		}
		if denial.Ts < gossip.Ts {
			verdict.Reason = "not guilty: denial predates gossip"
			return verdict
		}
		verdict.Guilty = true
		verdict.Reason = fmt.Sprintf("omission: denied block %d after gossip certified %d blocks", denial.BID, gossip.Blocks)
		return verdict
	default:
		verdict.Reason = "dispute rejected: unknown kind"
		return verdict
	}
}

// judgeSlice finds the disputed block in a window that already verified
// and compares the digest its slice folds to against the certified one.
func judgeSlice(certs *CertTable, chain wire.NodeID, verdict wire.Verdict, window []wire.L0Slice) (wire.Verdict, bool) {
	for i := range window {
		if window[i].ID != verdict.BID {
			continue
		}
		digest, err := window[i].Digest()
		if err != nil {
			verdict.Guilty = true
			verdict.Reason = fmt.Sprintf("block %d slice does not fold: %v", verdict.BID, err)
			return verdict, true
		}
		return judgeClaimedDigest(certs, chain, verdict, digest), true
	}
	return verdict, false
}

// judgeDigest compares evidence block content against the certified digest.
func judgeDigest(certs *CertTable, chain wire.NodeID, verdict wire.Verdict, blk *wire.Block) wire.Verdict {
	return judgeClaimedDigest(certs, chain, verdict, wcrypto.RecomputedBlockDigest(blk))
}

// judgeClaimedDigest compares a digest recomputed from evidence — a whole
// block's content or what a slice folds to — against the certified digest
// for (chain, bid).
func judgeClaimedDigest(certs *CertTable, chain wire.NodeID, verdict wire.Verdict, got []byte) wire.Verdict {
	certified, ok := certs.Lookup(chain, verdict.BID)
	if !ok {
		verdict.Guilty = true
		verdict.Reason = fmt.Sprintf("block %d promised but never certified", verdict.BID)
		return verdict
	}
	if !bytes.Equal(got, certified) {
		verdict.Guilty = true
		verdict.Reason = fmt.Sprintf("block %d content contradicts certified digest", verdict.BID)
		return verdict
	}
	verdict.Reason = "not guilty: evidence matches certified digest"
	return verdict
}
