package wire

// Block key summaries and pruned block references — the evidence-pruning
// vocabulary of the read protocol.
//
// Every block digest commits, besides the entries, a small summary of the
// keys the block writes: the sorted [MinKey, MaxKey] interval plus a set
// of per-key fingerprints. Because the digest is what certification and
// the block acknowledgements sign, the summary inherits their integrity:
// an edge that commits a summary contradicting its own entries produces a
// digest that no honest recomputation matches, which the existing lazy
// machinery (write acks, merge shipping, dispute adjudication) convicts.
//
// A read response may then replace any L0 block whose summary provably
// excludes the requested key or range with a PrunedBlock — the digest
// preimage minus the entries. Verifiers rebind the pruned fields to the
// certified (or pinned) digest and check the exclusion themselves, so the
// edge saves the bandwidth without gaining any new way to lie.

import (
	"bytes"
	"crypto/sha256"
	"slices"
	"sort"
)

// BlockSummary is the key summary committed under a block's digest: how
// many keyed entries the block holds, the smallest and largest key, and
// the sorted, deduplicated 32-bit fingerprint of every key. Blocks with
// Keys == 0 (pure log records, reservation no-ops) write no key at all.
//
// The summary is a pure function of the block's entries
// (ComputeBlockSummary); it is never an independent field of Block, so
// there is nothing to keep consistent — a digest either derives from the
// entries or it is somebody's lie.
type BlockSummary struct {
	Keys   uint32 // number of keyed entries summarized
	MinKey []byte // smallest key; nil when Keys == 0
	MaxKey []byte // largest key; nil when Keys == 0
	Fps    []uint32
}

// KeyFingerprint maps a key to its 32-bit summary fingerprint (FNV-1a,
// the same non-cryptographic hash the shard partitioner uses). The
// fingerprint needs no cryptographic strength: exclusion soundness rests
// on the digest committing the honestly derived set — an edge cannot
// remove a present key's fingerprint without changing the digest — and a
// collision merely costs a pruning opportunity (the block ships in full),
// never a wrong exclusion. Runs on every block-digest recompute, so it
// must stay cheap.
func KeyFingerprint(key []byte) uint32 {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for _, b := range key {
		h ^= uint32(b)
		h *= prime32
	}
	return h
}

// ComputeBlockSummary derives the key summary from a block's entries. The
// result is canonical: fingerprints sorted ascending and deduplicated, so
// two honest parties always derive byte-identical summaries (and hence
// digests) from the same entries.
func ComputeBlockSummary(entries []Entry) BlockSummary {
	s := BlockSummary{Fps: make([]uint32, 0, len(entries))}
	for i := range entries {
		k := entries[i].Key
		if len(k) == 0 {
			continue
		}
		if s.Keys == 0 || bytes.Compare(k, s.MinKey) < 0 {
			s.MinKey = k
		}
		if s.Keys == 0 || bytes.Compare(k, s.MaxKey) > 0 {
			s.MaxKey = k
		}
		s.Keys++
		s.Fps = append(s.Fps, KeyFingerprint(k))
	}
	if len(s.Fps) > 1 {
		slices.Sort(s.Fps)
		s.Fps = slices.Compact(s.Fps)
	}
	if len(s.Fps) == 0 {
		s.Fps = nil
	}
	return s
}

// AppendTo appends the summary's canonical encoding — shared by the block
// digest preimage and the PrunedBlock wire encoding, which is exactly what
// lets a verifier rebind a shipped summary to a digest.
func (s *BlockSummary) AppendTo(e *Encoder) {
	e.U32(s.Keys)
	e.OptBlob(s.MinKey)
	e.OptBlob(s.MaxKey)
	e.U32(uint32(len(s.Fps)))
	for _, fp := range s.Fps {
		e.U32(fp)
	}
}

// DecodeFrom reads the summary.
func (s *BlockSummary) DecodeFrom(d *Decoder) {
	s.Keys = d.U32()
	s.MinKey = d.OptBlob()
	s.MaxKey = d.OptBlob()
	s.Fps = decodeSlice(d, minBlobSize, func(fp *uint32, d *Decoder) { *fp = d.U32() })
}

// ExcludesKey reports whether a block carrying this summary provably
// cannot contain key: the block writes no keys at all, the key falls
// outside the committed [MinKey, MaxKey] interval, or its fingerprint is
// absent from the committed set. Sound for honestly derived summaries —
// and a dishonest summary never survives the digest binding.
func (s *BlockSummary) ExcludesKey(key []byte) bool {
	if s.Keys == 0 {
		return true
	}
	if bytes.Compare(key, s.MinKey) < 0 || bytes.Compare(key, s.MaxKey) > 0 {
		return true
	}
	fp := KeyFingerprint(key)
	i := sort.Search(len(s.Fps), func(i int) bool { return s.Fps[i] >= fp })
	return i >= len(s.Fps) || s.Fps[i] != fp
}

// ExcludesRange reports whether a block carrying this summary provably
// cannot contain any key of the half-open range [start, end) — the block
// writes no keys, or its committed key interval is disjoint from the
// range (nil start/end mean ±infinity). Fingerprints cannot prove range
// emptiness, so only the interval is consulted.
func (s *BlockSummary) ExcludesRange(start, end []byte) bool {
	if s.Keys == 0 {
		return true
	}
	if end != nil && bytes.Compare(s.MinKey, end) >= 0 {
		return true
	}
	if start != nil && bytes.Compare(s.MaxKey, start) < 0 {
		return true
	}
	return false
}

// PrunedBlock stands in for an L0 block a read response excluded: the
// digest preimage without the entries. Verifiers recompute the block
// digest from these fields alone (Digest) and bind it to the certificate
// shipped alongside — or pin it against the later block proof — exactly
// as they would a full block, then check that Summary excludes what was
// asked. A summary tampered on the wire recomputes to a digest nothing
// certifies; a truthful summary that fails to exclude is an unsound prune;
// both defects convict the signing edge.
type PrunedBlock struct {
	Edge        NodeID
	ID          uint64
	StartPos    uint64
	Ts          int64
	EntriesHash []byte // SHA-256 of the entries' canonical encoding
	Summary     BlockSummary
}

// EncodeTo appends the pruned reference's canonical encoding.
func (pb *PrunedBlock) EncodeTo(e *Encoder) {
	e.ID(pb.Edge)
	e.U64(pb.ID)
	e.U64(pb.StartPos)
	e.I64(pb.Ts)
	e.Blob(pb.EntriesHash)
	pb.Summary.AppendTo(e)
}

// DecodeFrom reads the pruned reference.
func (pb *PrunedBlock) DecodeFrom(d *Decoder) {
	pb.Edge = d.ID()
	pb.ID = d.U64()
	pb.StartPos = d.U64()
	pb.Ts = d.I64()
	pb.EntriesHash = d.Blob()
	pb.Summary.DecodeFrom(d)
}

// Digest recomputes the block digest this pruned reference claims: the
// same preimage a full block hashes to, assembled from the shipped fields.
// Equality with a certified digest proves the summary (and the exclusion
// it licenses) was committed at block cut.
func (pb *PrunedBlock) Digest() []byte {
	e := GetEncoder()
	appendBlockDigestPreimage(e, pb.Edge, pb.ID, pb.StartPos, pb.Ts, &pb.Summary, pb.EntriesHash)
	sum := sha256.Sum256(e.Bytes())
	PutEncoder(e)
	return sum[:]
}

// PruneBlock builds the pruned reference for a block, reusing the summary
// and entries hash cached at Freeze when available (the edge's serve path)
// and deriving them from the entries otherwise.
func PruneBlock(b *Block) PrunedBlock {
	s, eh, ok := b.FrozenSummary()
	if !ok {
		s = ComputeBlockSummary(b.Entries)
		eh = b.computeEntriesHash()
	}
	return PrunedBlock{
		Edge:        b.Edge,
		ID:          b.ID,
		StartPos:    b.StartPos,
		Ts:          b.Ts,
		EntriesHash: eh,
		Summary:     s,
	}
}

// appendBlockDigestPreimage appends the block digest preimage: header
// fields, the key summary, and the hash of the encoded entries. Full
// blocks derive the summary and entries hash from their entries; pruned
// references carry them explicitly. The split is what makes the digest
// recomputable without the entries — the property pruning rests on.
func appendBlockDigestPreimage(e *Encoder, edge NodeID, id, startPos uint64, ts int64, s *BlockSummary, entriesHash []byte) {
	e.ID(edge)
	e.U64(id)
	e.U64(startPos)
	e.I64(ts)
	s.AppendTo(e)
	e.Blob(entriesHash)
}
