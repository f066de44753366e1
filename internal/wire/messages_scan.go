package wire

// Messages of the verified range-scan protocol: multi-key reads over the
// LSMerkle index with completeness proofs. A scan response does not carry a
// result list at all — it carries evidence (L0 blocks, per-level page-range
// proofs, signed roots) from which the client *derives* the result, so the
// edge cannot contradict its own proof, only present a defective one; a
// defective signed proof is self-incriminating dispute evidence.

// ScanRequest asks an edge for every certified key-value pair in the
// half-open key range [Start, End). Nil Start means -infinity; nil End
// means +infinity. Limit is a client-side truncation hint: the edge still
// proves the full range (completeness is not negotiable), and the client
// truncates the derived result.
type ScanRequest struct {
	Start []byte
	End   []byte
	Limit uint32
	ReqID uint64
}

// MsgKind implements Message.
func (*ScanRequest) MsgKind() Kind { return KindScanRequest }

// EncodeTo implements Message.
func (m *ScanRequest) EncodeTo(e *Encoder) {
	e.OptBlob(m.Start)
	e.OptBlob(m.End)
	e.U32(m.Limit)
	e.U64(m.ReqID)
}

// DecodeFrom implements Message.
func (m *ScanRequest) DecodeFrom(d *Decoder) {
	m.Start = d.OptBlob()
	m.End = d.OptBlob()
	m.Limit = d.U32()
	m.ReqID = d.U64()
}

// LevelRangeProof proves that Pages is exactly the contiguous run of
// pages at leaf positions [First, First+len(Pages)) of a Width-leaf level
// tree: the pages themselves plus the left and right flank sibling paths
// of one multi-leaf Merkle range proof (merkle.VerifyRange). Because every
// page leaf commits the page's [Lo, Hi) bounds, a verified run whose first
// page contains the scan's start and whose last page covers its end proves
// no certified entry in between was omitted.
type LevelRangeProof struct {
	Level uint32
	First uint32 // leaf index of Pages[0] in the level tree
	Width uint32 // total leaves in the level tree
	Pages []Page
	Left  [][]byte // left flank sibling hashes, bottom-up
	Right [][]byte // right flank sibling hashes, bottom-up
}

// EncodeTo appends the proof's canonical encoding.
func (lp *LevelRangeProof) EncodeTo(e *Encoder) {
	e.U32(lp.Level)
	e.U32(lp.First)
	e.U32(lp.Width)
	e.U32(uint32(len(lp.Pages)))
	for i := range lp.Pages {
		lp.Pages[i].EncodeTo(e)
	}
	e.U32(uint32(len(lp.Left)))
	for _, h := range lp.Left {
		e.Blob(h)
	}
	e.U32(uint32(len(lp.Right)))
	for _, h := range lp.Right {
		e.Blob(h)
	}
}

// DecodeFrom reads the proof.
func (lp *LevelRangeProof) DecodeFrom(d *Decoder) {
	lp.Level = d.U32()
	lp.First = d.U32()
	lp.Width = d.U32()
	lp.Pages = decodeSlice(d, minPageSize, (*Page).DecodeFrom)
	lp.Left = decodeBlobs(d)
	lp.Right = decodeBlobs(d)
}

// ScanProof is the complete evidence attached to a scan response:
//
//   - every uncompacted L0 page (block) that might overlap the range,
//     with its Phase II certificate where available (missing certificates
//     put the scan in Phase I);
//   - a pruned reference (digest-committed key summary, no entries) for
//     every window block whose summary provably excludes the range, so
//     the window stays contiguous without re-shipping irrelevant blocks;
//   - for each non-empty level, one page-range proof covering every page
//     that overlaps [Start, End), including the boundary pages whose
//     committed bounds prove completeness at both ends;
//   - all level roots, so the client can recompute the global root;
//   - the cloud-signed global root with its freshness timestamp.
type ScanProof struct {
	L0Blocks      []Block
	L0Certs       []BlockProof // aligned with L0Blocks; empty CloudSig = uncertified
	L0Pruned      []PrunedBlock
	L0PrunedCerts []BlockProof // aligned with L0Pruned; empty CloudSig = uncertified
	Levels        []LevelRangeProof
	Roots         [][]byte // level roots 1..n in order
	Global        SignedRoot
}

// EncodeTo appends the proof's canonical encoding.
func (sp *ScanProof) EncodeTo(e *Encoder) {
	e.U32(uint32(len(sp.L0Blocks)))
	for i := range sp.L0Blocks {
		sp.L0Blocks[i].EncodeTo(e)
	}
	e.U32(uint32(len(sp.L0Certs)))
	for i := range sp.L0Certs {
		sp.L0Certs[i].EncodeTo(e)
	}
	appendPrunedWindow(e, sp.L0Pruned, sp.L0PrunedCerts)
	e.U32(uint32(len(sp.Levels)))
	for i := range sp.Levels {
		sp.Levels[i].EncodeTo(e)
	}
	e.U32(uint32(len(sp.Roots)))
	for _, r := range sp.Roots {
		e.Blob(r)
	}
	sp.Global.EncodeTo(e)
}

// AppendSignable appends the proof's signable form, in which every L0
// block — full or pruned — is represented by its 32-byte digest instead
// of its body: the same size-independent signing scheme the block
// acknowledgements use. The full and pruned digest sections are distinct,
// so the signature binds the representation, not just the content (see
// GetProof.AppendSignable). digests supplies the per-block digests in
// L0Blocks order (the edge's cut-time cache); nil recomputes each from
// the block fields, which is what verifiers must do so a poisoned cache
// can never satisfy the check.
func (sp *ScanProof) AppendSignable(e *Encoder, digests [][]byte) {
	appendL0Digests(e, sp.L0Blocks, digests)
	e.U32(uint32(len(sp.L0Certs)))
	for i := range sp.L0Certs {
		sp.L0Certs[i].EncodeTo(e)
	}
	appendPrunedSignable(e, sp.L0Pruned, sp.L0PrunedCerts)
	e.U32(uint32(len(sp.Levels)))
	for i := range sp.Levels {
		sp.Levels[i].EncodeTo(e)
	}
	e.U32(uint32(len(sp.Roots)))
	for _, r := range sp.Roots {
		e.Blob(r)
	}
	sp.Global.EncodeTo(e)
}

// appendL0Digests appends the digest list standing in for L0 block bodies
// inside signable bodies (shared by GetProof and ScanProof).
func appendL0Digests(e *Encoder, blocks []Block, digests [][]byte) {
	e.U32(uint32(len(blocks)))
	for i := range blocks {
		if digests != nil {
			e.Blob(digests[i])
		} else {
			e.Blob(blocks[i].BodyDigest())
		}
	}
}

// appendPrunedWindow appends the wire encoding of a proof's pruned window
// section (shared by GetProof and ScanProof).
func appendPrunedWindow(e *Encoder, pruned []PrunedBlock, certs []BlockProof) {
	e.U32(uint32(len(pruned)))
	for i := range pruned {
		pruned[i].EncodeTo(e)
	}
	e.U32(uint32(len(certs)))
	for i := range certs {
		certs[i].EncodeTo(e)
	}
}

// appendPrunedSignable appends the signable form of a proof's pruned
// window: each reference stood in by its recomputed claimed digest (the
// preimage hash is a few dozen bytes — no caching needed), followed by
// the aligned certificates.
func appendPrunedSignable(e *Encoder, pruned []PrunedBlock, certs []BlockProof) {
	e.U32(uint32(len(pruned)))
	for i := range pruned {
		e.Blob(pruned[i].Digest())
	}
	e.U32(uint32(len(certs)))
	for i := range certs {
		certs[i].EncodeTo(e)
	}
}

// DecodeFrom reads the proof.
func (sp *ScanProof) DecodeFrom(d *Decoder) {
	sp.L0Blocks = decodeSlice(d, minBlockSize, (*Block).DecodeFrom)
	sp.L0Certs = decodeSlice(d, minBlockProofSize, (*BlockProof).DecodeFrom)
	sp.L0Pruned = decodeSlice(d, minPrunedBlockSize, (*PrunedBlock).DecodeFrom)
	sp.L0PrunedCerts = decodeSlice(d, minBlockProofSize, (*BlockProof).DecodeFrom)
	sp.Levels = decodeSlice(d, minLevelRangeProofSize, (*LevelRangeProof).DecodeFrom)
	sp.Roots = decodeBlobs(d)
	sp.Global.DecodeFrom(d)
}

// ScanResponse answers a ScanRequest with the full ScanProof. Start and
// End echo the request bounds under the edge's signature, making the
// response self-contained dispute evidence: the cloud can re-verify the
// whole proof against the signed bounds without ever seeing the request.
type ScanResponse struct {
	ReqID   uint64
	Start   []byte
	End     []byte
	Proof   ScanProof
	EdgeSig []byte

	encSize int // cached encoded size; see sizeMemoized
}

// MsgKind implements Message.
func (*ScanResponse) MsgKind() Kind { return KindScanResponse }

// EncodeTo implements Message.
func (m *ScanResponse) EncodeTo(e *Encoder) {
	e.U64(m.ReqID)
	e.OptBlob(m.Start)
	e.OptBlob(m.End)
	m.Proof.EncodeTo(e)
	e.Blob(m.EdgeSig)
}

// AppendBody appends the signable body, with L0 blocks represented by
// recomputed digests (size-independent signing; see ScanProof.AppendSignable).
func (m *ScanResponse) AppendBody(e *Encoder) {
	m.AppendBodyWithDigests(e, nil)
}

// AppendBodyWithDigests appends the signable body using L0 digests the
// caller already holds — the edge's hot path, where every served block's
// digest was cached at block cut. Verifiers never use this entry point.
func (m *ScanResponse) AppendBodyWithDigests(e *Encoder, digests [][]byte) {
	e.U64(m.ReqID)
	e.OptBlob(m.Start)
	e.OptBlob(m.End)
	m.Proof.AppendSignable(e, digests)
}

// DecodeFrom implements Message.
func (m *ScanResponse) DecodeFrom(d *Decoder) {
	m.ReqID = d.U64()
	m.Start = d.OptBlob()
	m.End = d.OptBlob()
	m.Proof.DecodeFrom(d)
	m.EdgeSig = d.Blob()
	m.encSize = 0
}

func (m *ScanResponse) encodedSizeMemo() int { return m.encSize }

func (m *ScanResponse) memoizeEncodedSize(n int) {
	for i := range m.Proof.L0Blocks {
		if !m.Proof.L0Blocks[i].frozen() {
			return
		}
	}
	m.encSize = n
}
