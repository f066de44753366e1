package wire

// Messages of the verified range-scan protocol: multi-key reads over the
// LSMerkle index with completeness proofs. A scan response does not carry a
// result list at all — it carries evidence (L0 slices, per-level page-range
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
	appendBlobs(e, lp.Left)
	appendBlobs(e, lp.Right)
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
//   - one slice per block of the uncompacted L0 window, consecutive ids:
//     the rows whose keys fall in the range, the leaf on either side, the
//     range proof folding them to the block's digest, and the block's
//     Phase II certificate where available (a missing one puts the scan in
//     Phase I);
//   - for each non-empty level, one page-range proof covering every page
//     that overlaps [Start, End), including the boundary pages whose
//     committed bounds prove completeness at both ends;
//   - all level roots, so the client can recompute the global root;
//   - the cloud-signed global root with its freshness timestamp.
//
// L0 and the levels prove the same way: in-range rows, the two flanks
// that bracket them, one Merkle range proof.
type ScanProof struct {
	L0Pruned []L0Slice // the window, one slice per block (named as in GetProof)
	Levels   []LevelRangeProof
	Roots    [][]byte // level roots 1..n in order
	Global   SignedRoot
}

// EncodeTo appends the proof's canonical encoding.
func (sp *ScanProof) EncodeTo(e *Encoder) {
	appendL0Window(e, sp.L0Pruned)
	e.U32(uint32(len(sp.Levels)))
	for i := range sp.Levels {
		sp.Levels[i].EncodeTo(e)
	}
	appendBlobs(e, sp.Roots)
	sp.Global.EncodeTo(e)
}

// DecodeFrom reads the proof.
func (sp *ScanProof) DecodeFrom(d *Decoder) {
	sp.L0Pruned = decodeSlice(d, minL0SliceSize, (*L0Slice).DecodeFrom)
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
}

// MsgKind implements Message.
func (*ScanResponse) MsgKind() Kind { return KindScanResponse }

// EncodeTo implements Message.
func (m *ScanResponse) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.EdgeSig)
}

// AppendBody appends the signable body: every field but the signature
// (see GetResponse.AppendBody for why slices are signed as shipped).
func (m *ScanResponse) AppendBody(e *Encoder) {
	e.U64(m.ReqID)
	e.OptBlob(m.Start)
	e.OptBlob(m.End)
	m.Proof.EncodeTo(e)
}

// DecodeFrom implements Message.
func (m *ScanResponse) DecodeFrom(d *Decoder) {
	m.ReqID = d.U64()
	m.Start = d.OptBlob()
	m.End = d.OptBlob()
	m.Proof.DecodeFrom(d)
	m.EdgeSig = d.Blob()
}
