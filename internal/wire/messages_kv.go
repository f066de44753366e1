package wire

// The write path and the LSMerkle key-value protocol (Section V).

// PutRequest asks an edge node to append a signed entry to its log — the
// one write message. An entry with a key is a key-value write through the
// LSMerkle index (its log block doubles as an L0 page); an entry without
// one is a plain log append, and one with Pos set lands in a reserved
// position. The entry carries the client signature, so the request needs
// none.
type PutRequest struct {
	Entry Entry
}

// MsgKind implements Message.
func (*PutRequest) MsgKind() Kind { return KindPutRequest }

// EncodeTo implements Message.
func (m *PutRequest) EncodeTo(e *Encoder) { m.Entry.EncodeTo(e) }

// DecodeFrom implements Message.
func (m *PutRequest) DecodeFrom(d *Decoder) { m.Entry.DecodeFrom(d) }

// PutResponse is the edge node's signed promise that the client's entries
// are part of block BID. It is the client's Phase I commit evidence: if the
// certified block BID turns out to differ, this message convicts the edge.
type PutResponse struct {
	BID     uint64
	Block   Block
	EdgeSig []byte

	encSize int // cached encoded size; see sizeMemoized
}

// MsgKind implements Message.
func (*PutResponse) MsgKind() Kind { return KindPutResponse }

// EncodeTo implements Message.
func (m *PutResponse) EncodeTo(e *Encoder) {
	e.U64(m.BID)
	m.Block.EncodeTo(e)
	e.Blob(m.EdgeSig)
}

// AppendBody appends the signable body: the size-independent block-ack
// body (BID + block digest), not the shipped encoding.
func (m *PutResponse) AppendBody(e *Encoder) {
	AppendBlockAckBody(e, m.BID, m.Block.BodyDigest())
}

// DecodeFrom implements Message.
func (m *PutResponse) DecodeFrom(d *Decoder) {
	m.BID = d.U64()
	m.Block.DecodeFrom(d)
	m.EdgeSig = d.Blob()
	m.encSize = 0
}

func (m *PutResponse) encodedSizeMemo() int { return m.encSize }

func (m *PutResponse) memoizeEncodedSize(n int) {
	if m.Block.frozen() {
		m.encSize = n
	}
}

// GetRequest looks a key up in the edge's LSMerkle index.
type GetRequest struct {
	Key   []byte
	ReqID uint64
}

// MsgKind implements Message.
func (*GetRequest) MsgKind() Kind { return KindGetRequest }

// EncodeTo implements Message.
func (m *GetRequest) EncodeTo(e *Encoder) {
	e.Blob(m.Key)
	e.U64(m.ReqID)
}

// DecodeFrom implements Message.
func (m *GetRequest) DecodeFrom(d *Decoder) {
	m.Key = d.Blob()
	m.ReqID = d.U64()
}

// LevelProof proves one page's membership in its level's Merkle tree: the
// page itself (cut to the key it answers for), its leaf index, and the
// audit path (bottom-up sibling hashes). The client folds the page to its
// leaf and the path to the level root.
type LevelProof struct {
	Level uint32
	Page  Page
	Index uint32
	Width uint32 // total leaves in the level tree, needed to fold the path
	Path  [][]byte
}

// EncodeTo appends the proof's canonical encoding.
func (lp *LevelProof) EncodeTo(e *Encoder) {
	e.U32(lp.Level)
	lp.Page.EncodeTo(e)
	e.U32(lp.Index)
	e.U32(lp.Width)
	appendBlobs(e, lp.Path)
}

// Range returns the proof as the one-page LevelRangeProof that gets and
// scans share a verifier over: a leaf's audit path is a range proof whose
// flanks are the siblings to its left and to its right. Path elements the
// tree has no place for land past the right flank, where the fold refuses
// them.
func (lp *LevelProof) Range() LevelRangeProof {
	r := LevelRangeProof{Level: lp.Level, First: lp.Index, Width: lp.Width, Pages: []Page{lp.Page}}
	path := lp.Path
	for i, w := lp.Index, lp.Width; w > 1 && len(path) > 0; i, w = i/2, (w+1)/2 {
		switch {
		case i%2 == 1:
			r.Left, path = append(r.Left, path[0]), path[1:]
		case i+1 < w:
			r.Right, path = append(r.Right, path[0]), path[1:]
		}
	}
	r.Right = append(r.Right, path...)
	return r
}

// DecodeFrom reads the proof.
func (lp *LevelProof) DecodeFrom(d *Decoder) {
	lp.Level = d.U32()
	lp.Page.DecodeFrom(d)
	lp.Index = d.U32()
	lp.Width = d.U32()
	lp.Path = decodeBlobs(d)
}

// GetProof is the complete authenticity evidence attached to a get
// response, per Section V-B "Reading":
//
//   - one slice per block of the uncompacted L0 window, consecutive ids:
//     the rows holding the key (none on a miss), the leaf on either side,
//     and the range proof folding them to the block's digest; the slice
//     carries the block's Phase II certificate where available (a missing
//     one puts the read in Phase I commit);
//   - for each level between L1 and the level that resolved the key, the
//     single intersecting page, cut to the key's record or the two that
//     bracket it, with its Merkle audit path;
//   - all level roots, so the client can recompute the global root;
//   - the cloud-signed global root with its freshness timestamp.
type GetProof struct {
	// L0Blocks is always nil and never encoded: it waits for the
	// [benchmark] follow-up that stops benchmark/load.go taking its length.
	L0Blocks []Block
	L0Pruned []L0Slice // the window, one slice per block (the name predates slices; the benchmark harness reads its length)
	Levels   []LevelProof
	Roots    [][]byte // level roots 1..n in order
	Global   SignedRoot
}

// EncodeTo appends the proof's canonical encoding.
func (gp *GetProof) EncodeTo(e *Encoder) {
	appendL0Window(e, gp.L0Pruned)
	e.U32(uint32(len(gp.Levels)))
	for i := range gp.Levels {
		gp.Levels[i].EncodeTo(e)
	}
	appendBlobs(e, gp.Roots)
	gp.Global.EncodeTo(e)
}

// appendL0Window appends a proof's L0 window (shared by GetProof and
// ScanProof).
func appendL0Window(e *Encoder, window []L0Slice) {
	e.U32(uint32(len(window)))
	for i := range window {
		window[i].EncodeTo(e)
	}
}

// DecodeFrom reads the proof.
func (gp *GetProof) DecodeFrom(d *Decoder) {
	gp.L0Blocks = nil
	gp.L0Pruned = decodeSlice(d, minL0SliceSize, (*L0Slice).DecodeFrom)
	gp.Levels = decodeSlice(d, minLevelProofSize, (*LevelProof).DecodeFrom)
	gp.Roots = decodeBlobs(d)
	gp.Global.DecodeFrom(d)
}

// GetResponse answers a GetRequest with the value (or a verifiable
// non-existence statement) plus the full GetProof. Key echoes the
// requested key under the edge's signature, making the response
// self-contained dispute evidence: the cloud can re-run the verification
// against the signed key without ever seeing the request (the same role
// Start/End play on scan responses).
type GetResponse struct {
	ReqID   uint64
	Key     []byte
	Found   bool
	Value   []byte
	Ver     uint64
	Proof   GetProof
	EdgeSig []byte
}

// MsgKind implements Message.
func (*GetResponse) MsgKind() Kind { return KindGetResponse }

// EncodeTo implements Message.
func (m *GetResponse) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.EdgeSig)
}

// AppendBody appends the signable body: every field but the signature.
// The slices are signed as shipped — a slice's digest alone would let
// anyone swap in another honest slice of the same block, cut for a
// different key, and frame the edge with a window that no longer brackets
// the request.
func (m *GetResponse) AppendBody(e *Encoder) {
	e.U64(m.ReqID)
	e.Blob(m.Key)
	e.Bool(m.Found)
	e.Blob(m.Value)
	e.U64(m.Ver)
	m.Proof.EncodeTo(e)
}

// DecodeFrom implements Message.
func (m *GetResponse) DecodeFrom(d *Decoder) {
	m.ReqID = d.U64()
	m.Key = d.Blob()
	m.Found = d.Bool()
	m.Value = d.Blob()
	m.Ver = d.U64()
	m.Proof.DecodeFrom(d)
	m.EdgeSig = d.Blob()
}

// MergeRequest ships the pages undergoing an LSMerkle compaction from the
// edge to the cloud. For FromLevel == 0 the sources are log blocks (L0
// pages); otherwise they are the pages of FromLevel. DstPages are the
// current pages of FromLevel+1. The cloud verifies everything against its
// own certified digests and the hashes it kept of its levels before
// merging.
type MergeRequest struct {
	Edge      NodeID
	ReqID     uint64
	FromLevel uint32
	L0Blocks  []Block
	SrcPages  []Page
	DstPages  []Page
	EdgeSig   []byte
}

// MsgKind implements Message.
func (*MergeRequest) MsgKind() Kind { return KindMergeRequest }

// EncodeTo implements Message.
func (m *MergeRequest) EncodeTo(e *Encoder) {
	e.ID(m.Edge)
	e.U64(m.ReqID)
	e.U32(m.FromLevel)
	e.U32(uint32(len(m.L0Blocks)))
	for i := range m.L0Blocks {
		m.L0Blocks[i].EncodeTo(e)
	}
	e.U32(uint32(len(m.SrcPages)))
	for i := range m.SrcPages {
		m.SrcPages[i].EncodeTo(e)
	}
	e.U32(uint32(len(m.DstPages)))
	for i := range m.DstPages {
		m.DstPages[i].EncodeTo(e)
	}
	e.Blob(m.EdgeSig)
}

// AppendBody appends the signable body, recomputing every commitment from
// the shipped blocks and pages (see AppendBodyWithDigests).
func (m *MergeRequest) AppendBody(e *Encoder) {
	m.AppendBodyWithDigests(e, nil, nil, nil)
}

// AppendBodyWithDigests appends the signable body: the header plus one
// 32-byte commitment per shipped block (its digest, which commits the block
// id) and page (its Merkle leaf) — never the bodies. The edge passes the
// commitments it holds; the cloud the ones it computed from the bytes it
// received, which it needs anyway. A nil list is recomputed from the
// shipped data, which is what a verifier holding no commitments must do.
func (m *MergeRequest) AppendBodyWithDigests(e *Encoder, l0Digests, srcLeaves, dstLeaves [][]byte) {
	e.ID(m.Edge)
	e.U64(m.ReqID)
	e.U32(m.FromLevel)
	e.U32(uint32(len(m.L0Blocks)))
	for i := range m.L0Blocks {
		if l0Digests != nil {
			e.Blob(l0Digests[i])
		} else {
			e.Blob(m.L0Blocks[i].BodyDigest())
		}
	}
	appendPageLeaves(e, m.SrcPages, srcLeaves)
	appendPageLeaves(e, m.DstPages, dstLeaves)
}

// appendPageLeaves appends one Merkle leaf per page: the caller's when
// given, recomputed from the page otherwise.
func appendPageLeaves(e *Encoder, pages []Page, leaves [][]byte) {
	e.U32(uint32(len(pages)))
	for i := range pages {
		if leaves != nil {
			e.Blob(leaves[i])
		} else {
			e.Blob(pages[i].Leaf())
		}
	}
}

// DecodeFrom implements Message.
func (m *MergeRequest) DecodeFrom(d *Decoder) {
	m.Edge = d.ID()
	m.ReqID = d.U64()
	m.FromLevel = d.U32()
	m.L0Blocks = decodeSlice(d, minBlockSize, (*Block).DecodeFrom)
	m.SrcPages = decodeSlice(d, minPageSize, (*Page).DecodeFrom)
	m.DstPages = decodeSlice(d, minPageSize, (*Page).DecodeFrom)
	m.EdgeSig = d.Blob()
}

// MergeResponse is the cloud's data-free answer to a MergeRequest: the
// refreshed level roots, the new signed global root, and the three values
// the cloud chose for the merge — PageSeq (number of the first merged
// page), PageCap (records per page) and Global.Ts (the pages' timestamp).
// With them the edge re-runs the merge over the inputs it still holds, and
// the root check at install binds the derived pages to CloudSig. OK is
// false (with Reason) when verification failed — which itself flags the
// edge.
//
// NewPages is not covered by CloudSig. The cloud leaves it empty; a leader
// mirroring the response fills it for its followers, whose logs may lag the
// merge inputs, and the same root check rejects anything but the pages the
// cloud derived.
type MergeResponse struct {
	Edge       NodeID
	ReqID      uint64
	OK         bool
	Reason     string
	FromLevel  uint32
	PageSeq    uint64
	PageCap    uint32
	NewPages   []Page
	Roots      [][]byte // all level roots after the merge
	Global     SignedRoot
	ConsumedTo uint64 // for L0 merges: blocks consumed through this id
	CloudSig   []byte
}

// MsgKind implements Message.
func (*MergeResponse) MsgKind() Kind { return KindMergeResponse }

// EncodeTo implements Message.
func (m *MergeResponse) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.U32(uint32(len(m.NewPages)))
	for i := range m.NewPages {
		m.NewPages[i].EncodeTo(e)
	}
	e.Blob(m.CloudSig)
}

// AppendBody appends the signable body: every field but NewPages.
func (m *MergeResponse) AppendBody(e *Encoder) {
	e.ID(m.Edge)
	e.U64(m.ReqID)
	e.Bool(m.OK)
	e.Str(m.Reason)
	e.U32(m.FromLevel)
	e.U64(m.PageSeq)
	e.U32(m.PageCap)
	appendBlobs(e, m.Roots)
	m.Global.EncodeTo(e)
	e.U64(m.ConsumedTo)
}

// DecodeFrom implements Message.
func (m *MergeResponse) DecodeFrom(d *Decoder) {
	m.Edge = d.ID()
	m.ReqID = d.U64()
	m.OK = d.Bool()
	m.Reason = d.Str()
	m.FromLevel = d.U32()
	m.PageSeq = d.U64()
	m.PageCap = d.U32()
	m.Roots = decodeBlobs(d)
	m.Global.DecodeFrom(d)
	m.ConsumedTo = d.U64()
	m.NewPages = decodeSlice(d, minPageSize, (*Page).DecodeFrom)
	m.CloudSig = d.Blob()
}
