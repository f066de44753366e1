package wire

// The write acknowledgement and the LSMerkle key-value protocol (Section V).

// PutRequest was the single-entry write, its entry signed on its own. No
// node sends or handles it: every write is a PutBatch. It is kept only
// because benchmark/ reads it (its trace and layer rows name the kind);
// the kind number stays reserved either way.
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
//
// It comes in two shapes. A block ack (Run false) carries the whole cut
// block and signs the block-ack body (AppendBlockAckBody). A run ack (Run
// true) is the promise a leader makes for the entries of one write batch
// still waiting for their block: Block holds exactly that run — Edge the
// chain, ID the BID it will be cut into (equal to BID), StartPos its first
// log position, Entries its entries — and EdgeSig signs AppendRunAckBody.
// Either way Block.StartPos + i is the log position of Block.Entries[i]:
// the macro benchmark (benchmark/) reads each write's version from it.
//
// Run is encoded as a trailing byte present only on a run ack, so a block
// ack's bytes are those it had before runs existed.
type PutResponse struct {
	BID     uint64
	Block   Block
	EdgeSig []byte
	Run     bool

	encSize int // cached encoded size; see sizeMemoized
}

// MsgKind implements Message.
func (*PutResponse) MsgKind() Kind { return KindPutResponse }

// EncodeTo implements Message.
func (m *PutResponse) EncodeTo(e *Encoder) {
	e.U64(m.BID)
	m.Block.EncodeTo(e)
	e.Blob(m.EdgeSig)
	if m.Run {
		e.Bool(true)
	}
}

// AppendBody appends the signable body: the size-independent block-ack
// body (BID + block digest) of a block ack, the run-ack body of a run ack;
// never the shipped encoding.
func (m *PutResponse) AppendBody(e *Encoder) {
	if m.Run {
		AppendRunAckBody(e, m.Block.Edge, m.BID, m.Block.StartPos, m.Block.Entries)
		return
	}
	AppendBlockAckBody(e, m.BID, m.Block.BodyDigest())
}

// DecodeFrom implements Message.
func (m *PutResponse) DecodeFrom(d *Decoder) {
	m.BID = d.U64()
	m.Block.DecodeFrom(d)
	m.EdgeSig = d.Blob()
	m.Run = d.trailingFlag()
	m.encSize = 0
}

func (m *PutResponse) encodedSizeMemo() int { return m.encSize }

func (m *PutResponse) memoizeEncodedSize(n int) {
	if m.Block.frozen() {
		m.encSize = n
	}
}

// MergeRequest asks the cloud for an LSMerkle compaction. For FromLevel
// == 0 it carries the certified log blocks (L0 pages) to merge into level
// 1; a merge of level FromLevel into FromLevel+1 carries only its header,
// because the cloud merges the keys, versions and record leaves it kept of
// both levels.
//
// SrcPages and DstPages are neither encoded nor signed, and the cloud
// refuses a request that sets either. They remain only because the macro
// benchmark's harness still counts their records.
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
	e.Blob(m.EdgeSig)
}

// AppendBody appends the signable body, recomputing every block digest
// from the shipped blocks (see AppendBodyWithDigests).
func (m *MergeRequest) AppendBody(e *Encoder) {
	m.AppendBodyWithDigests(e, nil)
}

// AppendBodyWithDigests appends the signable body: the header plus one
// 32-byte digest per shipped block, which commits the block id — never
// the blocks. The edge passes the digests it holds; the cloud the ones it
// computed from the bytes it received. A nil list is recomputed from the
// shipped blocks, as a verifier holding no digests must.
func (m *MergeRequest) AppendBodyWithDigests(e *Encoder, l0Digests [][]byte) {
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
}

// DecodeFrom implements Message.
func (m *MergeRequest) DecodeFrom(d *Decoder) {
	m.Edge = d.ID()
	m.ReqID = d.U64()
	m.FromLevel = d.U32()
	m.L0Blocks = decodeSlice(d, minBlockSize, (*Block).DecodeFrom)
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
