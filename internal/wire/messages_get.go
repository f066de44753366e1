package wire

// Retired get messages. A get is the scan of one key: a ScanRequest over
// PointRange(key), answered by a ScanResponse. Nothing sends these kinds,
// and every node ignores them on receipt. The types and their codecs stay
// only because the macro benchmark's harness still names them when it
// classifies read traffic.

// GetRequest was the request of the retired get protocol. Unsent.
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

// LevelProof was a retired get response's level evidence: one page, cut
// to the key, with its leaf index and audit path. Unsent.
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

// DecodeFrom reads the proof.
func (lp *LevelProof) DecodeFrom(d *Decoder) {
	lp.Level = d.U32()
	lp.Page.DecodeFrom(d)
	lp.Index = d.U32()
	lp.Width = d.U32()
	lp.Path = decodeBlobs(d)
}

// GetProof was a retired get response's evidence: the L0 window, one
// LevelProof per level down to the key's, the level roots and the signed
// global root. Unsent.
type GetProof struct {
	// L0Blocks is always nil and never encoded: it waits for the
	// [benchmark] follow-up that stops benchmark/load.go taking its length.
	L0Blocks []Block
	L0Pruned []L0Slice // the window, one slice per block
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

// DecodeFrom reads the proof.
func (gp *GetProof) DecodeFrom(d *Decoder) {
	gp.L0Blocks = nil
	gp.L0Pruned = decodeSlice(d, minL0SliceSize, (*L0Slice).DecodeFrom)
	gp.Levels = decodeSlice(d, minLevelProofSize, (*LevelProof).DecodeFrom)
	gp.Roots = decodeBlobs(d)
	gp.Global.DecodeFrom(d)
}

// GetResponse was the answer of the retired get protocol: the key, the
// answer and a GetProof under the edge's signature. Unsent.
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
