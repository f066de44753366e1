package wire

// Batched certification messages. Nothing sends these kinds, and every
// node ignores them on receipt: a certificate is one BlockCertify up and
// one BlockProof down. The types stay only because the macro benchmark's
// harness still names them when it classifies certification traffic.
// A batch covers the contiguous run of block ids [Start,
// Start+len(Digests)) for one chain.

// BlockCertifyBatch is a certification request from edge to cloud under
// one edge signature over a contiguous run of block digests. Unsent.
type BlockCertifyBatch struct {
	Edge    NodeID
	Start   uint64
	Digests [][]byte
	EdgeSig []byte
}

// MsgKind implements Message.
func (*BlockCertifyBatch) MsgKind() Kind { return KindBlockCertifyBatch }

// EncodeTo implements Message.
func (m *BlockCertifyBatch) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.EdgeSig)
}

// AppendBody appends the bytes the edge signs.
func (m *BlockCertifyBatch) AppendBody(e *Encoder) {
	e.ID(m.Edge)
	e.U64(m.Start)
	appendBlobs(e, m.Digests)
}

// DecodeFrom implements Message.
func (m *BlockCertifyBatch) DecodeFrom(d *Decoder) {
	m.Edge = d.ID()
	m.Start = d.U64()
	m.Digests = decodeBlobs(d)
	m.EdgeSig = d.Blob()
}

// BlockCertBatch is a cloud certificate under one cloud signature over a
// contiguous run of block digests. Unsent.
type BlockCertBatch struct {
	Edge     NodeID
	Start    uint64
	Digests  [][]byte
	CloudSig []byte
}

// MsgKind implements Message.
func (*BlockCertBatch) MsgKind() Kind { return KindBlockCertBatch }

// EncodeTo implements Message.
func (m *BlockCertBatch) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.CloudSig)
}

// AppendBody appends the bytes the cloud signs.
func (m *BlockCertBatch) AppendBody(e *Encoder) {
	e.ID(m.Edge)
	e.U64(m.Start)
	appendBlobs(e, m.Digests)
}

// DecodeFrom implements Message.
func (m *BlockCertBatch) DecodeFrom(d *Decoder) {
	m.Edge = d.ID()
	m.Start = d.U64()
	m.Digests = decodeBlobs(d)
	m.CloudSig = d.Blob()
}
