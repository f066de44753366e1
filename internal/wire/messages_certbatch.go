package wire

// Batched certification messages: the amortized-signature trick the
// write acks use (one signature over a digest-derived body, regardless
// of payload count) applied to the certification channel in both
// directions. A batch covers the contiguous run of block ids
// [Start, Start+len(Digests)) for one chain; contiguity is structural —
// there is no per-entry bid on the wire — so a batch can never describe
// a gap, and each triple (chain, bid, digest) is recovered by index.
//
// Batches are strictly an optimization over BlockCertify/BlockProof:
// every verifier accepts either shape, and dispute re-delivery always
// falls back to individually signed proofs (a client must be able to
// hand a third party evidence about one block without shipping its
// neighbours).

// BlockCertifyBatch is the amortized certification request from edge to
// cloud: one edge signature covers a contiguous run of block digests.
// Like BlockCertify it is data-free — digests only, never block
// contents (there is no full-data batch shape; the A1 full-data
// ablation keeps per-block requests).
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

// BlockCertBatch is the cloud's batched certification proof: one cloud
// signature certifies the digest of every block in the contiguous run
// [Start, Start+len(Digests)). Wire-compatible supersetting of
// BlockProof — edges, followers and clients apply each covered (chain,
// bid, digest) triple exactly as they would a single proof.
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
