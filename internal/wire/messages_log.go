package wire

// Messages of the WedgeChain logging protocol (Section IV).

// AppendBlockAckBody appends the signable body shared by every block
// acknowledgement (PutResponse, ReplicateBlock, and the block portion of
// ReadResponse): the block id plus the 32-byte block digest. Signing and
// verifying this body is O(1) in block size — the full block still ships
// on the wire, but the signature covers only its digest, which the digest's
// one-way property binds to the contents just as strongly as signing the
// re-encoded body did. Signers use the digest cached at block cut;
// verifiers recompute it from the block they received (Block.BodyDigest),
// so a tampered body fails the signature check exactly as before.
func AppendBlockAckBody(e *Encoder, bid uint64, digest []byte) {
	e.U64(bid)
	e.Blob(digest)
}

// BlockCertify is the data-free certification request from edge to cloud:
// only the digest crosses the WAN link, never the block contents. Agreement
// on the digest implies agreement on the block because the digest is a
// one-way hash.
//
// Body is normally empty. The full-data ablation (DESIGN.md A1) sets it to
// the block's canonical bytes, modeling a system without data-free
// certification; the cloud then recomputes and checks the digest.
type BlockCertify struct {
	Edge    NodeID
	BID     uint64
	Digest  []byte
	Body    []byte
	EdgeSig []byte
}

// MsgKind implements Message.
func (*BlockCertify) MsgKind() Kind { return KindBlockCertify }

// EncodeTo implements Message.
func (m *BlockCertify) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.EdgeSig)
}

// AppendBody appends the bytes the edge signs.
func (m *BlockCertify) AppendBody(e *Encoder) {
	e.ID(m.Edge)
	e.U64(m.BID)
	e.Blob(m.Digest)
	e.Blob(m.Body)
}

// DecodeFrom implements Message.
func (m *BlockCertify) DecodeFrom(d *Decoder) {
	m.Edge = d.ID()
	m.BID = d.U64()
	m.Digest = d.Blob()
	m.Body = d.Blob()
	m.EdgeSig = d.Blob()
}

// BlockProof is the cloud's signed certification of block BID's digest — the
// Phase II commit certificate. The cloud issues at most one proof per
// (edge, BID); a conflicting certify attempt flags the edge as malicious.
type BlockProof struct {
	Edge     NodeID
	BID      uint64
	Digest   []byte
	CloudSig []byte
}

// MsgKind implements Message.
func (*BlockProof) MsgKind() Kind { return KindBlockProof }

// EncodeTo implements Message.
func (m *BlockProof) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.CloudSig)
}

// AppendBody appends the bytes the cloud signs.
func (m *BlockProof) AppendBody(e *Encoder) {
	e.ID(m.Edge)
	e.U64(m.BID)
	e.Blob(m.Digest)
}

// DecodeFrom implements Message.
func (m *BlockProof) DecodeFrom(d *Decoder) {
	m.Edge = d.ID()
	m.BID = d.U64()
	m.Digest = d.Blob()
	m.CloudSig = d.Blob()
}

// ReadRequest asks an edge node for block BID.
type ReadRequest struct {
	BID   uint64
	ReqID uint64 // client-local correlation id
}

// MsgKind implements Message.
func (*ReadRequest) MsgKind() Kind { return KindReadRequest }

// EncodeTo implements Message.
func (m *ReadRequest) EncodeTo(e *Encoder) {
	e.U64(m.BID)
	e.U64(m.ReqID)
}

// DecodeFrom implements Message.
func (m *ReadRequest) DecodeFrom(d *Decoder) {
	m.BID = d.U64()
	m.ReqID = d.U64()
}

// ReadResponse returns a block (with or without its Phase II proof) or a
// signed not-available statement. All three cases are signed by the edge so
// any lie is disputable evidence.
type ReadResponse struct {
	ReqID    uint64
	BID      uint64
	OK       bool  // false: block not available (signed denial)
	Ts       int64 // edge timestamp; orders denials against cloud gossip
	Block    Block
	HasProof bool
	Proof    BlockProof // valid only when HasProof
	EdgeSig  []byte

	encSize int // cached encoded size; see sizeMemoized
}

// MsgKind implements Message.
func (*ReadResponse) MsgKind() Kind { return KindReadResponse }

// EncodeTo implements Message.
func (m *ReadResponse) EncodeTo(e *Encoder) {
	e.U64(m.ReqID)
	e.U64(m.BID)
	e.Bool(m.OK)
	e.I64(m.Ts)
	m.Block.EncodeTo(e)
	e.Bool(m.HasProof)
	m.Proof.EncodeTo(e)
	e.Blob(m.EdgeSig)
}

// AppendBody appends the signable body. The block is represented by its
// 32-byte digest (size-independent signing); the small constant-size
// fields — including the attached proof, which is itself digest-sized —
// stay inline.
func (m *ReadResponse) AppendBody(e *Encoder) {
	m.AppendBodyWithDigest(e, m.Block.BodyDigest())
}

// AppendBodyWithDigest appends the signable body using a block digest the
// caller already holds: the edge's read path signs with the digest cached
// at block cut instead of re-hashing the block per read, and a verifier
// passes the digest it recomputed from the block it received, which it
// needs again for the certificate match (wcrypto.VerifyReadResponse).
func (m *ReadResponse) AppendBodyWithDigest(e *Encoder, digest []byte) {
	e.U64(m.ReqID)
	e.U64(m.BID)
	e.Bool(m.OK)
	e.I64(m.Ts)
	e.Blob(digest)
	e.Bool(m.HasProof)
	m.Proof.EncodeTo(e)
}

// DecodeFrom implements Message.
func (m *ReadResponse) DecodeFrom(d *Decoder) {
	m.ReqID = d.U64()
	m.BID = d.U64()
	m.OK = d.Bool()
	m.Ts = d.I64()
	m.Block.DecodeFrom(d)
	m.HasProof = d.Bool()
	m.Proof.DecodeFrom(d)
	m.EdgeSig = d.Blob()
	m.encSize = 0
}

func (m *ReadResponse) encodedSizeMemo() int { return m.encSize }

func (m *ReadResponse) memoizeEncodedSize(n int) {
	if m.Block.frozen() {
		m.encSize = n
	}
}

// Gossip is the cloud's periodic signed statement of an edge log's size,
// which lets clients detect omission attacks: any position below LogSize is
// provably filled, so a not-available response for it is disputable.
type Gossip struct {
	Edge     NodeID
	Ts       int64
	LogSize  uint64 // number of certified entries (absolute positions filled)
	Blocks   uint64 // number of certified blocks
	CloudSig []byte
}

// MsgKind implements Message.
func (*Gossip) MsgKind() Kind { return KindGossip }

// EncodeTo implements Message.
func (m *Gossip) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.CloudSig)
}

// AppendBody appends the bytes the cloud signs.
func (m *Gossip) AppendBody(e *Encoder) {
	e.ID(m.Edge)
	e.I64(m.Ts)
	e.U64(m.LogSize)
	e.U64(m.Blocks)
}

// DecodeFrom implements Message.
func (m *Gossip) DecodeFrom(d *Decoder) {
	m.Edge = d.ID()
	m.Ts = d.I64()
	m.LogSize = d.U64()
	m.Blocks = d.U64()
	m.CloudSig = d.Blob()
}

// DisputeKind classifies what the client accuses the edge of.
type DisputeKind uint8

// Dispute kinds.
const (
	// DisputeAddLie: the edge promised the entry is in block BID
	// (PutResponse evidence) but the certified block differs.
	DisputeAddLie DisputeKind = iota + 1
	// DisputeReadLie: the edge served block contents for BID
	// (ReadResponse evidence) that differ from the certified block.
	DisputeReadLie
	// DisputeOmission: the edge denied availability of a position that
	// cloud gossip proves is filled (ReadResponse + Gossip evidence).
	DisputeOmission
	// DisputeGetLie: a get response carried L0 block content for BID
	// that differs from the certified block (GetResponse evidence).
	DisputeGetLie
	// DisputeScanLie: a scan response is provably defective — its signed
	// completeness proof fails structural verification, or it carried L0
	// block content for BID that differs from the certified block
	// (ScanResponse evidence; the cloud re-verifies the whole proof).
	DisputeScanLie
)

// String returns the dispute kind's name.
func (k DisputeKind) String() string {
	switch k {
	case DisputeAddLie:
		return "add-lie"
	case DisputeReadLie:
		return "read-lie"
	case DisputeOmission:
		return "omission"
	case DisputeGetLie:
		return "get-lie"
	case DisputeScanLie:
		return "scan-lie"
	default:
		return "unknown"
	}
}

// Dispute carries a client's accusation with the signed edge response as
// evidence. Evidence is the canonical EncodeMessage bytes of the signed
// PutResponse or ReadResponse, so the cloud can independently verify the
// edge's signature over exactly what the client received.
type Dispute struct {
	Kind      DisputeKind
	Edge      NodeID
	BID       uint64
	Evidence  []byte // EncodeMessage of the signed edge response
	Evidence2 []byte // omission: EncodeMessage(Gossip) proving the position is filled
	ClientSig []byte
}

// MsgKind implements Message.
func (*Dispute) MsgKind() Kind { return KindDispute }

// EncodeTo implements Message.
func (m *Dispute) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.ClientSig)
}

// AppendBody appends the bytes the client signs.
func (m *Dispute) AppendBody(e *Encoder) {
	e.U8(uint8(m.Kind))
	e.ID(m.Edge)
	e.U64(m.BID)
	e.Blob(m.Evidence)
	e.Blob(m.Evidence2)
}

// DecodeFrom implements Message.
func (m *Dispute) DecodeFrom(d *Decoder) {
	m.Kind = DisputeKind(d.U8())
	m.Edge = d.ID()
	m.BID = d.U64()
	m.Evidence = d.Blob()
	m.Evidence2 = d.Blob()
	m.ClientSig = d.Blob()
}

// Verdict is the cloud's signed ruling on a dispute. Guilty verdicts are
// recorded in the punishment registry and broadcast; punished edges are
// excluded (Section II-D assumption 2: no reentry).
type Verdict struct {
	Edge     NodeID
	BID      uint64
	Kind     DisputeKind
	Guilty   bool
	Reason   string
	CloudSig []byte
}

// MsgKind implements Message.
func (*Verdict) MsgKind() Kind { return KindVerdict }

// EncodeTo implements Message.
func (m *Verdict) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.CloudSig)
}

// AppendBody appends the bytes the cloud signs.
func (m *Verdict) AppendBody(e *Encoder) {
	e.ID(m.Edge)
	e.U64(m.BID)
	e.U8(uint8(m.Kind))
	e.Bool(m.Guilty)
	e.Str(m.Reason)
}

// DecodeFrom implements Message.
func (m *Verdict) DecodeFrom(d *Decoder) {
	m.Edge = d.ID()
	m.BID = d.U64()
	m.Kind = DisputeKind(d.U8())
	m.Guilty = d.Bool()
	m.Reason = d.Str()
	m.CloudSig = d.Blob()
}

// MaxReserve is the most log positions one ReserveRequest may ask for. An
// open reservation holds every later cut back until it is filled or
// expires, so the edge refuses a larger Count and the client never sends
// one.
const MaxReserve = 1024

// ReserveRequest implements the replay-protection extension of Section IV-E:
// the client reserves Count consecutive log positions, then signs each entry
// for its specific position, making requests idempotent by construction.
type ReserveRequest struct {
	Client    NodeID
	Count     uint32
	ReqID     uint64
	ClientSig []byte
}

// MsgKind implements Message.
func (*ReserveRequest) MsgKind() Kind { return KindReserveRequest }

// EncodeTo implements Message.
func (m *ReserveRequest) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.ClientSig)
}

// AppendBody appends the bytes the client signs.
func (m *ReserveRequest) AppendBody(e *Encoder) {
	e.ID(m.Client)
	e.U32(m.Count)
	e.U64(m.ReqID)
}

// DecodeFrom implements Message.
func (m *ReserveRequest) DecodeFrom(d *Decoder) {
	m.Client = d.ID()
	m.Count = d.U32()
	m.ReqID = d.U64()
	m.ClientSig = d.Blob()
}

// ReserveResponse grants absolute log positions [Start, Start+Count) to the
// client, signed by the edge.
type ReserveResponse struct {
	ReqID   uint64
	Start   uint64
	Count   uint32
	EdgeSig []byte
}

// MsgKind implements Message.
func (*ReserveResponse) MsgKind() Kind { return KindReserveResponse }

// EncodeTo implements Message.
func (m *ReserveResponse) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.EdgeSig)
}

// AppendBody appends the bytes the edge signs.
func (m *ReserveResponse) AppendBody(e *Encoder) {
	e.U64(m.ReqID)
	e.U64(m.Start)
	e.U32(m.Count)
}

// DecodeFrom implements Message.
func (m *ReserveResponse) DecodeFrom(d *Decoder) {
	m.ReqID = d.U64()
	m.Start = d.U64()
	m.Count = d.U32()
	m.EdgeSig = d.Blob()
}
