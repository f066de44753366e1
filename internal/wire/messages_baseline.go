package wire

// Messages for the two baseline systems the paper evaluates against
// (Sections II-C and VI): Cloud-only, where the trusted cloud serves every
// request, and Edge-baseline, where writes are certified at the cloud and
// the resulting state pushed to the edge synchronously before the client is
// acknowledged.

// CloudPutResponse acknowledges a Cloud-only write. The cloud is trusted,
// so no proof accompanies the response. Seq echoes the entry's client
// sequence number for correlation.
type CloudPutResponse struct {
	Seq uint64
	BID uint64
	OK  bool
}

// MsgKind implements Message.
func (*CloudPutResponse) MsgKind() Kind { return KindCloudPutResponse }

// EncodeTo implements Message.
func (m *CloudPutResponse) EncodeTo(e *Encoder) {
	e.U64(m.Seq)
	e.U64(m.BID)
	e.Bool(m.OK)
}

// DecodeFrom implements Message.
func (m *CloudPutResponse) DecodeFrom(d *Decoder) {
	m.Seq = d.U64()
	m.BID = d.U64()
	m.OK = d.Bool()
}

// CloudGetRequest reads a key directly from the trusted cloud (Cloud-only).
type CloudGetRequest struct {
	Key   []byte
	ReqID uint64
}

// MsgKind implements Message.
func (*CloudGetRequest) MsgKind() Kind { return KindCloudGetRequest }

// EncodeTo implements Message.
func (m *CloudGetRequest) EncodeTo(e *Encoder) {
	e.Blob(m.Key)
	e.U64(m.ReqID)
}

// DecodeFrom implements Message.
func (m *CloudGetRequest) DecodeFrom(d *Decoder) {
	m.Key = d.Blob()
	m.ReqID = d.U64()
}

// CloudGetResponse answers a Cloud-only read. Trusted, so proof-free — the
// source of Cloud-only's lower best-case read latency in Figure 5(d).
type CloudGetResponse struct {
	ReqID uint64
	Found bool
	Value []byte
	Ver   uint64
}

// MsgKind implements Message.
func (*CloudGetResponse) MsgKind() Kind { return KindCloudGetResponse }

// EncodeTo implements Message.
func (m *CloudGetResponse) EncodeTo(e *Encoder) {
	e.U64(m.ReqID)
	e.Bool(m.Found)
	e.Blob(m.Value)
	e.U64(m.Ver)
}

// DecodeFrom implements Message.
func (m *CloudGetResponse) DecodeFrom(d *Decoder) {
	m.ReqID = d.U64()
	m.Found = d.Bool()
	m.Value = d.Blob()
	m.Ver = d.U64()
}

// EBPutResponse acknowledges an Edge-baseline write after the edge holds
// the certified state. Seq echoes the entry's client sequence number.
type EBPutResponse struct {
	Seq uint64
	BID uint64
	OK  bool
}

// MsgKind implements Message.
func (*EBPutResponse) MsgKind() Kind { return KindEBPutResponse }

// EncodeTo implements Message.
func (m *EBPutResponse) EncodeTo(e *Encoder) {
	e.U64(m.Seq)
	e.U64(m.BID)
	e.Bool(m.OK)
}

// DecodeFrom implements Message.
func (m *EBPutResponse) DecodeFrom(d *Decoder) {
	m.Seq = d.U64()
	m.BID = d.U64()
	m.OK = d.Bool()
}

// EBStatePush carries the newly certified block (with its certificate),
// the full replacement page sets of any levels rewritten by a cloud-side
// compaction (pages carry their Level), the refreshed level roots and the
// signed global root from cloud to edge. Unlike WedgeChain's data-free
// certification, the full data crosses the WAN — the bandwidth cost the
// paper's Figure 4 attributes Edge-baseline's poor scaling to.
type EBStatePush struct {
	Epoch    uint64
	Block    Block
	Proof    BlockProof // cloud certificate for Block
	L0From   uint64     // blocks below this id were compacted into levels
	Pages    []Page
	Roots    [][]byte
	Global   SignedRoot
	CloudSig []byte
}

// MsgKind implements Message.
func (*EBStatePush) MsgKind() Kind { return KindEBStatePush }

// EncodeTo implements Message.
func (m *EBStatePush) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.CloudSig)
}

// AppendBody appends the bytes the cloud signs.
func (m *EBStatePush) AppendBody(e *Encoder) {
	e.U64(m.Epoch)
	m.Block.EncodeTo(e)
	m.Proof.EncodeTo(e)
	e.U64(m.L0From)
	e.U32(uint32(len(m.Pages)))
	for i := range m.Pages {
		m.Pages[i].EncodeTo(e)
	}
	e.U32(uint32(len(m.Roots)))
	for _, r := range m.Roots {
		e.Blob(r)
	}
	m.Global.EncodeTo(e)
}

// DecodeFrom implements Message.
func (m *EBStatePush) DecodeFrom(d *Decoder) {
	m.Epoch = d.U64()
	m.Block.DecodeFrom(d)
	m.Proof.DecodeFrom(d)
	m.L0From = d.U64()
	m.Pages = decodeSlice(d, minPageSize, (*Page).DecodeFrom)
	m.Roots = decodeBlobs(d)
	m.Global.DecodeFrom(d)
	m.CloudSig = d.Blob()
}

// EBStateAck confirms the edge has durably applied a state push, releasing
// the cloud to acknowledge the client.
type EBStateAck struct {
	Epoch   uint64
	EdgeSig []byte
}

// MsgKind implements Message.
func (*EBStateAck) MsgKind() Kind { return KindEBStateAck }

// EncodeTo implements Message.
func (m *EBStateAck) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.EdgeSig)
}

// AppendBody appends the bytes the edge signs.
func (m *EBStateAck) AppendBody(e *Encoder) { e.U64(m.Epoch) }

// DecodeFrom implements Message.
func (m *EBStateAck) DecodeFrom(d *Decoder) {
	m.Epoch = d.U64()
	m.EdgeSig = d.Blob()
}

// Ping measures link round-trip time (Table I reproduction).
type Ping struct {
	Seq uint64
	Ts  int64
}

// MsgKind implements Message.
func (*Ping) MsgKind() Kind { return KindPing }

// EncodeTo implements Message.
func (m *Ping) EncodeTo(e *Encoder) {
	e.U64(m.Seq)
	e.I64(m.Ts)
}

// DecodeFrom implements Message.
func (m *Ping) DecodeFrom(d *Decoder) {
	m.Seq = d.U64()
	m.Ts = d.I64()
}

// Pong echoes a Ping.
type Pong struct {
	Seq uint64
	Ts  int64 // original send timestamp from the Ping
}

// MsgKind implements Message.
func (*Pong) MsgKind() Kind { return KindPong }

// EncodeTo implements Message.
func (m *Pong) EncodeTo(e *Encoder) {
	e.U64(m.Seq)
	e.I64(m.Ts)
}

// DecodeFrom implements Message.
func (m *Pong) DecodeFrom(d *Decoder) {
	m.Seq = d.U64()
	m.Ts = d.I64()
}
