package wire

// Batched write requests. The paper batches add and put requests in all
// experiments ("each batch consists of 100 put operations"); these
// messages carry a client's whole batch in one request.

// PutBatch is the one write message a WedgeChain edge accepts: a single
// put, add or reserved-position add is a batch of one, the paper's batched
// submission a batch of n, and a retry or failover re-send a batch of every
// due write. Entries with a key are puts; entries without are log adds.
//
// MAC authenticates the whole batch — its kind, Client and every entry
// byte-for-byte — under the key the client shares with the edge it sends
// to (wcrypto.MAC), and the entries carry no signature of their own. Only
// that edge checks it, once, on arrival, and the block keeps no proof of
// authorship, so no third party ever needs a signature here: one HMAC
// stands in for an Ed25519 sign and verify. A batch without a valid MAC is
// rejected; so is one replayed to another edge, which holds another key.
// Splicing is not possible: an entry lifted out of a batch has no MAC of
// its own, and any reorder, subset or substitution breaks the batch's.
// (The baselines' CloudPutBatch and EBPutBatch below carry per-entry
// signatures instead.)
type PutBatch struct {
	Client  NodeID // batch author; must match every entry
	Entries []Entry
	MAC     []byte
}

// MsgKind implements Message.
func (*PutBatch) MsgKind() Kind { return KindPutBatch }

// EncodeTo implements Message.
func (m *PutBatch) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.MAC)
}

// AppendBody appends everything the batch MAC covers, after its kind.
func (m *PutBatch) AppendBody(e *Encoder) {
	e.ID(m.Client)
	e.U32(uint32(len(m.Entries)))
	for i := range m.Entries {
		m.Entries[i].EncodeTo(e)
	}
}

// DecodeFrom implements Message.
func (m *PutBatch) DecodeFrom(d *Decoder) {
	m.Client = d.ID()
	m.Entries = decodeSlice(d, minEntrySize, (*Entry).DecodeFrom)
	m.MAC = d.Blob()
}

// CloudPutBatch submits a batch of writes to the Cloud-only server.
type CloudPutBatch struct {
	Entries []Entry
}

// MsgKind implements Message.
func (*CloudPutBatch) MsgKind() Kind { return KindCloudPutBatch }

// EncodeTo implements Message.
func (m *CloudPutBatch) EncodeTo(e *Encoder) {
	e.U32(uint32(len(m.Entries)))
	for i := range m.Entries {
		m.Entries[i].EncodeTo(e)
	}
}

// DecodeFrom implements Message.
func (m *CloudPutBatch) DecodeFrom(d *Decoder) {
	m.Entries = decodeSlice(d, minEntrySize, (*Entry).DecodeFrom)
}

// EBPutBatch submits a batch of writes to the Edge-baseline cloud.
type EBPutBatch struct {
	Edge    NodeID
	Entries []Entry
}

// MsgKind implements Message.
func (*EBPutBatch) MsgKind() Kind { return KindEBPutBatch }

// EncodeTo implements Message.
func (m *EBPutBatch) EncodeTo(e *Encoder) {
	e.ID(m.Edge)
	e.U32(uint32(len(m.Entries)))
	for i := range m.Entries {
		m.Entries[i].EncodeTo(e)
	}
}

// DecodeFrom implements Message.
func (m *EBPutBatch) DecodeFrom(d *Decoder) {
	m.Edge = d.ID()
	m.Entries = decodeSlice(d, minEntrySize, (*Entry).DecodeFrom)
}
