package wire

// Batched write requests. The paper batches add and put requests in all
// experiments ("each batch consists of 100 put operations"); these
// messages carry a client's whole batch in one request.

// PutBatch is the one write message a WedgeChain edge accepts: a single
// put, add or reserved-position add is a batch of one, the paper's batched
// submission a batch of n, and a retry or failover re-send a batch of every
// due write. Entries with a key are puts; entries without are log adds.
//
// The client signs the whole batch once — BatchSig covers Client and every
// entry byte-for-byte — and the entries carry no signature of their own:
// one Ed25519 verification authenticates the batch, amortizing the dominant
// per-write crypto cost across the paper's batch size B. A batch without
// BatchSig is rejected. Splicing is not possible: an entry lifted out of a
// signed batch has no signature, and any reorder, subset or substitution
// breaks BatchSig. The edge checks BatchSig on arrival and keeps no proof
// of authorship in the block. (The baselines' CloudPutBatch and EBPutBatch
// below carry per-entry signatures instead.)
type PutBatch struct {
	Client   NodeID // batch signer; must match every entry
	Entries  []Entry
	BatchSig []byte
}

// MsgKind implements Message.
func (*PutBatch) MsgKind() Kind { return KindPutBatch }

// EncodeTo implements Message.
func (m *PutBatch) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.BatchSig)
}

// AppendBody appends everything the batch signature covers.
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
	m.BatchSig = d.Blob()
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
