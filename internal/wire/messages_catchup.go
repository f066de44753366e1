package wire

// Messages of the certified catch-up protocol: a restarted follower or a
// demoted ex-leader rebuilds its mirror of the chain by fetching the
// frozen blocks it misses from the current leader and verifying each one
// against the cloud's certificates. The sync peer is as untrusted as any
// edge — it signs what it ships (ServerSig is block-ack evidence), so a
// lying peer convicts through the existing dispute machinery.

// CatchUpRequest asks the chain's current leader for the frozen blocks
// from position From onward. Signed by the requesting node so a leader
// only serves group members (and the signature makes spoofed fetch storms
// attributable).
type CatchUpRequest struct {
	Chain NodeID // chain being caught up
	Node  NodeID // requesting replica
	From  uint64 // first missing block id
	Ts    int64
	Sig   []byte
}

// MsgKind implements Message.
func (*CatchUpRequest) MsgKind() Kind { return KindCatchUpRequest }

// EncodeTo implements Message.
func (m *CatchUpRequest) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.Sig)
}

// AppendBody appends the bytes the requesting node signs.
func (m *CatchUpRequest) AppendBody(e *Encoder) {
	e.ID(m.Chain)
	e.ID(m.Node)
	e.U64(m.From)
	e.I64(m.Ts)
}

// DecodeFrom implements Message.
func (m *CatchUpRequest) DecodeFrom(d *Decoder) {
	m.Chain = d.ID()
	m.Node = d.ID()
	m.From = d.U64()
	m.Ts = d.I64()
	m.Sig = d.Blob()
}

// CatchUpItem is one block of a catch-up response. ServerSig is the
// serving leader's signature over the block-ack body (BID ‖ digest) —
// the same convicting evidence shape as PutResponse and ReplicateBlock —
// so the server vouches for what it ships: if the shipped block
// contradicts a cloud certificate, the receiver repackages Block and
// ServerSig as a PutResponse and files a DisputeAddLie. Certified
// blocks carry their certificate so the receiver can verify and advance
// its certified prefix without a cloud round-trip per block.
type CatchUpItem struct {
	Block     Block
	ServerSig []byte
	HasCert   bool
	Cert      BlockProof // valid only when HasCert
}

// CatchUpBlocks is the leader's reply to a CatchUpRequest: a bounded run
// of consecutive frozen blocks starting at From. Through is the chain's
// current block count; a receiver still short of Through re-requests
// from its new frontier, so arbitrarily long gaps heal in bounded
// messages. Authentication is per-item (ServerSig), not per-message.
type CatchUpBlocks struct {
	Chain   NodeID // chain being caught up
	Leader  NodeID // serving node
	From    uint64 // id of Items[0] (meaningful only when Items is non-empty)
	Through uint64 // server's total block count at serve time
	Items   []CatchUpItem
}

// MsgKind implements Message.
func (*CatchUpBlocks) MsgKind() Kind { return KindCatchUpBlocks }

// EncodeTo implements Message.
func (m *CatchUpBlocks) EncodeTo(e *Encoder) {
	e.ID(m.Chain)
	e.ID(m.Leader)
	e.U64(m.From)
	e.U64(m.Through)
	e.U32(uint32(len(m.Items)))
	for i := range m.Items {
		it := &m.Items[i]
		it.Block.EncodeTo(e)
		e.Blob(it.ServerSig)
		if it.HasCert {
			e.U32(1)
			it.Cert.EncodeTo(e)
		} else {
			e.U32(0)
		}
	}
}

// DecodeFrom implements Message.
func (m *CatchUpBlocks) DecodeFrom(d *Decoder) {
	m.Chain = d.ID()
	m.Leader = d.ID()
	m.From = d.U64()
	m.Through = d.U64()
	n := d.count(minCatchUpItemSize)
	if d.Err() != nil || n == 0 {
		m.Items = nil
		return
	}
	m.Items = make([]CatchUpItem, n)
	for i := range m.Items {
		it := &m.Items[i]
		it.Block.DecodeFrom(d)
		it.ServerSig = d.Blob()
		if d.U32() != 0 {
			it.HasCert = true
			it.Cert.DecodeFrom(d)
		}
	}
}

// GroupJoin is the cloud's signed admission of a recovered node back into
// a chain's replica group. Sent to both the rejoining node (adopt the
// current leader and epoch, start catching up) and the leader (start
// replicating new blocks to the rejoined follower). Epoch carries the
// chain's current leadership epoch so a stale join can never demote a
// node's view of a newer regime.
type GroupJoin struct {
	Chain    NodeID // chain the node rejoins
	Node     NodeID // rejoining replica
	Leader   NodeID // current leader it follows
	Epoch    uint64 // current leadership epoch
	Ts       int64
	CloudSig []byte
}

// MsgKind implements Message.
func (*GroupJoin) MsgKind() Kind { return KindGroupJoin }

// EncodeTo implements Message.
func (m *GroupJoin) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.CloudSig)
}

// AppendBody appends the bytes the cloud signs.
func (m *GroupJoin) AppendBody(e *Encoder) {
	e.ID(m.Chain)
	e.ID(m.Node)
	e.ID(m.Leader)
	e.U64(m.Epoch)
	e.I64(m.Ts)
}

// DecodeFrom implements Message.
func (m *GroupJoin) DecodeFrom(d *Decoder) {
	m.Chain = d.ID()
	m.Node = d.ID()
	m.Leader = d.ID()
	m.Epoch = d.U64()
	m.Ts = d.I64()
	m.CloudSig = d.Blob()
}

// FrontierRequest asks the cloud for a chain's certified frontier. The
// cloud answers with a freshly signed Gossip for the chain — the same
// artifact the periodic gossip pushes — giving a recovering node an
// on-demand, trusted statement of how much certified history it must
// hold before it is safely promotable.
type FrontierRequest struct {
	Chain NodeID
}

// MsgKind implements Message.
func (*FrontierRequest) MsgKind() Kind { return KindFrontierRequest }

// EncodeTo implements Message.
func (m *FrontierRequest) EncodeTo(e *Encoder) { e.ID(m.Chain) }

// DecodeFrom implements Message.
func (m *FrontierRequest) DecodeFrom(d *Decoder) { m.Chain = d.ID() }
