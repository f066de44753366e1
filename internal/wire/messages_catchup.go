package wire

// Messages of the certified catch-up protocol: a restarted follower or a
// demoted ex-leader rebuilds its mirror of the chain by fetching the
// frozen blocks it misses from the current leader and verifying each one
// against the cloud's certificates. The leader answers with ordinary
// ReplicateBlock frames, each signed and carrying the block's certificate
// when it has one, so the sync peer is as untrusted as any edge: a lying
// peer convicts through the existing dispute machinery.

// CatchUpRequest asks the chain's current leader for the frozen blocks
// from position From onward. Signed by the requesting node: the leader
// serves any signer that names the chain (blocks are public, as readable
// as any client read), and the signature makes spoofed fetch storms
// attributable.
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
