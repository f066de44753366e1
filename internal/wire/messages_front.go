package wire

// Front-door admission control.

// Overloaded is an edge's signed load-shed signal: instead of silently
// dropping a write when the uncertified backlog is at its admission cap,
// the edge tells the client exactly which operation was shed and when to
// come back. Seq echoes the shed entry's sequence number (writes); ReqID
// echoes the request id (reads/gets, 0 for writes). RetryAfter is a hint
// in nanoseconds — the edge's estimate of when certification progress
// will reopen admission — and Backlog is the uncertified block count
// behind the decision, for diagnostics. The signature makes the shed
// attributable: a client can prove the edge refused service, and a forged
// shed cannot silently starve someone else's session.
type Overloaded struct {
	Seq        uint64
	ReqID      uint64
	RetryAfter int64
	Backlog    uint64
	EdgeSig    []byte
}

// MsgKind implements Message.
func (*Overloaded) MsgKind() Kind { return KindOverloaded }

// EncodeTo implements Message.
func (m *Overloaded) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.EdgeSig)
}

// AppendBody appends the signable body (everything but the signature).
func (m *Overloaded) AppendBody(e *Encoder) {
	e.U64(m.Seq)
	e.U64(m.ReqID)
	e.I64(m.RetryAfter)
	e.U64(m.Backlog)
}

// DecodeFrom implements Message.
func (m *Overloaded) DecodeFrom(d *Decoder) {
	m.Seq = d.U64()
	m.ReqID = d.U64()
	m.RetryAfter = d.I64()
	m.Backlog = d.U64()
	m.EdgeSig = d.Blob()
}
