package wire

import "errors"

// Messages of the replica-group extension: a shard's chain is served by a
// small group of edge nodes — one leader, the rest followers mirroring the
// leader's frozen-block log — and the trusted cloud arbitrates leadership.
// The chain identity (the NodeID blocks, certificates, and gossip are keyed
// by) stays stable across leader changes; only the serving node changes.

// ReplicateBlock ships a frozen block from a shard leader to a follower,
// live as the leader cuts it or as one frame of a catch-up run.
// LeaderSig signs the block-ack body (BID ‖ digest) — byte-for-byte the
// same signable body as PutResponse — so replication is
// Phase I evidence against the leader: a follower that later receives a
// cloud certificate for the same BID with a different digest repackages
// the replicated block and this signature as a PutResponse and files a
// DisputeAddLie, convicting the equivocating leader through the existing
// judge with no new adjudication code.
//
// Through is the leader's block count when it sent the frame (BID+1 on a
// live frame): a follower that has installed the catch-up run it asked
// for and is still short of Through asks for the next one. Cert, when
// present, is the block's cloud certificate (catch-up ships it with
// every certified block), so the follower checks the content against it
// before installing and advances its certified prefix without a cloud
// round-trip. Neither field is signed by the leader: Through is a hint,
// and the certificate carries the cloud's own signature.
//
// Run marks the mirror of a run ack: Block holds the run as the writer's
// PutResponse does, LeaderSig is the same run-ack signature, and Through
// and Cert are unset. It is encoded in the certificate flag (2), so a
// block frame's bytes are those it had before runs existed.
type ReplicateBlock struct {
	Chain     NodeID // chain (shard) identity the block belongs to
	Leader    NodeID // serving node that cut and signed the block
	Block     Block
	LeaderSig []byte
	Through   uint64
	Cert      *BlockProof // nil when the frame carries no certificate
	Run       bool

	encSize int // cached encoded size; see sizeMemoized
}

// MsgKind implements Message.
func (*ReplicateBlock) MsgKind() Kind { return KindReplicateBlock }

// EncodeTo implements Message.
func (m *ReplicateBlock) EncodeTo(e *Encoder) {
	e.ID(m.Chain)
	e.ID(m.Leader)
	m.Block.EncodeTo(e)
	e.Blob(m.LeaderSig)
	e.U64(m.Through)
	switch {
	case m.Run:
		e.U32(2)
	case m.Cert == nil:
		e.U32(0)
	default:
		e.U32(1)
		m.Cert.EncodeTo(e)
	}
}

// AppendBody appends the signable body shared with PutResponse: the
// size-independent block-ack body, or the run-ack body of a run.
func (m *ReplicateBlock) AppendBody(e *Encoder) {
	if m.Run {
		AppendRunAckBody(e, m.Block.Edge, m.Block.ID, m.Block.StartPos, m.Block.Entries)
		return
	}
	AppendBlockAckBody(e, m.Block.ID, m.Block.BodyDigest())
}

// DecodeFrom implements Message.
func (m *ReplicateBlock) DecodeFrom(d *Decoder) {
	m.Chain = d.ID()
	m.Leader = d.ID()
	m.Block.DecodeFrom(d)
	m.LeaderSig = d.Blob()
	m.Through = d.U64()
	m.Cert, m.Run = nil, false
	switch d.U32() {
	case 0:
	case 2:
		m.Run = true
	case 1:
		m.Cert = new(BlockProof)
		m.Cert.DecodeFrom(d)
	default:
		if d.err == nil {
			d.err = errors.New("wire: invalid certificate flag")
		}
	}
	m.encSize = 0
}

func (m *ReplicateBlock) encodedSizeMemo() int { return m.encSize }

func (m *ReplicateBlock) memoizeEncodedSize(n int) {
	if m.Block.frozen() {
		m.encSize = n
	}
}

// ReplicaHeartbeat is a replica's periodic signed liveness and progress
// report to the cloud: how much of the chain's log it holds (Blocks), how
// far its certified prefix extends (Certified, the count of leading
// blocks with cloud certificates), and the view it holds — the epoch it
// adopted and the leader it recognises (itself when leading, empty after
// a restart). The cloud refreshes the leader's lease only from a
// heartbeat of the named leader leading at the current epoch, answers a
// member holding another view with the current one, and picks the
// promotion candidate with the longest certified prefix — safe precisely
// because lazy trust makes the certified frontier the durable prefix.
type ReplicaHeartbeat struct {
	Node      NodeID // reporting replica
	Chain     NodeID // chain it serves
	Blocks    uint64 // frozen blocks held (mirrored or self-cut)
	Certified uint64 // length of the certified prefix (blocks 0..Certified-1)
	Epoch     uint64 // epoch of the view the replica holds
	Leader    NodeID // leader the replica recognises; empty after a restart
	Ts        int64
	Sig       []byte
}

// MsgKind implements Message.
func (*ReplicaHeartbeat) MsgKind() Kind { return KindReplicaHeartbeat }

// EncodeTo implements Message.
func (m *ReplicaHeartbeat) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.Sig)
}

// AppendBody appends the bytes the replica signs.
func (m *ReplicaHeartbeat) AppendBody(e *Encoder) {
	e.ID(m.Node)
	e.ID(m.Chain)
	e.U64(m.Blocks)
	e.U64(m.Certified)
	e.U64(m.Epoch)
	e.ID(m.Leader)
	e.I64(m.Ts)
}

// DecodeFrom implements Message.
func (m *ReplicaHeartbeat) DecodeFrom(d *Decoder) {
	m.Node = d.ID()
	m.Chain = d.ID()
	m.Blocks = d.U64()
	m.Certified = d.U64()
	m.Epoch = d.U64()
	m.Leader = d.ID()
	m.Ts = d.I64()
	m.Sig = d.Blob()
}

// LeadershipTransfer is the cloud's signed view of a replicated chain:
// its leader and followers under a per-chain epoch. It is the one
// membership message. A failover moves leadership to a new node
// (NewLeader != Prev); a rejoin re-admits a member under the same leader
// (NewLeader == Prev) and lists it in Followers. Epoch strictly increases
// per chain, so every replica and client can order views and ignore stale
// ones: a replica adopts the highest view it has seen, and clients that
// verify CloudSig rebind their session to NewLeader and resend in-flight
// operations. The old leader's signed promises remain convicting evidence
// against it.
type LeadershipTransfer struct {
	Chain     NodeID // chain whose leadership changed
	Epoch     uint64 // per-chain view epoch (the registered group is epoch 0)
	Prev      NodeID // leader before this view (NewLeader itself on a rejoin)
	NewLeader NodeID
	Followers []NodeID // followers under NewLeader
	Reason    string   // "lease expired", "convicted", "rejoin", ...
	Ts        int64
	CloudSig  []byte
}

// MsgKind implements Message.
func (*LeadershipTransfer) MsgKind() Kind { return KindLeadershipTransfer }

// EncodeTo implements Message.
func (m *LeadershipTransfer) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.CloudSig)
}

// AppendBody appends the bytes the cloud signs.
func (m *LeadershipTransfer) AppendBody(e *Encoder) {
	e.ID(m.Chain)
	e.U64(m.Epoch)
	e.ID(m.Prev)
	e.ID(m.NewLeader)
	e.U32(uint32(len(m.Followers)))
	for _, id := range m.Followers {
		e.ID(id)
	}
	e.Str(m.Reason)
	e.I64(m.Ts)
}

// DecodeFrom implements Message.
func (m *LeadershipTransfer) DecodeFrom(d *Decoder) {
	m.Chain = d.ID()
	m.Epoch = d.U64()
	m.Prev = d.ID()
	m.NewLeader = d.ID()
	m.Followers = decodeIDs(d)
	m.Reason = d.Str()
	m.Ts = d.I64()
	m.CloudSig = d.Blob()
}
