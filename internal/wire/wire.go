package wire

import (
	"fmt"
)

// NodeID identifies a participant: a client, an edge node, or the cloud
// node. Identities are public, known, and bound to signing keys in the key
// registry — the premise that makes lazy certification's "detect and punish"
// model enforceable.
type NodeID string

// Kind discriminates message types on the wire.
type Kind uint16

// Message kinds. Values are part of the wire format: append only, and a
// retired value is never reused (TestKindNumbersPinned holds every number).
const (
	KindInvalid Kind = iota

	// 1 and 2 are retired: they were the log-append request and response
	// before an append became a write whose entry has no key.
	_
	_

	// Logging protocol (Section IV).
	KindBlockCertify
	KindBlockProof
	KindReadRequest
	KindReadResponse
	KindGossip
	KindDispute
	KindVerdict
	KindReserveRequest
	KindReserveResponse

	// LSMerkle key-value protocol (Section V). PutResponse acknowledges
	// every write; PutRequest is sent by no node (every write is a
	// PutBatch) and is kept only because benchmark/ reads it.
	KindPutRequest
	KindPutResponse
	KindGetRequest  // retired: a get is a point-range scan (messages_get.go)
	KindGetResponse // retired
	KindMergeRequest
	KindMergeResponse

	// Baselines (Section II-C / VI). 18 and 22 are retired: they were the
	// baselines' single writes before a write became a batch of one
	// (CloudPutBatch, EBPutBatch).
	_
	KindCloudPutResponse
	KindCloudGetRequest
	KindCloudGetResponse
	_
	KindEBPutResponse
	KindEBStatePush
	KindEBStateAck

	// Measurement.
	KindPing
	KindPong

	// Batched writes (appended; values are part of the wire format).
	KindPutBatch
	KindCloudPutBatch
	KindEBPutBatch

	// Keyspace sharding (appended).
	KindShardMap

	// Verified range scans (appended).
	KindScanRequest
	KindScanResponse

	// Replica groups and cloud-arbitrated failover (appended).
	KindReplicateBlock
	KindReplicaHeartbeat
	KindLeadershipTransfer

	// Chaos recovery and certified catch-up (appended).
	KindCatchUpRequest
	// 38 is retired: it was the catch-up response before a catch-up run
	// became ReplicateBlock frames.
	_
	// 39 is retired: it was the group join before a rejoin became a
	// LeadershipTransfer view.
	_
	KindFrontierRequest

	// Front-door admission control (appended).
	KindOverloaded

	// Batched certification (appended). Nothing sends or reads these
	// kinds; see messages_certbatch.go.
	KindBlockCertifyBatch
	KindBlockCertBatch

	kindEnd // sentinel; keep last
)

// kindOf builds a kind's table row: its name and the constructor of the
// empty message DecodeFrom fills.
func kindOf[T any, P interface {
	*T
	Message
}](name string) kindInfo {
	return kindInfo{name: name, new: func() Message { return P(new(T)) }}
}

type kindInfo struct {
	name string
	new  func() Message
}

// kinds is the one declaration of every live kind beside its constant; a
// value without a row — retired, or never assigned — has no name and does
// not decode.
var kinds = [kindEnd]kindInfo{
	KindBlockCertify:       kindOf[BlockCertify]("BlockCertify"),
	KindBlockProof:         kindOf[BlockProof]("BlockProof"),
	KindReadRequest:        kindOf[ReadRequest]("ReadRequest"),
	KindReadResponse:       kindOf[ReadResponse]("ReadResponse"),
	KindGossip:             kindOf[Gossip]("Gossip"),
	KindDispute:            kindOf[Dispute]("Dispute"),
	KindVerdict:            kindOf[Verdict]("Verdict"),
	KindReserveRequest:     kindOf[ReserveRequest]("ReserveRequest"),
	KindReserveResponse:    kindOf[ReserveResponse]("ReserveResponse"),
	KindPutRequest:         kindOf[PutRequest]("PutRequest"),
	KindPutResponse:        kindOf[PutResponse]("PutResponse"),
	KindGetRequest:         kindOf[GetRequest]("GetRequest"),
	KindGetResponse:        kindOf[GetResponse]("GetResponse"),
	KindMergeRequest:       kindOf[MergeRequest]("MergeRequest"),
	KindMergeResponse:      kindOf[MergeResponse]("MergeResponse"),
	KindCloudPutResponse:   kindOf[CloudPutResponse]("CloudPutResponse"),
	KindCloudGetRequest:    kindOf[CloudGetRequest]("CloudGetRequest"),
	KindCloudGetResponse:   kindOf[CloudGetResponse]("CloudGetResponse"),
	KindEBPutResponse:      kindOf[EBPutResponse]("EBPutResponse"),
	KindEBStatePush:        kindOf[EBStatePush]("EBStatePush"),
	KindEBStateAck:         kindOf[EBStateAck]("EBStateAck"),
	KindPing:               kindOf[Ping]("Ping"),
	KindPong:               kindOf[Pong]("Pong"),
	KindPutBatch:           kindOf[PutBatch]("PutBatch"),
	KindCloudPutBatch:      kindOf[CloudPutBatch]("CloudPutBatch"),
	KindEBPutBatch:         kindOf[EBPutBatch]("EBPutBatch"),
	KindShardMap:           kindOf[ShardMap]("ShardMap"),
	KindScanRequest:        kindOf[ScanRequest]("ScanRequest"),
	KindScanResponse:       kindOf[ScanResponse]("ScanResponse"),
	KindReplicateBlock:     kindOf[ReplicateBlock]("ReplicateBlock"),
	KindReplicaHeartbeat:   kindOf[ReplicaHeartbeat]("ReplicaHeartbeat"),
	KindLeadershipTransfer: kindOf[LeadershipTransfer]("LeadershipTransfer"),
	KindCatchUpRequest:     kindOf[CatchUpRequest]("CatchUpRequest"),
	KindFrontierRequest:    kindOf[FrontierRequest]("FrontierRequest"),
	KindOverloaded:         kindOf[Overloaded]("Overloaded"),
	KindBlockCertifyBatch:  kindOf[BlockCertifyBatch]("BlockCertifyBatch"),
	KindBlockCertBatch:     kindOf[BlockCertBatch]("BlockCertBatch"),
}

// String returns the human-readable name of the kind.
func (k Kind) String() string {
	if k < kindEnd && kinds[k].name != "" {
		return kinds[k].name
	}
	return fmt.Sprintf("Kind(%d)", uint16(k))
}

// BodyAppender is implemented by everything that carries a signature —
// messages, entries, signed roots: AppendBody appends the signable body,
// everything except the signature, to an existing encoder, so signing and
// verification run on pooled buffers.
type BodyAppender interface {
	AppendBody(e *Encoder)
}

// BodyBytes returns m's signable body in a fresh buffer, for callers that
// keep the bytes (tests, digest keys); signing and verification go through
// wcrypto, which pools the encoder.
func BodyBytes(m BodyAppender) []byte {
	var e Encoder
	m.AppendBody(&e)
	return e.Bytes()
}

// Message is any protocol message with a canonical encoding.
type Message interface {
	// MsgKind identifies the concrete type on the wire.
	MsgKind() Kind
	// EncodeTo appends the message's canonical encoding.
	EncodeTo(e *Encoder)
	// DecodeFrom reads the message from d; errors surface via d.Err.
	DecodeFrom(d *Decoder)
}

// newMessage constructs an empty message of the given kind for decoding.
func newMessage(k Kind) (Message, error) {
	if k >= kindEnd || kinds[k].new == nil {
		return nil, fmt.Errorf("wire: unknown message kind %d", uint16(k))
	}
	return kinds[k].new(), nil
}

// Envelope is a routed message: the unit the transports and the simulator
// move between nodes. It carries nothing beyond what goes on the wire: the
// receiving node checks every signature itself.
type Envelope struct {
	From NodeID
	To   NodeID
	Msg  Message
}

// EncodeEnvelope produces the canonical encoding of an envelope, suitable
// for framing over TCP or for size accounting in the simulator.
func EncodeEnvelope(env Envelope) []byte {
	var e Encoder
	appendEnvelope(&e, env)
	return e.Bytes()
}

// AppendEnvelope appends an envelope's canonical encoding to an existing
// encoder — the allocation-free path for transports that pool buffers.
func AppendEnvelope(e *Encoder, env Envelope) { appendEnvelope(e, env) }

func appendEnvelope(e *Encoder, env Envelope) {
	e.U16(uint16(env.Msg.MsgKind()))
	e.ID(env.From)
	e.ID(env.To)
	env.Msg.EncodeTo(e)
}

// DecodeEnvelope parses an envelope previously produced by EncodeEnvelope.
// The decoded message owns fresh copies of every byte field.
func DecodeEnvelope(b []byte) (Envelope, error) {
	return decodeEnvelope(NewDecoder(b))
}

// DecodeEnvelopeOwned parses an envelope from a buffer whose ownership
// transfers to the decoded message: byte fields alias b instead of being
// copied. Transports that allocate one buffer per frame use it to halve
// decode allocations.
func DecodeEnvelopeOwned(b []byte) (Envelope, error) {
	return decodeEnvelope(NewDecoderZeroCopy(b))
}

func decodeEnvelope(d *Decoder) (Envelope, error) {
	k := Kind(d.U16())
	from := d.ID()
	to := d.ID()
	if d.Err() != nil {
		return Envelope{}, d.Err()
	}
	msg, err := newMessage(k)
	if err != nil {
		return Envelope{}, err
	}
	msg.DecodeFrom(d)
	if err := d.Finish(); err != nil {
		return Envelope{}, fmt.Errorf("wire: decoding %v: %w", k, err)
	}
	return Envelope{From: from, To: to, Msg: msg}, nil
}

// EncodeMessage returns the canonical encoding of a bare message (without
// routing headers). Used for embedding messages as dispute evidence.
func EncodeMessage(m Message) []byte {
	var e Encoder
	e.U16(uint16(m.MsgKind()))
	m.EncodeTo(&e)
	return e.Bytes()
}

// DecodeMessage parses a bare message produced by EncodeMessage.
func DecodeMessage(b []byte) (Message, error) {
	d := NewDecoder(b)
	k := Kind(d.U16())
	if d.Err() != nil {
		return nil, d.Err()
	}
	msg, err := newMessage(k)
	if err != nil {
		return nil, err
	}
	msg.DecodeFrom(d)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("wire: decoding %v: %w", k, err)
	}
	return msg, nil
}

// sizeMemoized is implemented by messages that can cache their own encoded
// size. A message only accepts the memo (memoizeEncodedSize stores it) when
// its contents are immutable by contract — in practice, when every embedded
// block is frozen. Fault paths that tamper a block Invalidate its freeze
// first, so a tampered message keeps recounting and can never serve a stale
// size. DecodeFrom resets the memo.
type sizeMemoized interface {
	encodedSizeMemo() int     // 0 = not memoized
	memoizeEncodedSize(n int) // no-op unless the message is immutable
}

// EncodedSize reports the encoded size of an envelope in bytes by summing
// field widths through a counting encoder — no buffer is allocated and no
// bytes are produced. The simulator uses it to model bandwidth
// serialization delay; the edge and cloud stats counters use it for
// coordination-byte accounting.
//
// Messages carrying frozen blocks memoize their body size on first use
// (sizeMemoized), so the discrete-event simulator's per-message size charge
// degenerates to a field read for the responses that dominate its traffic.
func EncodedSize(env Envelope) int {
	if mm, ok := env.Msg.(sizeMemoized); ok {
		hdr := 2 + 4 + len(env.From) + 4 + len(env.To) // kind + both IDs
		if n := mm.encodedSizeMemo(); n > 0 {
			return hdr + n
		}
		e := Encoder{counting: true}
		env.Msg.EncodeTo(&e)
		mm.memoizeEncodedSize(e.n)
		return hdr + e.n
	}
	e := Encoder{counting: true}
	appendEnvelope(&e, env)
	return e.n
}
