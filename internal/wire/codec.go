// Package wire defines WedgeChain's canonical binary wire format and the
// complete protocol message set exchanged among clients, edge nodes and the
// cloud node.
//
// All encoding is deterministic ("canonical"): encoding a decoded message
// reproduces the input bytes exactly. Signatures throughout the system are
// computed over these canonical encodings, so determinism is a correctness
// requirement, not an optimization.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// maxLen bounds any length-prefixed field to guard against corrupt or
// hostile inputs allocating unbounded memory during decode.
const maxLen = 1 << 30

// ErrTruncated reports that a decoder ran out of input mid-message.
var ErrTruncated = errors.New("wire: truncated input")

// Encoder accumulates the canonical encoding of a message. The zero value is
// ready to use.
//
// A counting encoder (see EncodedSize in wire.go) walks the same EncodeTo
// code paths but only sums field widths, never touching a buffer — the
// allocation-free way to learn a message's encoded size.
type Encoder struct {
	buf      []byte
	n        int  // bytes counted in counting mode
	counting bool // count widths instead of storing bytes
}

// Bytes returns the accumulated encoding. The returned slice aliases the
// encoder's internal buffer. Counting encoders have no bytes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded (or counted) so far.
func (e *Encoder) Len() int {
	if e.counting {
		return e.n
	}
	return len(e.buf)
}

// Reset discards the accumulated encoding, retaining capacity and mode.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.n = 0
}

// U8 appends a single byte.
func (e *Encoder) U8(v uint8) {
	if e.counting {
		e.n++
		return
	}
	e.buf = append(e.buf, v)
}

// U16 appends a big-endian 16-bit value.
func (e *Encoder) U16(v uint16) {
	if e.counting {
		e.n += 2
		return
	}
	e.buf = binary.BigEndian.AppendUint16(e.buf, v)
}

// U32 appends a big-endian 32-bit value.
func (e *Encoder) U32(v uint32) {
	if e.counting {
		e.n += 4
		return
	}
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// U64 appends a big-endian 64-bit value.
func (e *Encoder) U64(v uint64) {
	if e.counting {
		e.n += 8
		return
	}
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// I64 appends a big-endian 64-bit signed value (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Bool appends a boolean as a single 0/1 byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Raw appends pre-encoded canonical bytes verbatim — the fast path for
// fields whose encoding is already cached (see Block.Canonical).
func (e *Encoder) Raw(b []byte) {
	if e.counting {
		e.n += len(b)
		return
	}
	e.buf = append(e.buf, b...)
}

// Blob appends a length-prefixed byte string. nil and empty encode
// identically; use OptBlob when the distinction matters.
func (e *Encoder) Blob(b []byte) {
	e.U32(uint32(len(b)))
	if e.counting {
		e.n += len(b)
		return
	}
	e.buf = append(e.buf, b...)
}

// blobView appends b as Blob does and returns the copy it wrote, capped so
// an append to it cannot run into the next field; empty b comes back as
// it was.
func (e *Encoder) blobView(b []byte) []byte {
	e.Blob(b)
	if len(b) == 0 {
		return b
	}
	n := len(e.buf)
	return e.buf[n-len(b) : n : n]
}

// OptBlob appends a presence flag followed by a length-prefixed byte string,
// preserving the nil / non-nil distinction (used for ±infinity range
// sentinels in LSMerkle pages).
func (e *Encoder) OptBlob(b []byte) {
	if b == nil {
		e.U8(0)
		return
	}
	e.U8(1)
	e.Blob(b)
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	if e.counting {
		e.n += len(s)
		return
	}
	e.buf = append(e.buf, s...)
}

// ID appends a node identity.
func (e *Encoder) ID(id NodeID) { e.Str(string(id)) }

// maxPooledEncoder bounds the buffer capacity an encoder may keep when
// returned to the pool, so one giant merge payload doesn't pin memory.
const maxPooledEncoder = 1 << 20

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder returns a reset encoder from the shared pool. Callers must
// copy or consume Bytes() before PutEncoder — the buffer is reused.
func GetEncoder() *Encoder {
	return encoderPool.Get().(*Encoder)
}

// PutEncoder returns an encoder to the pool for reuse.
func PutEncoder(e *Encoder) {
	if e == nil || e.counting || cap(e.buf) > maxPooledEncoder {
		return
	}
	e.Reset()
	encoderPool.Put(e)
}

// Decoder consumes a canonical encoding. Errors are sticky: after the first
// failure every subsequent read returns a zero value and Err reports the
// original cause.
type Decoder struct {
	buf      []byte
	off      int
	err      error
	zeroCopy bool
}

// NewDecoder returns a decoder reading from b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// NewDecoderZeroCopy returns a decoder whose Blob and OptBlob results
// alias b instead of copying it. Only safe when the caller transfers
// ownership of b to the decoded message — e.g. a transport that allocated
// the frame buffer and never reuses it.
func NewDecoderZeroCopy(b []byte) *Decoder { return &Decoder{buf: b, zeroCopy: true} }

// Err returns the first error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Finish reports an error if input remains unconsumed or a decode error
// occurred. Canonical decoding must consume the entire message.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("wire: %d trailing bytes after message", len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads a single byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian 16-bit value.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian 32-bit value.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian 64-bit value.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a big-endian 64-bit signed value.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Bool reads a 0/1 byte; any other value is a decode error.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.err = errors.New("wire: invalid bool")
		}
		return false
	}
}

// Blob reads a length-prefixed byte string. The result is a copy — unless
// the decoder is in zero-copy mode (NewDecoderZeroCopy), in which case it
// aliases the input buffer. Zero-length blobs decode as nil for canonical
// re-encoding (Blob treats nil and empty identically).
func (d *Decoder) Blob() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > maxLen {
		d.err = fmt.Errorf("wire: blob length %d exceeds limit", n)
		return nil
	}
	b := d.take(int(n))
	if b == nil || n == 0 {
		return nil
	}
	if d.zeroCopy {
		return b[:n:n]
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// OptBlob reads a presence-flagged byte string written by Encoder.OptBlob.
func (d *Decoder) OptBlob() []byte {
	switch d.U8() {
	case 0:
		return nil
	case 1:
		b := d.Blob()
		if b == nil && d.err == nil {
			// Present but empty: preserve non-nil-ness.
			return []byte{}
		}
		return b
	default:
		if d.err == nil {
			d.err = errors.New("wire: invalid optional flag")
		}
		return nil
	}
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.U32()
	if d.err != nil {
		return ""
	}
	if n > maxLen {
		d.err = fmt.Errorf("wire: string length %d exceeds limit", n)
		return ""
	}
	b := d.take(int(n))
	return string(b)
}

// ID reads a node identity.
func (d *Decoder) ID() NodeID { return NodeID(d.Str()) }

// Minimum encoded sizes of the element types slices are decoded into: the
// fixed-width fields plus one length or count prefix per variable-length
// field — what the zero value encodes to (TestMinSizesMatchZeroValues).
const (
	minBlobSize            = 4                                             // length prefix; also a NodeID or a uint32
	minEntrySize           = 4 + 8 + 4 + 4 + 8 + 8 + 4                     // Client Seq Key Value Ts Pos Sig
	minKVSize              = 4 + 4 + 8                                     // Key Value Ver
	minBlockSize           = 4 + 8 + 8 + 8 + 4                             // Edge ID StartPos Ts len(Entries)
	minPageSize            = 4 + 8 + 1 + 1 + 8 + 4 + 4 + 4 + 4 + 4         // Level Seq Lo Hi Ts Count Begin len(KVs) len(PathLeft) len(PathRight)
	minBlockProofSize      = 4 + 8 + 4 + 4                                 // Edge BID Digest CloudSig
	minSliceRowSize        = 4 + minEntrySize                              // Index Entry
	minL0SliceSize         = 4 + 8 + 8 + 8 + 4 + 4 + 1 + 4 + 1 + 4 + 4 + 4 // Edge ID StartPos Ts Count Begin Left len(Rows) Right len(PathLeft) len(PathRight) CertSig
	minLevelProofSize      = 4 + minPageSize + 4 + 4 + 4                   // Level Page Index Width len(Path)
	minLevelRangeProofSize = 4 + 4 + 4 + 4 + 4 + 4                         // Level First Width len(Pages) len(Left) len(Right)
)

// count reads the element count of a slice whose elements encode to at
// least minSize bytes each. Decoding runs on bytes no signature has
// vouched for yet, and callers allocate the slice before reading its
// elements, so a count the remaining input cannot hold fails here as
// truncation: what a frame can make a decoder allocate is bounded by the
// frame's own size.
func (d *Decoder) count(minSize int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if n > maxLen {
		d.err = fmt.Errorf("wire: count %d exceeds limit", n)
		return 0
	}
	if int(n) > (len(d.buf)-d.off)/minSize {
		d.fail()
		return 0
	}
	return int(n)
}

// decodeSlice reads a counted sequence of T, each at least minSize bytes
// encoded, using the element decoder fn (typically a method expression such
// as (*Block).DecodeFrom). An empty sequence decodes as nil so round-tripped
// messages compare equal.
func decodeSlice[T any](d *Decoder, minSize int, fn func(*T, *Decoder)) []T {
	n := d.count(minSize)
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		fn(&out[i], d)
	}
	return out
}

// decodeIDs reads a counted sequence of node identities.
func decodeIDs(d *Decoder) []NodeID {
	return decodeSlice(d, minBlobSize, func(id *NodeID, d *Decoder) { *id = d.ID() })
}

// decodeBlobs reads a counted sequence of length-prefixed byte strings,
// decoding an empty sequence as nil.
func decodeBlobs(d *Decoder) [][]byte {
	return decodeSlice(d, minBlobSize, func(b *[]byte, d *Decoder) { *b = d.Blob() })
}

// appendBlobs appends the counted sequence decodeBlobs reads.
func appendBlobs(e *Encoder, bs [][]byte) {
	e.U32(uint32(len(bs)))
	for _, b := range bs {
		e.Blob(b)
	}
}
