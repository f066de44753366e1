package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"testing/quick"
)

func TestEncoderDecoderRoundTripScalars(t *testing.T) {
	var e Encoder
	e.U8(0xAB)
	e.U16(0xBEEF)
	e.U32(0xDEADBEEF)
	e.U64(0x0123456789ABCDEF)
	e.I64(-42)
	e.Bool(true)
	e.Bool(false)
	e.Str("hello")
	e.ID(NodeID("edge-1"))

	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 0xAB {
		t.Errorf("U8 = %x", got)
	}
	if got := d.U16(); got != 0xBEEF {
		t.Errorf("U16 = %x", got)
	}
	if got := d.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %x", got)
	}
	if got := d.U64(); got != 0x0123456789ABCDEF {
		t.Errorf("U64 = %x", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Bool(); got != true {
		t.Errorf("Bool = %v", got)
	}
	if got := d.Bool(); got != false {
		t.Errorf("Bool = %v", got)
	}
	if got := d.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	if got := d.ID(); got != NodeID("edge-1") {
		t.Errorf("ID = %q", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestBlobRoundTripProperty(t *testing.T) {
	f := func(b []byte) bool {
		var e Encoder
		e.Blob(b)
		d := NewDecoder(e.Bytes())
		got := d.Blob()
		return d.Finish() == nil && bytes.Equal(got, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOptBlobPreservesNil(t *testing.T) {
	cases := [][]byte{nil, {}, {1}, {0, 0, 0}}
	for _, c := range cases {
		var e Encoder
		e.OptBlob(c)
		d := NewDecoder(e.Bytes())
		got := d.OptBlob()
		if err := d.Finish(); err != nil {
			t.Fatalf("OptBlob(%v): %v", c, err)
		}
		if (got == nil) != (c == nil) {
			t.Errorf("OptBlob(%v) nil-ness changed: got %v", c, got)
		}
		if !bytes.Equal(got, c) {
			t.Errorf("OptBlob(%v) = %v", c, got)
		}
	}
}

func TestDecoderTruncation(t *testing.T) {
	var e Encoder
	e.U64(7)
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		d.U64()
		if d.Err() == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder(nil)
	d.U64() // fails
	first := d.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	d.U32()
	d.Blob()
	if d.Err() != first {
		t.Fatalf("error not sticky: %v != %v", d.Err(), first)
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	var e Encoder
	e.U8(1)
	e.U8(2)
	d := NewDecoder(e.Bytes())
	d.U8()
	if err := d.Finish(); err == nil {
		t.Fatal("Finish accepted trailing bytes")
	}
}

func TestBoolRejectsNonCanonical(t *testing.T) {
	d := NewDecoder([]byte{2})
	d.Bool()
	if d.Err() == nil {
		t.Fatal("Bool accepted byte 2")
	}
}

func TestBlobLengthLimit(t *testing.T) {
	var e Encoder
	e.U32(1 << 31) // absurd length prefix
	d := NewDecoder(e.Bytes())
	d.Blob()
	if d.Err() == nil {
		t.Fatal("Blob accepted absurd length")
	}
}

// allocatedBytes reports the heap bytes f allocates: the smallest of a few
// readings, since the process-wide counter also sees whatever the runtime
// and other tests' goroutines allocate meanwhile.
func allocatedBytes(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// countCase is one counted sequence the decoder allocates for: elements of
// at least min bytes, inside a container that reads head zero bytes before
// the count and tail after the elements.
type countCase struct {
	name       string
	min        int
	head, tail int
	decode     func(*Decoder)
}

func sliceCase[T any](name string, min int, fn func(*T, *Decoder)) countCase {
	return countCase{name, min, 0, 0, func(d *Decoder) { decodeSlice(d, min, fn) }}
}

// TestCountBoundedByRemainingInput: decoding runs before any signature is
// checked, and the slice helpers allocate before they read an element. A
// 20-byte frame claiming 2^30 elements must fail as truncated input
// without allocating for the claim.
func TestCountBoundedByRemainingInput(t *testing.T) {
	var e Encoder
	e.U16(uint16(KindCloudPutBatch))
	e.ID("a")
	e.ID("b")
	e.U32(1 << 30) // entry count
	e.U32(0)       // four stray bytes: 20 in all
	frame := e.Bytes()
	if len(frame) != 20 {
		t.Fatalf("frame is %d bytes", len(frame))
	}
	decoders := map[string]func() error{
		"envelope": func() error { _, err := DecodeEnvelope(frame); return err },
		"slice": func() error {
			d := NewDecoder(frame[12:])
			decodeSlice(d, minEntrySize, (*Entry).DecodeFrom)
			return d.Err()
		},
		"blobs": func() error {
			d := NewDecoder(frame[12:])
			decodeBlobs(d)
			return d.Err()
		},
	}
	for name, decode := range decoders {
		if err := decode(); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", name, err)
		}
		if got := allocatedBytes(func() { _ = decode() }); got >= 1<<10 {
			t.Errorf("%s: allocated %d bytes for a 20-byte frame", name, got)
		}
	}

	// The bound is exact: a count the input can hold still decodes.
	var ok Encoder
	ok.U32(2)
	ok.Blob([]byte("x"))
	ok.Blob(nil)
	d := NewDecoder(ok.Bytes())
	if got := decodeBlobs(d); len(got) != 2 || d.Finish() != nil {
		t.Fatalf("decodeBlobs = %q, err %v", got, d.Finish())
	}

	// The bound is per element type. Every element's zero value encodes to
	// min zero bytes, so k elements decode from exactly min*k zero bytes
	// (the constant is not too large) and one byte fewer fails before the
	// slice is allocated (nor too small to bound it).
	const k = 4096
	elems := []countCase{
		sliceCase("Entry", minEntrySize, (*Entry).DecodeFrom),
		sliceCase("KV", minKVSize, (*KV).DecodeFrom),
		sliceCase("Block", minBlockSize, (*Block).DecodeFrom),
		sliceCase("Page", minPageSize, (*Page).DecodeFrom),
		sliceCase("BlockProof", minBlockProofSize, (*BlockProof).DecodeFrom),
		sliceCase("L0Slice", minL0SliceSize, (*L0Slice).DecodeFrom),
		sliceCase("LevelProof", minLevelProofSize, (*LevelProof).DecodeFrom),
		sliceCase("LevelRangeProof", minLevelRangeProofSize, (*LevelRangeProof).DecodeFrom),
		{"blob", minBlobSize, 0, 0, func(d *Decoder) { decodeBlobs(d) }},
		{"SliceRow", minSliceRowSize, 4 + 8 + 8 + 8 + 4 + 4 + 1, 1 + 4 + 4 + 4, (&L0Slice{}).DecodeFrom},
		{"NodeID", minBlobSize, 8 + 8, 4 + 4, (&ShardMap{}).DecodeFrom},
	}
	for _, c := range elems {
		in := make([]byte, c.head+4+c.min*k+c.tail)
		binary.BigEndian.PutUint32(in[c.head:], k)
		short := in[:len(in)-c.tail-1]
		d := NewDecoder(in)
		c.decode(d)
		if err := d.Finish(); err != nil {
			t.Errorf("%s: %d zero elements in %d bytes: %v", c.name, k, c.min*k, err)
		}
		got := allocatedBytes(func() {
			d = NewDecoder(short)
			c.decode(d)
		})
		if !errors.Is(d.Err(), ErrTruncated) {
			t.Errorf("%s: %d elements claimed in %d bytes: err = %v, want ErrTruncated", c.name, k, c.min*k-1, d.Err())
		}
		if got >= 1<<10 {
			t.Errorf("%s: allocated %d bytes before rejecting the count", c.name, got)
		}
	}
}

// FuzzDecodeEnvelope: no input may panic the decoder, and whatever it
// accepts is canonical — re-encoding reproduces the input. The seed
// corpus is one encoded envelope of every kind (plain `go test` runs the
// seeds).
func FuzzDecodeEnvelope(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(EncodeEnvelope(Envelope{From: "a", To: "b", Msg: m}))
	}
	for _, frame := range retiredFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		env, err := DecodeEnvelope(b)
		if err != nil {
			return
		}
		if re := EncodeEnvelope(env); !bytes.Equal(re, b) {
			t.Fatalf("%v: accepted input is not canonical:\n in %x\nout %x", env.Msg.MsgKind(), b, re)
		}
	})
}
