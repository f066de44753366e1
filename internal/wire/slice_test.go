package wire

import (
	"bytes"
	"fmt"
	"testing"
)

func keyedEntry(i int, key string) Entry {
	return Entry{Client: "c1", Seq: uint64(i), Key: []byte(key), Value: []byte("v"), Sig: randBytes(64)}
}

// mustDigest folds a slice that is expected to be well-formed.
func mustDigest(t *testing.T, s *L0Slice) []byte {
	t.Helper()
	d, err := s.Digest()
	if err != nil {
		t.Fatalf("slice of block %d does not fold: %v", s.ID, err)
	}
	return d
}

// TestBlockSliceRanges pins what Slice ships for each shape of request
// over one block: the in-range rows in (key, index) order with their
// in-block indexes, the adjacent leaf on each side, and no flank past
// either end of the order. Key-less entries sort first and are never rows.
func TestBlockSliceRanges(t *testing.T) {
	blk := Block{Edge: "e", ID: 1, StartPos: 10, Ts: 5, Entries: []Entry{
		keyedEntry(1, "mango"),
		{Client: "c1", Seq: 2, Value: []byte("pure log entry")}, // no key
		keyedEntry(3, "apple"),
		keyedEntry(4, "zebra"),
		keyedEntry(5, "apple"), // duplicate key
	}}
	// Sorted order: (""·1) (apple·2) (apple·4) (mango·0) (zebra·3).
	type leaf struct {
		key string
		idx uint32
	}
	flank := func(f *SliceFlank) *leaf {
		if f == nil {
			return nil
		}
		return &leaf{string(f.Key), f.Index}
	}
	cases := []struct {
		name        string
		start, end  []byte
		begin       uint32
		left, right *leaf
		rows        []leaf
	}{
		{"everything", nil, nil, 0, &leaf{"", 1}, nil, []leaf{{"apple", 2}, {"apple", 4}, {"mango", 0}, {"zebra", 3}}},
		{"duplicate key", []byte("apple"), []byte("apple\x00"), 0, &leaf{"", 1}, &leaf{"mango", 0}, []leaf{{"apple", 2}, {"apple", 4}}},
		{"absent key", []byte("banana"), []byte("banana\x00"), 2, &leaf{"apple", 4}, &leaf{"mango", 0}, nil},
		{"before all keys", []byte("a"), []byte("aa"), 0, &leaf{"", 1}, &leaf{"apple", 2}, nil},
		{"after all keys", []byte("zz"), nil, 4, &leaf{"zebra", 3}, nil, nil},
		{"last key", []byte("zebra"), nil, 3, &leaf{"mango", 0}, nil, []leaf{{"zebra", 3}}},
		{"end excluded", nil, []byte("mango"), 0, &leaf{"", 1}, &leaf{"mango", 0}, []leaf{{"apple", 2}, {"apple", 4}}},
	}
	for _, frozen := range []bool{false, true} {
		b := blk
		if frozen {
			b.Freeze()
		}
		for _, c := range cases {
			s := b.Slice(c.start, c.end)
			var rows []leaf
			for _, r := range s.Rows {
				rows = append(rows, leaf{string(r.Entry.Key), r.Index})
				if !r.Entry.Equal(&blk.Entries[r.Index]) {
					t.Errorf("%s: row %d is not the block's entry %d", c.name, r.Index, r.Index)
				}
			}
			if s.Count != 5 || s.Begin != c.begin ||
				fmt.Sprint(flank(s.Left)) != fmt.Sprint(c.left) || fmt.Sprint(flank(s.Right)) != fmt.Sprint(c.right) ||
				fmt.Sprint(rows) != fmt.Sprint(c.rows) {
				t.Errorf("%s (frozen %v): begin %d left %v rows %v right %v, want begin %d left %v rows %v right %v",
					c.name, frozen, s.Begin, flank(s.Left), rows, flank(s.Right), c.begin, c.left, c.rows, c.right)
			}
			if !bytes.Equal(mustDigest(t, &s), blk.BodyDigest()) {
				t.Errorf("%s: slice folds to another digest than the block", c.name)
			}
		}
	}

	// A block of key-less entries has no rows for any request: one flank,
	// the last leaf, says every entry sorts before every key.
	logOnly := Block{Edge: "e", ID: 2, Entries: []Entry{{Client: "c1", Seq: 1, Value: []byte("log")}, {Client: "c1", Seq: 2}}}
	s := logOnly.Slice(nil, nil)
	if len(s.Rows) != 0 || s.Left == nil || s.Left.Index != 1 || s.Right != nil || s.Begin != 1 {
		t.Fatalf("key-less block slice: %+v", s)
	}
	// And an empty block has nothing to ship at all.
	empty := Block{Edge: "e", ID: 3}
	s = empty.Slice(nil, nil)
	if s.Count != 0 || s.Left != nil || s.Right != nil || len(s.Rows) != 0 ||
		!bytes.Equal(mustDigest(t, &s), empty.BodyDigest()) {
		t.Fatalf("empty block slice: %+v", s)
	}
}

// TestPrunedDigestMatchesBlockDigest pins the identity reads rest on: the
// digest a slice folds to equals the digest recomputed from the whole
// block, whatever the request, and any change to what the slice ships
// changes it.
func TestPrunedDigestMatchesBlockDigest(t *testing.T) {
	blk := sampleBlock()
	want := blk.BodyDigest()
	miss := blk.Slice(PointRange([]byte("no such key")))
	if !bytes.Equal(mustDigest(t, &miss), want) {
		t.Fatal("slice digest != whole block digest")
	}

	// Frozen and unfrozen derivations agree, and so does a frozen block
	// that released its index.
	frozen := blk
	frozen.Freeze()
	if !bytes.Equal(frozen.CachedDigest(), want) {
		t.Fatal("Freeze digest diverges from BodyDigest")
	}
	frozen.Release()
	hit := frozen.Slice(PointRange(blk.Entries[2].Key))
	if len(hit.Rows) != 1 || !bytes.Equal(mustDigest(t, &hit), want) {
		t.Fatal("slice cut after Release diverges")
	}

	// Any tampering of the shipped fields changes the claimed digest (or
	// leaves nothing to fold).
	order := keyOrder(blk.Entries)
	full := func() L0Slice {
		s := blk.Slice(blk.Entries[order[1]].Key, blk.Entries[order[4]].Key)
		s.Right = &SliceFlank{Key: s.Right.Key, Index: s.Right.Index, Hash: append([]byte(nil), s.Right.Hash...)}
		s.Left = &SliceFlank{Key: s.Left.Key, Index: s.Left.Index, Hash: append([]byte(nil), s.Left.Hash...)}
		s.Rows = append([]SliceRow(nil), s.Rows...)
		return s
	}
	if s := full(); s.Left == nil || len(s.Rows) != 3 {
		t.Fatalf("fixture slice too small: %+v", s)
	}
	mutations := []func(*L0Slice){
		func(s *L0Slice) { s.ID++ },
		func(s *L0Slice) { s.StartPos++ },
		func(s *L0Slice) { s.Ts++ },
		func(s *L0Slice) { s.Edge = "edge-2" },
		func(s *L0Slice) { s.Count++ },
		func(s *L0Slice) { s.Begin++ },
		func(s *L0Slice) { s.Left.Hash[0] ^= 1 },
		func(s *L0Slice) { s.Left.Index++ },
		func(s *L0Slice) { s.Left.Key = []byte("earlier") },
		func(s *L0Slice) { s.Left = nil },
		func(s *L0Slice) { s.Right.Hash[31] ^= 1 },
		func(s *L0Slice) { s.Right = nil },
		func(s *L0Slice) { s.Rows[0].Index++ },
		func(s *L0Slice) { s.Rows[0].Entry.Value = []byte("forged") },
		func(s *L0Slice) { s.Rows[1].Entry.Key = []byte("moved") },
		func(s *L0Slice) { s.Rows = s.Rows[1:] },
		func(s *L0Slice) { s.Rows[0], s.Rows[1] = s.Rows[1], s.Rows[0] },
		func(s *L0Slice) { s.PathLeft = append(s.PathLeft, randBytes(32)) },
	}
	for i, mut := range mutations {
		s := full()
		mut(&s)
		if d, err := s.Digest(); err == nil && bytes.Equal(d, want) {
			t.Fatalf("mutation %d did not change the claimed digest", i)
		}
	}
}

// TestBlockDigestCommitsKeys pins that two blocks differing only in entry
// KEYS, or only in the ORDER of their entries, produce different digests:
// the key and the in-block index are inside every leaf.
func TestBlockDigestCommitsKeys(t *testing.T) {
	e1, e2 := keyedEntry(1, "aaa"), keyedEntry(2, "bbb")
	a := Block{Edge: "e", ID: 1, StartPos: 10, Ts: 5, Entries: []Entry{e1, e2}}
	b := a
	b.Entries = []Entry{e1, {Client: "c1", Seq: 2, Key: []byte("bbc"), Value: e2.Value, Sig: e2.Sig}}
	if bytes.Equal(a.BodyDigest(), b.BodyDigest()) {
		t.Fatal("digest does not separate different keys")
	}
	b.Entries = []Entry{e2, e1}
	if bytes.Equal(a.BodyDigest(), b.BodyDigest()) {
		t.Fatal("digest does not separate log orders of the same entries")
	}
}

// TestSliceRoundTrip: an honest slice survives the wire and folds to the
// same digest on the other side.
func TestSliceRoundTrip(t *testing.T) {
	var entries []Entry
	for i := 0; i < 10; i++ {
		entries = append(entries, keyedEntry(i, fmt.Sprintf("key-%03d", i*i%7)))
	}
	blk := Block{Edge: "e", ID: 3, StartPos: 30, Ts: 9, Entries: entries}
	for _, s := range []L0Slice{
		blk.Slice(nil, nil),
		blk.Slice([]byte("key-002"), []byte("key-005")),
		blk.Slice(PointRange([]byte("key-003"))),
		(&Block{Edge: "e", ID: 4}).Slice(nil, nil), // empty
	} {
		s.CertSig = randBytes(64)
		var e Encoder
		s.EncodeTo(&e)
		var got L0Slice
		d := NewDecoder(e.Bytes())
		got.DecodeFrom(d)
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
		var re Encoder
		got.EncodeTo(&re)
		if !bytes.Equal(re.Bytes(), e.Bytes()) {
			t.Fatalf("slice of block %d: encoding not canonical", s.ID)
		}
		if !bytes.Equal(mustDigest(t, &got), mustDigest(t, &s)) {
			t.Fatalf("slice of block %d: digest changed across the wire", s.ID)
		}
	}
}
