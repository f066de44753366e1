package wire

import (
	"bytes"
	"fmt"

	"wedgechain/internal/merkle"
)

// Entry is a single client-proposed datum: a log record for add() or a
// key-value write for put(). Clients sign entries; edges and the cloud
// verify the signature before accepting, which yields the paper's validity
// guarantee (every logged entry was proposed by an authenticated client).
type Entry struct {
	Client NodeID // authenticated producer
	Seq    uint64 // client-local sequence number (idempotence / replay defence)
	Key    []byte // nil for pure log entries; the key for put()
	Value  []byte // payload
	Ts     int64  // client timestamp, virtual nanoseconds
	Pos    uint64 // reserved absolute log position + 1; 0 = unreserved
	Sig    []byte // client signature over AppendBody's bytes
}

// EncodeTo appends the entry's canonical encoding including the signature.
func (en *Entry) EncodeTo(e *Encoder) {
	en.AppendBody(e)
	e.Blob(en.Sig)
}

// AppendBody appends the bytes the client signs: everything except the
// signature itself.
func (en *Entry) AppendBody(e *Encoder) {
	e.ID(en.Client)
	e.U64(en.Seq)
	e.Blob(en.Key)
	e.Blob(en.Value)
	e.I64(en.Ts)
	e.U64(en.Pos)
}

// encodeOwned appends what EncodeTo does, in the same order, and re-points
// Key, Value and Sig at the copies it wrote; e must already have room.
func (en *Entry) encodeOwned(e *Encoder) {
	e.ID(en.Client)
	e.U64(en.Seq)
	en.Key = e.blobView(en.Key)
	en.Value = e.blobView(en.Value)
	e.I64(en.Ts)
	e.U64(en.Pos)
	en.Sig = e.blobView(en.Sig)
}

// DecodeFrom reads the entry.
func (en *Entry) DecodeFrom(d *Decoder) {
	en.Client = d.ID()
	en.Seq = d.U64()
	en.Key = d.Blob()
	en.Value = d.Blob()
	en.Ts = d.I64()
	en.Pos = d.U64()
	en.Sig = d.Blob()
}

// Equal reports whether two entries are identical, including signatures.
func (en *Entry) Equal(o *Entry) bool {
	return en.Client == o.Client && en.Seq == o.Seq &&
		bytes.Equal(en.Key, o.Key) && bytes.Equal(en.Value, o.Value) &&
		en.Ts == o.Ts && en.Pos == o.Pos && bytes.Equal(en.Sig, o.Sig)
}

// Block is a batch of entries appended to an edge node's log. Block IDs are
// unique monotonic numbers per edge node (not globally unique). StartPos is
// the absolute log position of the first entry, supporting the reservation
// extension and gossip-based omission detection.
type Block struct {
	Edge     NodeID
	ID       uint64
	StartPos uint64
	Ts       int64 // edge timestamp at block cut
	Entries  []Entry

	// cache holds the block's canonical encoding, digest and key index,
	// populated only by an explicit Freeze — the block-cut path calls it
	// exactly once, before the block is shared. Frozen blocks are
	// immutable by contract; struct copies share the cache, and the rare
	// code that mutates a frozen copy (fault injection) must call
	// Invalidate first. Unfrozen blocks never cache, so the idiomatic
	// copy-then-mutate pattern stays safe.
	cache *blockCache
}

type blockCache struct {
	canon  []byte
	digest []byte
	count  int // entries, still known once Release drops them
	// index is the key order and Merkle tree the digest was folded from,
	// which read slices are cut out of. Only the node that owns the block
	// touches it: present from Freeze until Release, rebuilt by Slice if
	// it is needed again.
	index *keyIndex
}

// EncodeTo appends the block's canonical encoding, serving cached bytes
// when Canonical has been computed.
func (b *Block) EncodeTo(e *Encoder) {
	if b.cache != nil && b.cache.canon != nil {
		e.Raw(b.cache.canon)
		return
	}
	b.EncodeToUncached(e)
}

// EncodeToUncached appends the block's canonical encoding recomputed from
// its fields, bypassing the cache. Verification paths that judge blocks
// received from other nodes use it: in-process transports move blocks by
// reference, so a stale or adversarial cache must never be able to
// satisfy a digest check.
func (b *Block) EncodeToUncached(e *Encoder) {
	b.encodeHeader(e)
	for i := range b.Entries {
		b.Entries[i].EncodeTo(e)
	}
}

func (b *Block) encodeHeader(e *Encoder) {
	e.ID(b.Edge)
	e.U64(b.ID)
	e.U64(b.StartPos)
	e.I64(b.Ts)
	e.U32(uint32(len(b.Entries)))
}

// DecodeFrom reads the block.
func (b *Block) DecodeFrom(d *Decoder) {
	b.Edge = d.ID()
	b.ID = d.U64()
	b.StartPos = d.U64()
	b.Ts = d.I64()
	b.Entries = decodeSlice(d, minEntrySize, (*Entry).DecodeFrom)
	b.cache = nil
}

// Canonical returns the block's canonical encoding — the wire and persist
// format, entries in log order. The block digest is NOT the hash of these
// bytes: it commits a Merkle root over the entries in key order
// (BodyDigest). Frozen blocks return the cached encoding; unfrozen blocks
// recompute on every call.
func (b *Block) Canonical() []byte {
	if b.cache != nil && b.cache.canon != nil {
		return b.cache.canon
	}
	var e Encoder
	b.EncodeToUncached(&e)
	return e.Bytes()
}

// Freeze computes and caches the block's canonical encoding, key index
// and digest. The caller asserts the block will never be mutated again:
// the log calls it exactly once when a block is cut (or restored), after
// which persist, certification, response encoding and read slices all
// reuse the same derivations and nothing on the cut path hashes an entry
// twice.
// It also takes the entries over: see freeze.
func (b *Block) Freeze() {
	if b.frozen() {
		return
	}
	ix := buildKeyIndex(b.Entries)
	b.freeze(ix, blockDigest(b.Edge, b.ID, b.StartPos, b.Ts, uint32(len(b.Entries)), ix.tree.Root()))
}

// FreezeWithDigest freezes a block whose digest the caller has already
// recomputed from these very fields — a follower installing a replicated
// block it just verified — so the entries are not hashed a second time. No
// key index is kept; Slice builds one if this node ever serves the block.
// The entries are taken over as by Freeze.
func (b *Block) FreezeWithDigest(digest []byte) {
	if !b.frozen() {
		b.freeze(nil, digest)
	}
}

// freeze writes the canonical encoding and re-points every entry's byte
// fields at the offsets it wrote them to, so the block keeps one copy of
// its bytes and not the frame or record its entries were decoded from.
// Entries then alias the bytes that go on the wire and to disk: nothing
// may write through an entry's byte slices.
func (b *Block) freeze(ix *keyIndex, digest []byte) {
	// Size first: growing a buffer to a 25 KB block by doubling allocates
	// four times the block.
	size := Encoder{counting: true}
	b.EncodeToUncached(&size)
	e := Encoder{buf: make([]byte, 0, size.n)}
	b.encodeHeader(&e)
	for i := range b.Entries {
		b.Entries[i].encodeOwned(&e)
	}
	b.cache = &blockCache{canon: e.Bytes(), digest: digest, count: len(b.Entries), index: ix}
}

// Release drops a frozen block's decoded entries and key index — a block
// that has left the L0 window is served whole, if ever, and no longer
// sliced — keeping its canonical bytes, digest and entry count. Decoded
// brings the entries back on demand.
func (b *Block) Release() {
	if b.frozen() {
		b.cache.index = nil
		b.Entries = nil
	}
}

// Evict drops what Release drops and the canonical bytes too, keeping
// the digest and entry count: the owner holds the bytes elsewhere (a
// durable segment) and brings the block back with Reload. The block gets
// a cache of its own, so a copy still sharing the old one keeps its
// bytes.
func (b *Block) Evict() {
	if b.frozen() {
		b.Entries = nil
		b.cache = &blockCache{digest: b.cache.digest, count: b.cache.count}
	}
}

// Evicted reports whether Evict dropped the block's canonical bytes.
func (b *Block) Evicted() bool { return b.cache != nil && b.cache.canon == nil }

// Reload returns an evicted block rebuilt from canon, its canonical bytes
// read back from wherever the owner keeps them: decoded zero-copy (canon
// must not be written afterwards) and its digest, which covers the header
// too, recomputed and checked against the one b was frozen with, so bytes
// that changed where they were kept come back as an error, never as a
// block that contradicts its certificate.
func (b *Block) Reload(canon []byte) (*Block, error) {
	cp := new(Block)
	d := NewDecoderZeroCopy(canon)
	cp.DecodeFrom(d)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if !bytes.Equal(cp.BodyDigest(), b.CachedDigest()) {
		return nil, fmt.Errorf("wire: block %d reloads with another digest", b.ID)
	}
	cp.cache = &blockCache{canon: canon, digest: b.cache.digest, count: len(cp.Entries)}
	return cp, nil
}

// Len returns the number of entries in the block, released, evicted or
// not.
func (b *Block) Len() int {
	if b.cache != nil {
		return b.cache.count
	}
	return len(b.Entries)
}

// Decoded returns the block with its entries: b itself unless Release
// dropped them, else a copy that shares b's cache and whose entries are
// decoded zero-copy from the canonical bytes.
func (b *Block) Decoded() *Block {
	if b.Entries != nil || b.Len() == 0 {
		return b
	}
	var cp Block
	cp.DecodeFrom(NewDecoderZeroCopy(b.cache.canon))
	cp.cache = b.cache
	return &cp
}

// BodyDigest returns the block's digest recomputed from its fields: the
// SHA-256 of Edge, ID, StartPos, Ts, the entry count and the Merkle root
// over the entries in (key, index) order (see L0Slice for the leaf). A
// receiver of the whole block sorts and folds; a reader of a slice folds
// the rows it was sent with a range proof to the same root, which is what
// lets a read ship the rows it proves instead of the block.
//
// It never consults the frozen cache: signable bodies embed this digest,
// and a signature check must bind to the bytes the verifier actually
// holds — in-process transports move blocks by reference, so a cache
// populated by the sending node proves nothing. Signers that already hold
// the cut-time digest avoid the recompute via AppendBlockAckBody with the
// cached digest (the two agree for any block whose cache is honest).
func (b *Block) BodyDigest() []byte {
	digestCalls.Add(1)
	n := len(b.Entries)
	leaves := make([]byte, n*merkle.HashSize)
	hashLeaves(b.Entries, keyOrder(b.Entries), nil, leaves)
	return blockDigest(b.Edge, b.ID, b.StartPos, b.Ts, uint32(n), merkle.PackedRoot(leaves))
}

// CachedDigest returns the digest a frozen block was frozen with, or nil
// for an unfrozen block. Hashing stays in internal/wcrypto; this is only
// the cache.
func (b *Block) CachedDigest() []byte {
	if b.cache == nil {
		return nil
	}
	return b.cache.digest
}

// Invalidate drops the cached encoding and digest, un-freezing the block.
// Any code that mutates a frozen copy's fields must call it first, or
// stale bytes would be served.
func (b *Block) Invalidate() { b.cache = nil }

// frozen reports whether the block carries a cached canonical encoding —
// the immutability contract gate for encoded-size memoization.
func (b *Block) frozen() bool { return b.cache != nil && b.cache.canon != nil }

// KV is one key-version-value record inside an LSMerkle page. Ver orders
// versions of the same key: higher wins.
type KV struct {
	Key   []byte
	Value []byte
	Ver   uint64
}

// EncodeTo appends the record's canonical encoding.
func (kv *KV) EncodeTo(e *Encoder) {
	e.Blob(kv.Key)
	e.Blob(kv.Value)
	e.U64(kv.Ver)
}

// DecodeFrom reads the record.
func (kv *KV) DecodeFrom(d *Decoder) {
	kv.Key = d.Blob()
	kv.Value = d.Blob()
	kv.Ver = d.U64()
}

// Page is an LSMerkle page at level >= 1: a sorted run of KV records
// covering the half-open key range [Lo, Hi). Lo == nil means -infinity and
// Hi == nil means +infinity. Consecutive pages in a level satisfy
// prev.Hi == next.Lo, so the level's pages partition the keyspace — the
// contiguity invariant clients use to verify non-existence proofs.
//
// A page commits a Merkle root over its Count records in key order (see
// Leaf), so a read ships it cut (Cut): KVs is then the run of records at
// sorted positions [Begin, Begin+len(KVs)) and PathLeft/PathRight the
// range proof folding them to that root. A whole page — what merges ship
// and levels hold — is the cut with every record: Begin 0, Count
// len(KVs), no paths.
type Page struct {
	Level     uint32
	Seq       uint64 // unique page number assigned by the cloud at merge time
	Lo        []byte // inclusive lower bound; nil = -infinity
	Hi        []byte // exclusive upper bound; nil = +infinity
	Ts        int64  // cloud timestamp of the merge that created the page
	Count     uint32 // records in the whole page
	Begin     uint32 // sorted position of KVs[0]
	KVs       []KV
	PathLeft  [][]byte // range-proof flank paths of a cut, bottom-up
	PathRight [][]byte
}

// EncodeTo appends the page's canonical encoding.
func (p *Page) EncodeTo(e *Encoder) {
	e.U32(p.Level)
	e.U64(p.Seq)
	e.OptBlob(p.Lo)
	e.OptBlob(p.Hi)
	e.I64(p.Ts)
	e.U32(p.Count)
	e.U32(p.Begin)
	e.U32(uint32(len(p.KVs)))
	for i := range p.KVs {
		p.KVs[i].EncodeTo(e)
	}
	appendBlobs(e, p.PathLeft)
	appendBlobs(e, p.PathRight)
}

// DecodeFrom reads the page.
func (p *Page) DecodeFrom(d *Decoder) {
	p.Level = d.U32()
	p.Seq = d.U64()
	p.Lo = d.OptBlob()
	p.Hi = d.OptBlob()
	p.Ts = d.I64()
	p.Count = d.U32()
	p.Begin = d.U32()
	p.KVs = decodeSlice(d, minKVSize, (*KV).DecodeFrom)
	p.PathLeft = decodeBlobs(d)
	p.PathRight = decodeBlobs(d)
}

// Contains reports whether key falls in the page's half-open range.
func (p *Page) Contains(key []byte) bool {
	if p.Lo != nil && bytes.Compare(key, p.Lo) < 0 {
		return false
	}
	if p.Hi != nil && bytes.Compare(key, p.Hi) >= 0 {
		return false
	}
	return true
}

// SignedRoot is the cloud-signed commitment to an edge's entire LSMerkle
// index: the global root (hash over all level roots), an epoch counter that
// increments on every merge, a cloud timestamp enabling the freshness
// window check of Section V-D, and the compaction frontier — the first
// block id NOT yet merged into the levels. Committing the frontier is what
// lets read verifiers demand that a served L0 window *start* exactly where
// the signed index state ends: without it, an edge could silently drop the
// oldest certified-but-uncompacted blocks and still present a valid-looking
// completeness proof.
type SignedRoot struct {
	Edge     NodeID
	Epoch    uint64
	Root     []byte
	Ts       int64
	L0From   uint64 // first uncompacted block id at signing time
	CloudSig []byte
}

// EncodeTo appends the signed root including the signature.
func (r *SignedRoot) EncodeTo(e *Encoder) {
	r.AppendBody(e)
	e.Blob(r.CloudSig)
}

// AppendBody appends the bytes the cloud signs.
func (r *SignedRoot) AppendBody(e *Encoder) {
	e.ID(r.Edge)
	e.U64(r.Epoch)
	e.Blob(r.Root)
	e.I64(r.Ts)
	e.U64(r.L0From)
}

// DecodeFrom reads the signed root.
func (r *SignedRoot) DecodeFrom(d *Decoder) {
	r.Edge = d.ID()
	r.Epoch = d.U64()
	r.Root = d.Blob()
	r.Ts = d.I64()
	r.L0From = d.U64()
	r.CloudSig = d.Blob()
}
