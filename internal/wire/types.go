package wire

import (
	"bytes"
	"crypto/sha256"

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

	// cache holds the block's canonical encoding, digest, key summary
	// and entries hash, populated only by an explicit Freeze — the
	// block-cut path calls it exactly once, before the block is shared.
	// Frozen blocks are immutable by contract; struct copies share the
	// cache, and the rare code that mutates a frozen copy (fault
	// injection) must call Invalidate first. Unfrozen blocks never
	// cache, so the idiomatic copy-then-mutate pattern stays safe.
	cache *blockCache
}

type blockCache struct {
	canon       []byte
	digest      []byte
	summary     BlockSummary
	entriesHash []byte
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
	e.ID(b.Edge)
	e.U64(b.ID)
	e.U64(b.StartPos)
	e.I64(b.Ts)
	e.U32(uint32(len(b.Entries)))
	for i := range b.Entries {
		b.Entries[i].EncodeTo(e)
	}
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
// format. The block digest is NOT the hash of these bytes: it hashes the
// digest preimage (BodyDigest), which additionally commits the key summary
// and splits out the entries hash so pruned references can rebind to it.
// Frozen blocks return the cached encoding; unfrozen blocks recompute on
// every call.
func (b *Block) Canonical() []byte {
	if b.cache != nil && b.cache.canon != nil {
		return b.cache.canon
	}
	var e Encoder
	b.EncodeToUncached(&e)
	return e.Bytes()
}

// Freeze computes and caches the block's canonical encoding, key
// summary, entries hash and digest. The caller asserts the block will
// never be mutated again: the log calls it exactly once when a block is
// cut (or restored), after which digest, persist, certification,
// response encoding and read pruning all reuse the same derivations —
// BlockDigest finds the digest already cached and nothing on the cut
// path hashes the entries twice.
func (b *Block) Freeze() {
	if b.cache != nil && b.cache.canon != nil {
		return
	}
	var e Encoder
	b.EncodeToUncached(&e)
	c := &blockCache{
		canon:       e.Bytes(),
		summary:     ComputeBlockSummary(b.Entries),
		entriesHash: b.computeEntriesHash(),
	}
	pe := GetEncoder()
	appendBlockDigestPreimage(pe, b.Edge, b.ID, b.StartPos, b.Ts, &c.summary, c.entriesHash)
	sum := sha256.Sum256(pe.Bytes())
	PutEncoder(pe)
	c.digest = sum[:]
	b.cache = c
}

// computeEntriesHash hashes the entries' canonical encoding (count plus
// each entry) — the entries half of the block digest preimage.
func (b *Block) computeEntriesHash() []byte {
	e := GetEncoder()
	e.U32(uint32(len(b.Entries)))
	for i := range b.Entries {
		b.Entries[i].EncodeTo(e)
	}
	sum := sha256.Sum256(e.Bytes())
	PutEncoder(e)
	return sum[:]
}

// BodyDigest returns the block's digest recomputed from its fields: the
// SHA-256 of the digest preimage — header fields, the key summary derived
// from the entries, and the hash of the encoded entries. Splitting the
// preimage this way keeps the digest recomputable from a PrunedBlock's
// fields alone, which is what lets read responses replace excluded blocks
// with their summaries without weakening the digest's bite.
//
// It never consults the frozen cache: signable bodies embed this digest,
// and a signature check must bind to the bytes the verifier actually
// holds — in-process transports move blocks by reference, so a cache
// populated by the sending node proves nothing. Signers that already hold
// the cut-time digest avoid the recompute via AppendBlockAckBody with the
// cached digest (the two agree for any block whose cache is honest).
func (b *Block) BodyDigest() []byte {
	s := ComputeBlockSummary(b.Entries)
	eh := b.computeEntriesHash()
	e := GetEncoder()
	appendBlockDigestPreimage(e, b.Edge, b.ID, b.StartPos, b.Ts, &s, eh)
	sum := sha256.Sum256(e.Bytes())
	PutEncoder(e)
	return sum[:]
}

// FrozenSummary returns the key summary and entries hash cached at
// Freeze, or ok == false for an unfrozen block. The edge's serve paths
// use it to price pruning decisions and pruned references at a lookup;
// verification paths must derive from the entries instead (a cache that
// travelled with the block proves nothing).
func (b *Block) FrozenSummary() (s BlockSummary, entriesHash []byte, ok bool) {
	if b.cache == nil || b.cache.entriesHash == nil {
		return BlockSummary{}, nil, false
	}
	return b.cache.summary, b.cache.entriesHash, true
}

// CachedDigest returns the block's cached digest, or nil if none has been
// recorded. Hashing stays in internal/wcrypto; this is only the cache.
func (b *Block) CachedDigest() []byte {
	if b.cache == nil {
		return nil
	}
	return b.cache.digest
}

// SetCachedDigest records the digest of the block's canonical encoding.
// It sticks only on frozen blocks — an unfrozen block may still be
// mutated, and a cached digest would go stale with it.
func (b *Block) SetCachedDigest(d []byte) {
	if b.cache == nil || b.cache.canon == nil {
		return
	}
	b.cache.digest = d
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
type Page struct {
	Level uint32
	Seq   uint64 // unique page number assigned by the cloud at merge time
	Lo    []byte // inclusive lower bound; nil = -infinity
	Hi    []byte // exclusive upper bound; nil = +infinity
	Ts    int64  // cloud timestamp of the merge that created the page
	KVs   []KV
}

// EncodeTo appends the page's canonical encoding.
func (p *Page) EncodeTo(e *Encoder) {
	e.U32(p.Level)
	e.U64(p.Seq)
	e.OptBlob(p.Lo)
	e.OptBlob(p.Hi)
	e.I64(p.Ts)
	e.U32(uint32(len(p.KVs)))
	for i := range p.KVs {
		p.KVs[i].EncodeTo(e)
	}
}

// DecodeFrom reads the page.
func (p *Page) DecodeFrom(d *Decoder) {
	p.Level = d.U32()
	p.Seq = d.U64()
	p.Lo = d.OptBlob()
	p.Hi = d.OptBlob()
	p.Ts = d.I64()
	p.KVs = decodeSlice(d, minKVSize, (*KV).DecodeFrom)
}

// Leaf returns the Merkle leaf hash committing the page: the hash of its
// range bounds and of the hash of its canonical encoding. Committing the
// bounds inside the leaf is what lets clients verify non-existence from a
// single intersecting page. It lives here, beside Block.BodyDigest, so
// signable bodies can stand a page in by its leaf.
func (p *Page) Leaf() []byte {
	e := GetEncoder()
	p.EncodeTo(e)
	content := sha256.Sum256(e.Bytes())
	e.Reset()
	e.OptBlob(p.Lo)
	e.OptBlob(p.Hi)
	e.Blob(content[:])
	leaf := merkle.LeafHash(e.Bytes())
	PutEncoder(e)
	return leaf
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
