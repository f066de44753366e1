// Package wcrypto is WedgeChain's cryptographic substrate: Ed25519
// identities and signatures, SHA-256 digests, and the key registry that
// binds node identities to public keys.
//
// Two rules hold for every signature in the system, both enforced inside
// the only two functions that call crypto/ed25519 (KeyPair.Sign and
// Registry.Verify). Hash once: Ed25519 runs over the 32-byte SHA-256
// digest of a fixed context tag followed by the signable body, so a body
// of any size costs one hash per signer and one per verifier. Verify
// once: a Registry remembers the (public key, body digest, signature)
// triples that passed, so a byte-identical statement presented again
// costs a hash and a lookup instead of a curve operation.
//
// Identities being known and bound to keys is the premise of lazy
// certification (Section II-D of the paper): a malicious edge cannot deny
// its signed statements, cannot forge others', and cannot re-enter under a
// fresh identity after punishment.
package wcrypto

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"sync"

	"wedgechain/internal/obs"
	"wedgechain/internal/wire"
)

// DigestSize is the size in bytes of a block/page digest.
const DigestSize = sha256.Size

// Digest returns the SHA-256 digest of b. Block digests, page hashes and
// Merkle nodes all use this one-way function; agreement on a digest
// therefore implies agreement on the data (data-free certification).
func Digest(b []byte) []byte {
	h := sha256.Sum256(b)
	return h[:]
}

// KeyPair is a node's Ed25519 identity.
type KeyPair struct {
	ID   wire.NodeID
	Pub  ed25519.PublicKey
	Priv ed25519.PrivateKey
}

// GenerateKey creates a fresh random identity for id.
func GenerateKey(id wire.NodeID) (KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return KeyPair{}, fmt.Errorf("wcrypto: generating key for %s: %w", id, err)
	}
	return KeyPair{ID: id, Pub: pub, Priv: priv}, nil
}

// DeterministicKey derives a key pair from id alone. Used by the simulator
// and tests for reproducible runs; real deployments use GenerateKey.
func DeterministicKey(id wire.NodeID) KeyPair {
	seed := sha256.Sum256([]byte("wedgechain-key-seed:" + string(id)))
	priv := ed25519.NewKeyFromSeed(seed[:])
	return KeyPair{ID: id, Pub: priv.Public().(ed25519.PublicKey), Priv: priv}
}

// signTag is the context tag every signed digest starts from. It
// separates WedgeChain statements from any other use of a node's key and
// names the scheme: changing the tag, the hash or a body encoding is a
// format break (TestSignatureGoldenVector pins all three).
const signTag = "wedgechain/sig/v2\x00"

// signedDigest returns SHA-256(signTag ‖ msg), the 32 bytes Ed25519
// actually signs.
func signedDigest(msg []byte) (d [sha256.Size]byte) {
	h := sha256.New()
	h.Write([]byte(signTag))
	h.Write(msg)
	h.Sum(d[:0])
	return d
}

// Sign signs msg with the pair's private key.
func (k KeyPair) Sign(msg []byte) []byte {
	d := signedDigest(msg)
	return ed25519.Sign(k.Priv, d[:])
}

// verified identifies one signature check completely: Ed25519
// verification is a deterministic function of these three values, so a
// triple that passed once passes always.
type verified struct {
	pub    [ed25519.PublicKeySize]byte
	digest [sha256.Size]byte
	sig    [ed25519.SignatureSize]byte
}

// memoGen is the capacity of one generation of a registry's
// verified-signature memo; two generations are kept, so a registry
// remembers at most 2*memoGen triples (0.5 MB of keys, about 1 MB with
// the map's slack).
const memoGen = 2048

// Registry maps node identities to public keys. It is safe for concurrent
// use. Every node holds (a copy of) the registry; in the paper's model the
// application owner distributes it out of band.
//
// A registry also memoises the signature checks that succeeded against
// it (successes only: a forgery is never recorded). The memo is keyed by
// the public-key bytes, not the identity, so rebinding an identity with
// Register can never be answered from entries verified under the old key.
// It is allocated on first insert and holds two generations of at most
// memoGen triples: when the current one fills it becomes the previous one
// and the oldest is dropped.
type Registry struct {
	mu        sync.RWMutex
	keys      map[wire.NodeID]ed25519.PublicKey
	cur, prev map[verified]struct{}

	// Mirrors of the verification outcomes (see AttachMetrics); nil-safe
	// no-ops until attached.
	mHits, mMisses, mBad *obs.Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{keys: make(map[wire.NodeID]ed25519.PublicKey)}
}

// Register binds id to pub, replacing any previous binding.
func (r *Registry) Register(id wire.NodeID, pub ed25519.PublicKey) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys[id] = pub
}

// Lookup returns the public key bound to id.
func (r *Registry) Lookup(id wire.NodeID) (ed25519.PublicKey, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	pub, ok := r.keys[id]
	return pub, ok
}

// AttachMetrics mirrors the registry's verification outcomes into reg as
// wedge_wcrypto_*_total series labeled {node}: signatures answered from
// the verified-signature memo, signatures that took an Ed25519
// verification and passed, and signatures rejected.
func (r *Registry) AttachMetrics(reg *obs.Registry, node string) {
	if reg == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mHits = reg.CounterVec("wedge_wcrypto_verify_memo_hits_total", "signature checks answered from the verified-signature memo", "node").With(node)
	r.mMisses = reg.CounterVec("wedge_wcrypto_verify_memo_misses_total", "signature checks that ran Ed25519 and passed", "node").With(node)
	r.mBad = reg.CounterVec("wedge_wcrypto_bad_signatures_total", "signature checks that failed", "node").With(node)
}

// Verify checks sig over msg against id's registered key.
func (r *Registry) Verify(id wire.NodeID, msg, sig []byte) error {
	r.mu.RLock()
	pub, ok := r.keys[id]
	hits, misses, bad := r.mHits, r.mMisses, r.mBad
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("wcrypto: unknown identity %q", id)
	}
	if len(sig) != ed25519.SignatureSize || len(pub) != ed25519.PublicKeySize {
		bad.Inc()
		return fmt.Errorf("wcrypto: bad signature from %q", id)
	}
	// The body is hashed outside the lock: it can be a megabyte.
	v := verified{digest: signedDigest(msg)}
	copy(v.pub[:], pub)
	copy(v.sig[:], sig)
	r.mu.RLock()
	_, hit := r.cur[v]
	if !hit {
		_, hit = r.prev[v]
	}
	r.mu.RUnlock()
	if hit {
		hits.Inc()
		return nil
	}
	if !ed25519.Verify(pub, v.digest[:], sig) {
		bad.Inc()
		return fmt.Errorf("wcrypto: bad signature from %q", id)
	}
	misses.Inc()
	r.mu.Lock()
	r.remember(v)
	r.mu.Unlock()
	return nil
}

// remember records a triple that passed Ed25519. The caller holds r.mu.
func (r *Registry) remember(v verified) {
	if len(r.cur) >= memoGen {
		// Rotate: the previous generation is forgotten and its storage
		// reused, so a busy registry stops allocating after two fills.
		r.cur, r.prev = r.prev, r.cur
		clear(r.cur)
	}
	if r.cur == nil {
		r.cur = make(map[verified]struct{})
	}
	r.cur[v] = struct{}{}
}

// Signable is any message type carrying a signature over its canonical
// body encoding.
type Signable = wire.BodyAppender

// SignMsg returns the signature for a signable message body.
func SignMsg(k KeyPair, m Signable) []byte {
	e := wire.GetEncoder()
	m.AppendBody(e)
	sig := k.Sign(e.Bytes())
	wire.PutEncoder(e)
	return sig
}

// VerifyMsg checks a signable message's signature against signer's
// registered key.
func VerifyMsg(r *Registry, signer wire.NodeID, m Signable, sig []byte) error {
	e := wire.GetEncoder()
	m.AppendBody(e)
	err := r.Verify(signer, e.Bytes(), sig)
	wire.PutEncoder(e)
	return err
}

// BlockDigest returns the block's digest — the hash of its header fields,
// entry count and the Merkle root over its entries in key order
// (wire.Block.BodyDigest) — served from the digest a frozen block was
// frozen with, so digesting, persisting and certifying a freshly cut
// block derive it exactly once. Use it only on blocks the caller owns
// (its own log, decoded wire input); when judging a block that arrived by
// reference from another node, use RecomputedBlockDigest.
func BlockDigest(b *wire.Block) []byte {
	if d := b.CachedDigest(); d != nil {
		return d
	}
	return b.BodyDigest()
}

// RecomputedBlockDigest recomputes a block's digest from its fields,
// ignoring any cached bytes. Adjudication and verification paths use it
// because in-process transports move blocks by reference and a cache
// populated by the accused node proves nothing. (The hash itself lives on
// wire.Block so signable bodies can embed it; this wrapper keeps the one
// digest entry point callers already use.)
func RecomputedBlockDigest(b *wire.Block) []byte {
	return b.BodyDigest()
}

// SignBlockAck signs the size-independent block acknowledgement body
// (BID + digest) for a block whose digest the caller already holds — the
// edge's hot path, where the digest was cached at block cut. The resulting
// signature verifies through the generic VerifyMsg path on PutResponse,
// whose signable body recomputes the digest from the block it carries.
func SignBlockAck(k KeyPair, bid uint64, digest []byte) []byte {
	e := wire.GetEncoder()
	wire.AppendBlockAckBody(e, bid, digest)
	sig := k.Sign(e.Bytes())
	wire.PutEncoder(e)
	return sig
}

// VerifyBlockAck checks a block-ack signature against signer's registered
// key given the block digest the caller computed from the received block.
// Clients use it to fold the digest they need anyway (for the Phase II
// certification match) into the signature check, instead of hashing the
// block a second time inside VerifyMsg.
func VerifyBlockAck(r *Registry, signer wire.NodeID, bid uint64, digest, sig []byte) error {
	e := wire.GetEncoder()
	wire.AppendBlockAckBody(e, bid, digest)
	err := r.Verify(signer, e.Bytes(), sig)
	wire.PutEncoder(e)
	return err
}

// SignReadResponse signs a read response whose block digest the caller
// already holds (the edge's cut-time cache), skipping the per-read block
// re-hash the generic SignMsg path would pay. Only for responses whose
// Block actually hashes to digest — the honest serve path; tampering
// faults must sign through SignMsg so the signature matches what ships.
func SignReadResponse(k KeyPair, m *wire.ReadResponse, digest []byte) []byte {
	e := wire.GetEncoder()
	m.AppendBodyWithDigest(e, digest)
	sig := k.Sign(e.Bytes())
	wire.PutEncoder(e)
	return sig
}

// VerifyReadResponse checks a read response's signature given the digest
// the caller computed from the block it received — VerifyBlockAck's
// counterpart for reads.
func VerifyReadResponse(r *Registry, signer wire.NodeID, m *wire.ReadResponse, digest []byte) error {
	e := wire.GetEncoder()
	m.AppendBodyWithDigest(e, digest)
	err := r.Verify(signer, e.Bytes(), m.EdgeSig)
	wire.PutEncoder(e)
	return err
}

// SignMergeRequest signs a merge request over the block digests the
// caller already holds — the edge's cut-time digests. Only for requests
// whose blocks actually hash to them; anything else must sign through
// SignMsg so the signature matches what ships.
func SignMergeRequest(k KeyPair, m *wire.MergeRequest, l0Digests [][]byte) []byte {
	e := wire.GetEncoder()
	m.AppendBodyWithDigests(e, l0Digests)
	sig := k.Sign(e.Bytes())
	wire.PutEncoder(e)
	return sig
}

// VerifyMergeRequest checks a merge request's signature given the block
// digests the caller computed from the blocks it received — the digests
// the cloud needs anyway, so no shipped byte is hashed a second time
// inside VerifyMsg.
func VerifyMergeRequest(r *Registry, signer wire.NodeID, m *wire.MergeRequest, l0Digests [][]byte) error {
	e := wire.GetEncoder()
	m.AppendBodyWithDigests(e, l0Digests)
	err := r.Verify(signer, e.Bytes(), m.EdgeSig)
	wire.PutEncoder(e)
	return err
}
