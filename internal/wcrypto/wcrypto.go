// Package wcrypto is WedgeChain's cryptographic substrate: Ed25519
// identities and signatures, pairwise MACs derived from the same keys,
// SHA-256 digests, and the key registry that binds node identities to
// public keys.
//
// Every statement a third party checks — acks, read responses,
// certificates, views, heartbeats, disputes, verdicts — is signed. Two
// rules hold for every signature, both enforced inside the only two
// functions that call crypto/ed25519 (KeyPair.Sign and Registry.Verify).
// Hash once: Ed25519 runs over the 32-byte SHA-256 digest of a fixed
// context tag followed by the signable body, so a body of any size costs
// one hash per signer and one per verifier. Verify once: a Registry
// remembers a fingerprint of each (public key, body digest, signature)
// triple that passed, so a byte-identical statement presented again costs
// two hashes and a lookup instead of a curve operation.
//
// A message only its receiver ever checks — a client's write batch — is
// MACed instead (mac.go): HMAC-SHA256 under k(C, E), a key client C and
// edge E each derive from their own Ed25519 secret and the other's
// registered public key through X25519, and the registry caches next to
// that public key. A MAC convinces only its receiver, so it never stands
// where evidence is needed.
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

// fingerprint identifies one signature check: SHA-256 over the 128 bytes
// pub ‖ digest ‖ sig. Ed25519 verification is a deterministic function of
// that triple, so a triple that passed once passes always. Another triple
// with the same fingerprint would be answered as verified, crediting pub
// with a statement its owner never signed; finding one is a SHA-256
// second preimage of a triple already verified under pub, and the one
// party that gains from a false statement under pub, its owner, can sign
// it instead.
type fingerprint [sha256.Size]byte

// fingerprintOf returns the fingerprint of a check of sig over digest
// under pub; pub and sig have their Ed25519 sizes.
func fingerprintOf(pub ed25519.PublicKey, digest *[sha256.Size]byte, sig []byte) fingerprint {
	var b [ed25519.PublicKeySize + sha256.Size + ed25519.SignatureSize]byte
	copy(b[:], pub)
	copy(b[ed25519.PublicKeySize:], digest[:])
	copy(b[ed25519.PublicKeySize+sha256.Size:], sig)
	return sha256.Sum256(b[:])
}

// memoGen is the capacity of one generation of a registry's
// verified-signature memo; two generations are kept, so a registry
// remembers at most 2*memoGen fingerprints (about 0.17 MB at the cap). It
// is sized from how far apart a statement is presented again, counted in
// checks against the registry from its first verification to its last
// memo hit: at most 432 on the macro benchmark's four workloads
// (mixed_cluster's client sessions), 151 in the façade's tests, examples
// and experiments outside chaos. memoGen is the first power of two at
// least twice the larger. A hit carries its statement into the current
// generation, so the bound is on the distance between two presentations,
// and one-shot statements leave within two generations.
const memoGen = 1024

// Registry maps node identities to public keys. It is safe for concurrent
// use. Every node holds (a copy of) the registry; in the paper's model the
// application owner distributes it out of band.
//
// A registry also memoises the signature checks that succeeded against
// it (successes only: a forgery is never recorded). The memo is keyed by
// the fingerprint of the public-key bytes, digest and signature, not the
// identity, so rebinding an identity with Register can never be answered
// from entries verified under the old key. It is allocated on first
// insert and holds two generations of at most memoGen fingerprints: when
// the current one fills it becomes the previous one and the oldest is
// dropped. A statement found in the previous generation moves to the
// current one, so only what is presented again outlives a rotation.
type Registry struct {
	mu        sync.RWMutex
	keys      map[wire.NodeID]*peer
	cur, prev map[fingerprint]struct{}

	// Mirrors of the verification outcomes (see AttachMetrics); nil-safe
	// no-ops until attached.
	mHits, mMisses, mBad *obs.Counter
}

// peer is one registered identity: its public key and the pair keys
// (mac.go) derived against it, allocated on first derivation.
type peer struct {
	pub   ed25519.PublicKey
	pairs map[pairSlot]*[MACSize]byte
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{keys: make(map[wire.NodeID]*peer)}
}

// Register binds id to pub, replacing any previous binding and with it
// every pair key derived against the old key.
func (r *Registry) Register(id wire.NodeID, pub ed25519.PublicKey) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys[id] = &peer{pub: pub}
}

// Lookup returns the public key bound to id.
func (r *Registry) Lookup(id wire.NodeID) (ed25519.PublicKey, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if p, ok := r.keys[id]; ok {
		return p.pub, true
	}
	return nil, false
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
	p, ok := r.keys[id]
	hits, misses, bad := r.mHits, r.mMisses, r.mBad
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("wcrypto: unknown identity %q", id)
	}
	pub := p.pub
	if len(sig) != ed25519.SignatureSize || len(pub) != ed25519.PublicKeySize {
		bad.Inc()
		return fmt.Errorf("wcrypto: bad signature from %q", id)
	}
	// The body is hashed outside the lock: it can be a megabyte.
	digest := signedDigest(msg)
	fp := fingerprintOf(pub, &digest, sig)
	r.mu.RLock()
	_, hit := r.cur[fp]
	_, old := r.prev[fp]
	r.mu.RUnlock()
	if old && !hit {
		// Presented again: carried into the current generation, so a
		// statement outlives the rotation as long as it keeps coming back.
		r.mu.Lock()
		delete(r.prev, fp)
		r.remember(fp)
		r.mu.Unlock()
	}
	if hit || old {
		hits.Inc()
		return nil
	}
	if !ed25519.Verify(pub, digest[:], sig) {
		bad.Inc()
		return fmt.Errorf("wcrypto: bad signature from %q", id)
	}
	misses.Inc()
	r.mu.Lock()
	r.remember(fp)
	r.mu.Unlock()
	return nil
}

// remember records the fingerprint of a triple that passed Ed25519. The
// caller holds r.mu.
func (r *Registry) remember(fp fingerprint) {
	if len(r.cur) >= memoGen {
		// Rotate: the previous generation is forgotten and its storage
		// reused, so a busy registry stops allocating after two fills.
		r.cur, r.prev = r.prev, r.cur
		clear(r.cur)
	}
	if r.cur == nil {
		r.cur = make(map[fingerprint]struct{})
	}
	r.cur[fp] = struct{}{}
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
