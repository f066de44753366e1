package wcrypto

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/sha512"
	"errors"
	"fmt"
	"math/big"

	"wedgechain/internal/wire"
)

// Pairwise MACs. Client C and edge E share k(C, E): each maps its own
// Ed25519 secret and the other's registered public key to X25519, as
// libsodium's crypto_sign_ed25519_{sk,pk}_to_curve25519 do, runs the
// exchange, and keys HMAC-SHA256 with the result over macTag ‖ C ‖ 0 ‖ E.
// Forging C's message to E needs C's or E's secret key; a message replayed
// to another edge fails there, because that edge holds another key.

// macTag starts both the pair-key derivation input and every MAC input;
// changing it, the hash or the layout is a format break.
const macTag = "wedgechain/mac/v1\x00"

// MACSize is the size in bytes of a MAC.
const MACSize = sha256.Size

// errBadKey rejects a key that maps to no X25519 key.
var errBadKey = errors.New("wcrypto: key maps to no X25519 key")

// p25519 is the field prime 2^255 - 19.
var p25519 = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))

// montgomeryPub maps an Ed25519 public key to the X25519 public key of the
// same secret: the Edwards y becomes the Montgomery u = (1+y)/(1-y) mod p,
// whatever the sign of x. It touches public data only, so math/big's
// variable time is harmless. y >= p (a non-canonical encoding) and y = 1
// (the identity, where 1-y has no inverse) are rejected.
func montgomeryPub(pub ed25519.PublicKey) ([]byte, error) {
	if len(pub) != ed25519.PublicKeySize {
		return nil, errBadKey
	}
	be := make([]byte, 32)
	for i, b := range pub {
		be[31-i] = b
	}
	be[0] &= 0x7f // the sign of x
	y, one := new(big.Int).SetBytes(be), big.NewInt(1)
	if y.Cmp(p25519) >= 0 || y.Cmp(one) == 0 {
		return nil, errBadKey
	}
	u := new(big.Int).Sub(one, y)
	u.ModInverse(u.Mod(u, p25519), p25519)
	u.Mul(u, y.Add(y, one)).Mod(u, p25519)
	u.FillBytes(be)
	for i := 0; i < 16; i++ {
		be[i], be[31-i] = be[31-i], be[i]
	}
	return be, nil
}

// montgomeryPriv maps an Ed25519 private key to the X25519 secret of the
// same scalar: the first half of SHA-512(seed); X25519 clamps it.
func montgomeryPriv(priv ed25519.PrivateKey) (*ecdh.PrivateKey, error) {
	h := sha512.Sum512(priv.Seed())
	return ecdh.X25519().NewPrivateKey(h[:32])
}

// derivePairKey returns k(client, edge) as self derives it against the
// other party's public key peer.
func derivePairKey(self ed25519.PrivateKey, peer ed25519.PublicKey, client, edge wire.NodeID) (key [MACSize]byte, err error) {
	u, err := montgomeryPub(peer)
	if err != nil {
		return key, err
	}
	sk, err := montgomeryPriv(self)
	if err != nil {
		return key, err
	}
	pk, err := ecdh.X25519().NewPublicKey(u)
	if err != nil {
		return key, err
	}
	shared, err := sk.ECDH(pk) // fails on a low-order result
	if err != nil {
		return key, err
	}
	h := hmac.New(sha256.New, shared)
	h.Write([]byte(macTag))
	h.Write([]byte(client))
	h.Write([]byte{0})
	h.Write([]byte(edge))
	h.Sum(key[:0])
	return key, nil
}

// pairSlot names one pair key among those derived against a peer: the
// local public key, so two key pairs under one identity never share a key
// in a registry they share, and the ordered pair the key is for. Like
// crypto/ed25519, it trusts a private key's second half to be the public
// key of its seed.
type pairSlot struct {
	local        [ed25519.PublicKeySize]byte
	client, edge wire.NodeID
}

// pairKey returns k(client, edge) for self, who must be one of the two: it
// is derived once from self's secret and the other party's registered key,
// and cached next to that key until Register rebinds it.
func (r *Registry) pairKey(self KeyPair, client, edge wire.NodeID) (*[MACSize]byte, error) {
	other := client
	if self.ID == client {
		other = edge
	} else if self.ID != edge {
		return nil, fmt.Errorf("wcrypto: %q is neither %q nor %q", self.ID, client, edge)
	}
	if len(self.Priv) != ed25519.PrivateKeySize {
		return nil, errBadKey
	}
	slot := pairSlot{client: client, edge: edge}
	copy(slot.local[:], self.Priv[ed25519.SeedSize:])
	r.mu.RLock()
	p, ok := r.keys[other]
	var k *[MACSize]byte
	if ok {
		k = p.pairs[slot]
	}
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("wcrypto: unknown identity %q", other)
	}
	if k != nil {
		return k, nil
	}
	key, err := derivePairKey(self.Priv, p.pub, client, edge)
	if err != nil {
		return nil, fmt.Errorf("wcrypto: pair key with %q: %w", other, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.keys[other] == p { // not rebound meanwhile
		if p.pairs == nil {
			p.pairs = make(map[pairSlot]*[MACSize]byte)
		}
		p.pairs[slot] = &key
	}
	return &key, nil
}

// macOf returns HMAC-SHA256 (RFC 2104) under key over macTag ‖ kind ‖ m's
// body. The inner hash runs over one pooled buffer that starts with the
// key's inner pad, and the outer one over a stack array, so a MAC leaves
// no garbage behind.
func macOf(key *[MACSize]byte, m MACable) [MACSize]byte {
	var outer [sha256.BlockSize + sha256.Size]byte
	copy(outer[:], key[:])
	for i := range sha256.BlockSize {
		outer[i] ^= 0x36
	}
	e := wire.GetEncoder()
	e.Raw(outer[:sha256.BlockSize])
	e.Raw([]byte(macTag))
	e.U16(uint16(m.MsgKind()))
	m.AppendBody(e)
	inner := sha256.Sum256(e.Bytes())
	wire.PutEncoder(e)
	for i := range sha256.BlockSize {
		outer[i] ^= 0x36 ^ 0x5c
	}
	copy(outer[sha256.BlockSize:], inner[:])
	return sha256.Sum256(outer[:])
}

// MACable is a message authenticated by a pairwise MAC: its kind and
// signable body are what the MAC covers.
type MACable interface {
	wire.Message
	Signable
}

// MAC returns m's MAC under k(client, edge), computed by self, one of the
// two.
func MAC(r *Registry, self KeyPair, client, edge wire.NodeID, m MACable) ([]byte, error) {
	key, err := r.pairKey(self, client, edge)
	if err != nil {
		return nil, err
	}
	mac := macOf(key, m)
	return mac[:], nil
}

// VerifyMAC checks mac over m under k(client, edge), as self, one of the
// two, derives it. The comparison is constant-time.
func VerifyMAC(r *Registry, self KeyPair, client, edge wire.NodeID, m MACable, mac []byte) error {
	key, err := r.pairKey(self, client, edge)
	if err != nil {
		return err
	}
	if want := macOf(key, m); !hmac.Equal(want[:], mac) {
		return fmt.Errorf("wcrypto: bad MAC under the (%q, %q) pair key", client, edge)
	}
	return nil
}
