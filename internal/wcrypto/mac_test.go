package wcrypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	"testing"

	"wedgechain/internal/wire"
)

// pairRegistries returns the registry client c holds (edge e's key) and
// the one e holds (c's key): the two sides derive k(c, e) apart.
func pairRegistries(c, e KeyPair) (atClient, atEdge *Registry) {
	atClient, atEdge = NewRegistry(), NewRegistry()
	atClient.Register(e.ID, e.Pub)
	atEdge.Register(c.ID, c.Pub)
	return atClient, atEdge
}

// TestPairKeyAgrees: the key a client derives from its secret and the
// edge's public key is the key the edge derives from its secret and the
// client's, for deterministic and random identities; other pairs get
// other keys.
func TestPairKeyAgrees(t *testing.T) {
	gen := func(id wire.NodeID) KeyPair {
		k, err := GenerateKey(id)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	pairs := [][2]KeyPair{{DeterministicKey("c1"), DeterministicKey("edge-1")}}
	for i := 0; i < 8; i++ {
		pairs = append(pairs, [2]KeyPair{gen("c1"), gen("edge-1")})
	}
	seen := map[[MACSize]byte]bool{}
	for i, p := range pairs {
		c, e := p[0], p[1]
		atClient, atEdge := pairRegistries(c, e)
		kc, err := atClient.pairKey(c, c.ID, e.ID)
		if err != nil {
			t.Fatal(err)
		}
		ke, err := atEdge.pairKey(e, c.ID, e.ID)
		if err != nil {
			t.Fatal(err)
		}
		if *kc != *ke {
			t.Fatalf("pair %d: client derived %x, edge %x", i, kc[:], ke[:])
		}
		if seen[*kc] {
			t.Fatalf("pair %d: key repeats another pair's", i)
		}
		seen[*kc] = true
	}
}

// TestPairKeyGoldenVector pins the derivation for c1 and edge-1 (their
// DeterministicKey identities) to a value computed outside Go: Python's
// hashlib, hmac and integer arithmetic for the key maps, and the
// cryptography package's X25519 for the exchange.
func TestPairKeyGoldenVector(t *testing.T) {
	const want = "d1ccad8ec241cc0ea3d6331322f57faab804e8e3e1484940cfede717807952fe"
	c, e := DeterministicKey("c1"), DeterministicKey("edge-1")
	atClient, _ := pairRegistries(c, e)
	k, err := atClient.pairKey(c, c.ID, e.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(k[:]); got != want {
		t.Fatalf("k(c1, edge-1) = %s, want %s", got, want)
	}
}

// TestMontgomeryPubMatchesSecret: mapping a public key gives the X25519
// public key of the mapped secret, for random identities.
func TestMontgomeryPubMatchesSecret(t *testing.T) {
	for i := 0; i < 32; i++ {
		k, err := GenerateKey("n")
		if err != nil {
			t.Fatal(err)
		}
		u, err := montgomeryPub(k.Pub)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := montgomeryPriv(k.Priv)
		if err != nil {
			t.Fatal(err)
		}
		if want := sk.PublicKey().Bytes(); !bytes.Equal(u, want) {
			t.Fatalf("key %d: mapped public key %x, X25519 public key of the mapped secret %x", i, u, want)
		}
	}
}

// leBytes encodes v as 32 little-endian bytes.
func leBytes(v *big.Int) []byte {
	out := make([]byte, 32)
	v.FillBytes(out)
	for i, j := 0, 31; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TestMontgomeryPubRejects: y = 1 (no inverse of 1-y), a non-canonical
// y >= p and a wrong length are refused; y = -1 maps to u = 0, which
// X25519 refuses as a low-order result.
func TestMontgomeryPubRejects(t *testing.T) {
	one := big.NewInt(1)
	for name, pub := range map[string][]byte{
		"y=1":       leBytes(one),
		"y=p":       leBytes(p25519),
		"y=p+1":     leBytes(new(big.Int).Add(p25519, one)),
		"y=2^255-1": leBytes(new(big.Int).Sub(new(big.Int).Lsh(one, 255), one)),
		"short":     make([]byte, 31),
	} {
		if u, err := montgomeryPub(pub); err == nil {
			t.Errorf("%s: mapped to %x", name, u)
		}
	}
	minusOne := leBytes(new(big.Int).Sub(p25519, one))
	e := DeterministicKey("edge-1")
	if _, err := derivePairKey(e.Priv, minusOne, "c1", e.ID); err == nil {
		t.Fatal("y = -1 (u = 0) gave a pair key")
	}
}

// FuzzMontgomeryPub: the public-key map never panics, and whatever it
// accepts is a canonical field element.
func FuzzMontgomeryPub(f *testing.F) {
	f.Add([]byte(DeterministicKey("c1").Pub))
	f.Add(leBytes(big.NewInt(1)))
	f.Add(leBytes(p25519))
	f.Add(make([]byte, 32))
	f.Fuzz(func(t *testing.T, pub []byte) {
		u, err := montgomeryPub(pub)
		if err != nil {
			return
		}
		if len(u) != 32 {
			t.Fatalf("mapped to %d bytes", len(u))
		}
		be := make([]byte, 32)
		for i := range u {
			be[31-i] = u[i]
		}
		if new(big.Int).SetBytes(be).Cmp(p25519) >= 0 {
			t.Fatalf("mapped to a non-canonical u %x", u)
		}
	})
}

// TestRegisterDropsPairKey: rebinding an identity drops the pair key
// derived against its old key, so a MAC made with the old secret stops
// verifying and one made with the new secret starts.
func TestRegisterDropsPairKey(t *testing.T) {
	old, e := DeterministicKey("c1"), DeterministicKey("edge-1")
	atClient, atEdge := pairRegistries(old, e)
	b := &wire.PutBatch{Client: "c1", Entries: []wire.Entry{{Client: "c1", Seq: 1, Value: []byte("v")}}}
	var err error
	if b.MAC, err = MAC(atClient, old, "c1", e.ID, b); err != nil {
		t.Fatal(err)
	}
	if err := VerifyMAC(atEdge, e, "c1", e.ID, b, b.MAC); err != nil {
		t.Fatalf("before rebinding: %v", err)
	}
	fresh, err := GenerateKey("c1")
	if err != nil {
		t.Fatal(err)
	}
	atEdge.Register("c1", fresh.Pub)
	if err := VerifyMAC(atEdge, e, "c1", e.ID, b, b.MAC); err == nil {
		t.Fatal("MAC under the old key verified after rebinding")
	}
	if b.MAC, err = MAC(atClient, fresh, "c1", e.ID, b); err != nil {
		t.Fatal(err)
	}
	if err := VerifyMAC(atEdge, e, "c1", e.ID, b, b.MAC); err != nil {
		t.Fatalf("MAC under the new key: %v", err)
	}
}

// TestMACBindsKindBodyAndPair: a MAC verifies only for the message it was
// made over, only under the pair it was made for, and only at a party of
// that pair.
func TestMACBindsKindBodyAndPair(t *testing.T) {
	c, e := DeterministicKey("c1"), DeterministicKey("edge-1")
	e2 := DeterministicKey("edge-2")
	reg := NewRegistry()
	for _, k := range []KeyPair{c, e, e2} {
		reg.Register(k.ID, k.Pub)
	}
	b := &wire.PutBatch{Client: "c1", Entries: []wire.Entry{{Client: "c1", Seq: 1, Key: []byte("k"), Value: []byte("v")}}}
	var err error
	if b.MAC, err = MAC(reg, c, "c1", e.ID, b); err != nil {
		t.Fatal(err)
	}
	if len(b.MAC) != MACSize {
		t.Fatalf("MAC of %d bytes", len(b.MAC))
	}
	if err := VerifyMAC(reg, e, "c1", e.ID, b, b.MAC); err != nil {
		t.Fatalf("honest batch: %v", err)
	}
	if VerifyMAC(reg, e2, "c1", e2.ID, b, b.MAC) == nil {
		t.Fatal("batch MACed for edge-1 verified at edge-2")
	}
	if VerifyMAC(reg, e2, "c1", e.ID, b, b.MAC) == nil {
		t.Fatal("edge-2 verified a MAC for a pair it is not in")
	}
	tampered := *b
	tampered.Entries = []wire.Entry{{Client: "c1", Seq: 1, Key: []byte("k"), Value: []byte("w")}}
	if VerifyMAC(reg, e, "c1", e.ID, &tampered, b.MAC) == nil {
		t.Fatal("tampered batch verified")
	}
	// Same body bytes, another kind: the MAC covers the kind too.
	other := &wire.CloudPutBatch{}
	if VerifyMAC(reg, e, "c1", e.ID, asBatchBody{other, b}, b.MAC) == nil {
		t.Fatal("MAC verified for another message kind")
	}
	if VerifyMAC(reg, e, "c1", e.ID, b, append(b.MAC[:0:0], b.MAC[:MACSize-1]...)) == nil {
		t.Fatal("truncated MAC verified")
	}
}

// asBatchBody reports another message's kind over a batch's body.
type asBatchBody struct {
	wire.Message
	body *wire.PutBatch
}

func (m asBatchBody) AppendBody(e *wire.Encoder) { m.body.AppendBody(e) }

// TestMACIsHMAC: macOf is HMAC-SHA256 under the pair key over macTag, the
// big-endian kind and the body, as crypto/hmac computes it.
func TestMACIsHMAC(t *testing.T) {
	var key [MACSize]byte
	copy(key[:], Digest([]byte("pair key")))
	for _, n := range []int{0, 1, 100} {
		b := &wire.PutBatch{Client: "c1"}
		for i := 0; i < n; i++ {
			b.Entries = append(b.Entries, wire.Entry{Client: "c1", Seq: uint64(i + 1), Key: []byte{byte(i)}, Value: make([]byte, i)})
		}
		h := hmac.New(sha256.New, key[:])
		h.Write([]byte(macTag))
		h.Write([]byte{byte(wire.KindPutBatch >> 8), byte(wire.KindPutBatch)})
		h.Write(wire.BodyBytes(b))
		if got := macOf(&key, b); !bytes.Equal(got[:], h.Sum(nil)) {
			t.Fatalf("%d entries: macOf %x, crypto/hmac %x", n, got, h.Sum(nil))
		}
	}
}

// TestPairKeyConcurrentUse: clients MAC and an edge verifies through one
// shared registry, as the façade's nodes do, while another goroutine
// rebinds an unrelated identity; run under -race.
func TestPairKeyConcurrentUse(t *testing.T) {
	e := DeterministicKey("edge-1")
	reg := NewRegistry()
	reg.Register(e.ID, e.Pub)
	var clients []KeyPair
	for i := 0; i < 4; i++ {
		c := DeterministicKey(wire.NodeID("c" + string(rune('1'+i))))
		reg.Register(c.ID, c.Pub)
		clients = append(clients, c)
	}
	errs := make(chan error, len(clients)+1)
	for _, c := range clients {
		go func(c KeyPair) {
			b := &wire.PutBatch{Client: c.ID, Entries: []wire.Entry{{Client: c.ID, Seq: 1, Value: []byte("v")}}}
			var err error
			for i := 0; i < 50 && err == nil; i++ {
				if b.MAC, err = MAC(reg, c, c.ID, e.ID, b); err == nil {
					err = VerifyMAC(reg, e, c.ID, e.ID, b, b.MAC)
				}
			}
			errs <- err
		}(c)
	}
	go func() {
		other := DeterministicKey("c9")
		for i := 0; i < 50; i++ {
			reg.Register(other.ID, other.Pub)
		}
		errs <- nil
	}()
	for i := 0; i < len(clients)+1; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
