package wcrypto

import (
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"wedgechain/internal/obs"
	"wedgechain/internal/wire"
)

// TestSignatureGoldenVector pins the signature scheme: Ed25519 (RFC 8032,
// deterministic) over SHA-256("wedgechain/sig/v2\x00" ‖ signable body),
// checked against an independent implementation. If this fails, the tag,
// the hash or BlockProof's body encoding drifted — a format break: every
// log and every piece of captured evidence signed before stops verifying.
func TestSignatureGoldenVector(t *testing.T) {
	const (
		body   = "00000006656467652d310000000000000009000000203e23e8160039594a33894f6564e1b1348bbd7a0088d42c4acb73eeaed59c009d"
		digest = "1ad8c0ce73ef2f76d54316935e211e985361c30e1ea3d5555818806c37d74c23"
		sig    = "f65932663c089da3ab92489a6620af6588a53587881c9505f42134ca4b792677f089c40c14334e3015efa4eabf2277197f83fa71f988da7f091e2e385ca1c404"
	)
	k := DeterministicKey("cloud")
	bp := &wire.BlockProof{Edge: "edge-1", BID: 9, Digest: Digest([]byte("b"))}
	if got := hex.EncodeToString(wire.BodyBytes(bp)); got != body {
		t.Fatalf("BlockProof body encoding drifted:\n got %s\nwant %s", got, body)
	}
	if d := signedDigest(wire.BodyBytes(bp)); hex.EncodeToString(d[:]) != digest {
		t.Fatalf("signed digest drifted (tag or hash changed): %x", d)
	}
	if got := hex.EncodeToString(SignMsg(k, bp)); got != sig {
		t.Fatalf("signature drifted:\n got %s\nwant %s", got, sig)
	}
	reg := NewRegistry()
	reg.Register(k.ID, k.Pub)
	raw, _ := hex.DecodeString(sig)
	if err := VerifyMsg(reg, k.ID, bp, raw); err != nil {
		t.Fatalf("golden signature rejected: %v", err)
	}
}

// TestBlockDigestGoldenVector pins the block digest: SHA-256(Edge ‖ ID ‖
// StartPos ‖ Ts ‖ Count ‖ root), root the Merkle root over the entries in
// (key, index) order, leaf = LeafHash(key ‖ index ‖ SHA-256(entry)), odd
// nodes promoted. The vector was computed by an independent implementation
// over a block with a key-less entry and a key written twice. A slice of
// the block folds to the same digest. If this fails the digest format
// drifted — a format break: certificates, block acks and durable logs
// from the other side of the change stop matching (wlog answers an older
// segment with ErrFormat).
func TestBlockDigestGoldenVector(t *testing.T) {
	const digest = "5e3f797bbb6b20dfe1830d28039f6f0391a056bc506d7348d1fd0a76258ceb59"
	blk := wire.Block{Edge: "edge-1", ID: 9, StartPos: 40, Ts: 1234, Entries: []wire.Entry{
		{Client: "c1", Seq: 1, Key: []byte("mango"), Value: []byte("m"), Ts: 5, Sig: []byte("s1")},
		{Client: "c2", Seq: 7, Value: []byte("log record"), Ts: 6, Sig: []byte("s2")},
		{Client: "c1", Seq: 2, Key: []byte("apple"), Value: []byte("a1"), Ts: 7, Sig: []byte("s3")},
		{Client: "c3", Seq: 1, Key: []byte("zebra"), Value: []byte("z"), Ts: 8, Sig: []byte("s4")},
		{Client: "c1", Seq: 3, Key: []byte("apple"), Value: []byte("a2"), Ts: 9, Sig: []byte("s5")},
	}}
	if got := hex.EncodeToString(RecomputedBlockDigest(&blk)); got != digest {
		t.Fatalf("block digest drifted:\n got %s\nwant %s", got, digest)
	}
	frozen := blk
	frozen.Freeze()
	if got := hex.EncodeToString(BlockDigest(&frozen)); got != digest {
		t.Fatalf("cut-time digest drifted: %s", got)
	}
	for _, r := range [][2][]byte{{nil, nil}, {[]byte("apple"), []byte("apple\x00")}, {[]byte("b"), []byte("c")}} {
		s := frozen.Slice(r[0], r[1])
		got, err := s.Digest()
		if err != nil || hex.EncodeToString(got) != digest {
			t.Fatalf("slice [%q, %q) folds to %x (err %v)", r[0], r[1], got, err)
		}
	}
}

// goldenMerge is a fixed compaction exchange: one L0 block of two puts
// merged into level 1, and a merge of level 1 into level 2.
func goldenMerge() (l0, level *wire.MergeRequest, resp *wire.MergeResponse) {
	blk := wire.Block{Edge: "edge-1", ID: 4, StartPos: 8, Ts: 77, Entries: []wire.Entry{
		{Client: "c1", Seq: 1, Key: []byte("a"), Value: []byte("1"), Sig: []byte("s1")},
		{Client: "c1", Seq: 2, Key: []byte("b"), Value: []byte("2"), Sig: []byte("s2")},
	}}
	dst := wire.Page{Level: 1, Seq: 3, Ts: 50, Count: 1, KVs: []wire.KV{{Key: []byte("a"), Value: []byte("0"), Ver: 2}}}
	l0 = &wire.MergeRequest{Edge: "edge-1", ReqID: 9, L0Blocks: []wire.Block{blk}}
	level = &wire.MergeRequest{Edge: "edge-1", ReqID: 10, FromLevel: 1}
	resp = &wire.MergeResponse{
		Edge: "edge-1", ReqID: 9, OK: true, PageSeq: 4, PageCap: 100,
		NewPages:   []wire.Page{dst}, // outside the signed body
		Roots:      [][]byte{Digest([]byte("r1")), Digest([]byte("r2"))},
		Global:     wire.SignedRoot{Edge: "edge-1", Epoch: 2, Root: Digest([]byte("g")), Ts: 99, L0From: 5, CloudSig: []byte("gs")},
		ConsumedTo: 4,
	}
	return l0, level, resp
}

const (
	goldenL0Body    = "00000006656467652d3100000000000000090000000000000001000000206ff849a7a1d4a26969bd66f7466b9bc5d15e0dbe5452b9cc5c5ddb69cfbf32e1"
	goldenL0Sig     = "82fa07373b73dba05a73dcc4087d38b6ffcb7c198a9dedc90c1f2645f5710e32268179311b136813119b6f58df683900443b2d9f37ae1e18f99753cd35192f0b"
	goldenLevelBody = "00000006656467652d31000000000000000a0000000100000000"
	goldenLevelSig  = "4dcb5441865ae206872ea56c9b4971df75f2e3f7c626b7c5c1bb94be192c8bb6856e68ec05f040333b31241fcdc298b2b304a38ac6f637a1fabee37d97f2cf01"
	goldenRespBody  = "00000006656467652d310000000000000009010000000000000000000000000000000400000064000000020000002082f3e9c695dc6b8d1b11818d5701919e286de8d47f7c3eb3100c485f79e5782800000020db77fd01af957221a4989b64b3770a83a3c56068405b9f0e9408feae57fd17e400000006656467652d31000000000000000200000020cd0aa9856147b6c5b4ff2b7dfee5da20aa38253099ef1b4a64aced233c9afe29000000000000006300000000000000050000000267730000000000000004"
	goldenRespSig   = "9255cc8c6ea12d5b34ddfdbfb21048b386f195b6adb1b492c4db22a10119ee0447d5245b9a8a5f04d9710a5fbc76c6bc549c353d7f0f19efbb897a2cf8d82b0b"
)

// TestMergeGoldenVectors pins the compaction bodies. A merge request is
// signed over its header and one 32-byte digest per shipped block — a
// level merge ships none; a merge response over everything but its pages.
// If a vector drifts, merge messages from binaries on either side of the
// change stop verifying. (The request vectors — block digest, body and
// signature — were computed by an independent SHA-256 and Ed25519
// implementation.)
func TestMergeGoldenVectors(t *testing.T) {
	l0, level, resp := goldenMerge()
	edge, cloud := DeterministicKey("edge-1"), DeterministicKey("cloud")
	cases := []struct {
		name      string
		m         Signable
		key       KeyPair
		body, sig string
	}{
		{"L0 MergeRequest", l0, edge, goldenL0Body, goldenL0Sig},
		{"level MergeRequest", level, edge, goldenLevelBody, goldenLevelSig},
		{"MergeResponse", resp, cloud, goldenRespBody, goldenRespSig},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(wire.BodyBytes(c.m)); got != c.body {
			t.Errorf("%s body drifted:\n got %s\nwant %s", c.name, got, c.body)
		}
		if got := hex.EncodeToString(SignMsg(c.key, c.m)); got != c.sig {
			t.Errorf("%s signature drifted:\n got %s\nwant %s", c.name, got, c.sig)
		}
	}
	// The digests a signer holds are the ones a verifier recomputes.
	if got := SignMergeRequest(edge, l0, [][]byte{l0.L0Blocks[0].BodyDigest()}); hex.EncodeToString(got) != goldenL0Sig {
		t.Errorf("SignMergeRequest over held digests disagrees with SignMsg: %x", got)
	}
	// The request body holds no block bytes (22-byte header, a count, one
	// length-prefixed hash), the response none of its pages'.
	if n := len(wire.BodyBytes(l0)); n != 22+4+36 {
		t.Errorf("MergeRequest body is %d bytes", n)
	}
	stripped := *resp
	stripped.NewPages = nil
	if hex.EncodeToString(SignMsg(cloud, &stripped)) != goldenRespSig {
		t.Error("MergeResponse signature depends on NewPages")
	}
}

// memoFixture is a registry with metrics attached and one valid signed
// statement.
type memoFixture struct {
	reg  *Registry
	obs  *obs.Registry
	key  KeyPair
	msg  []byte
	sig  []byte
	node string
}

func newMemoFixture() *memoFixture {
	f := &memoFixture{reg: NewRegistry(), obs: obs.NewRegistry(), key: DeterministicKey("cloud"), node: "n1"}
	f.reg.Register(f.key.ID, f.key.Pub)
	f.reg.AttachMetrics(f.obs, f.node)
	f.msg = []byte("certified digest")
	f.sig = f.key.Sign(f.msg)
	return f
}

func (f *memoFixture) counts() (hits, misses, bad uint64) {
	v := f.obs.CounterValue
	return v("wedge_wcrypto_verify_memo_hits_total"),
		v("wedge_wcrypto_verify_memo_misses_total"),
		v("wedge_wcrypto_bad_signatures_total")
}

func TestMemoAnswersRepeatsOnly(t *testing.T) {
	f := newMemoFixture()
	if f.reg.MemoLen() != 0 || f.reg.cur != nil {
		t.Fatal("memo allocated before the first verified signature")
	}
	for i := 0; i < 3; i++ {
		if err := f.reg.Verify(f.key.ID, f.msg, f.sig); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if hits, misses, bad := f.counts(); hits != 2 || misses != 1 || bad != 0 {
		t.Fatalf("hits=%d misses=%d bad=%d, want 2/1/0", hits, misses, bad)
	}
	if f.reg.MemoLen() != 1 {
		t.Fatalf("memo holds %d triples, want 1", f.reg.MemoLen())
	}

	// After a hit, every single-bit change to the body or the signature
	// still fails: the lookup key is the whole (key, digest, signature)
	// triple, so a near miss is a miss and goes to Ed25519.
	for bit := 0; bit < 8*len(f.msg); bit++ {
		mut := append([]byte(nil), f.msg...)
		mut[bit/8] ^= 1 << (bit % 8)
		if f.reg.Verify(f.key.ID, mut, f.sig) == nil {
			t.Fatalf("body with bit %d flipped accepted after a memo hit", bit)
		}
	}
	for bit := 0; bit < 8*len(f.sig); bit++ {
		mut := append([]byte(nil), f.sig...)
		mut[bit/8] ^= 1 << (bit % 8)
		if f.reg.Verify(f.key.ID, f.msg, mut) == nil {
			t.Fatalf("signature with bit %d flipped accepted after a memo hit", bit)
		}
	}
	if f.reg.MemoLen() != 1 {
		t.Fatalf("a failed verification was recorded: memo holds %d", f.reg.MemoLen())
	}
}

func TestMemoNeverRecordsAForgery(t *testing.T) {
	f := newMemoFixture()
	forged := DeterministicKey("mallory").Sign(f.msg)
	for i := 0; i < 2; i++ {
		if f.reg.Verify(f.key.ID, f.msg, forged) == nil {
			t.Fatalf("round %d: forged signature accepted", i)
		}
	}
	if f.reg.MemoLen() != 0 {
		t.Fatalf("forgery recorded: memo holds %d", f.reg.MemoLen())
	}
	if hits, misses, bad := f.counts(); hits != 0 || misses != 0 || bad != 2 {
		t.Fatalf("hits=%d misses=%d bad=%d, want 0/0/2", hits, misses, bad)
	}
}

// TestMemoDoesNotSurviveRebinding: a signature verified under the key an
// identity used to have must fail once Register binds the identity to
// another key — and verify again if the old key comes back.
func TestMemoDoesNotSurviveRebinding(t *testing.T) {
	f := newMemoFixture()
	if err := f.reg.Verify(f.key.ID, f.msg, f.sig); err != nil {
		t.Fatal(err)
	}
	other := DeterministicKey("cloud-rotated")
	f.reg.Register(f.key.ID, other.Pub)
	if f.reg.Verify(f.key.ID, f.msg, f.sig) == nil {
		t.Fatal("signature by the old key accepted after the identity was rebound")
	}
	if err := f.reg.Verify(f.key.ID, f.msg, other.Sign(f.msg)); err != nil {
		t.Fatalf("signature by the new key rejected: %v", err)
	}
	f.reg.Register(f.key.ID, f.key.Pub)
	if err := f.reg.Verify(f.key.ID, f.msg, f.sig); err != nil {
		t.Fatalf("signature rejected after the old key was restored: %v", err)
	}
}

// TestMemoStaysWithinItsCap feeds the memo ten times its capacity in
// distinct verified triples (synthetic ones: the bound is a property of
// remember, and 40,000 real signatures cost half a minute under -race).
func TestMemoStaysWithinItsCap(t *testing.T) {
	f := newMemoFixture()
	seen := 0
	for i := 0; i < 10*MemoCap; i++ {
		var fp fingerprint
		copy(fp[:], fmt.Sprintf("statement %d", i))
		f.reg.mu.Lock()
		f.reg.remember(fp)
		f.reg.mu.Unlock()
		if n := f.reg.MemoLen(); n > MemoCap {
			t.Fatalf("memo holds %d triples after %d insertions, cap is %d", n, i+1, MemoCap)
		} else if n > seen {
			seen = n
		}
	}
	if seen != MemoCap {
		t.Fatalf("memo peaked at %d triples, want its cap %d", seen, MemoCap)
	}

	// Through Verify: what was verified a generation ago is still
	// answered from the memo, what was verified three ago is not.
	verify := func() (hit bool) {
		before, _, _ := f.counts()
		if err := f.reg.Verify(f.key.ID, f.msg, f.sig); err != nil {
			t.Fatal(err)
		}
		after, _, _ := f.counts()
		return after == before+1
	}
	fill := func(tag string, n int) {
		for i := 0; i < n; i++ {
			var fp fingerprint
			copy(fp[:], fmt.Sprintf("%s %d", tag, i))
			f.reg.mu.Lock()
			f.reg.remember(fp)
			f.reg.mu.Unlock()
		}
	}
	verify()
	fill("one generation", memoGen)
	if !verify() {
		t.Fatal("a signature verified one generation ago was forgotten")
	}
	fill("three generations", 3*memoGen)
	if verify() {
		t.Fatal("a signature verified three generations ago is still remembered")
	}
}

// TestMemoConcurrentUse hammers one registry from several goroutines at
// once — nodes hosted in one process may share it — checking overlapping
// statements, valid and forged, while another goroutine rebinds an
// unrelated identity. Run under -race (make race).
func TestMemoConcurrentUse(t *testing.T) {
	f := newMemoFixture()
	const statements = 64
	type signed struct {
		bp  *wire.BlockProof
		bad bool
	}
	var all []signed
	for i := 0; i < statements; i++ {
		bp := &wire.BlockProof{Edge: "edge-1", BID: uint64(i), Digest: Digest([]byte{byte(i)})}
		bp.CloudSig = SignMsg(f.key, bp)
		bad := i%8 == 7
		if bad {
			bp.CloudSig[0] ^= 1
		}
		all = append(all, signed{bp, bad})
	}

	const rounds = 20
	var wg sync.WaitGroup
	for v := 0; v < 2; v++ { // two verifying goroutines
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, s := range all {
					if err := VerifyMsg(f.reg, f.key.ID, s.bp, s.bp.CloudSig); (err != nil) != s.bad {
						t.Errorf("block %d err=%v, bad=%v", s.bp.BID, err, s.bad)
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // key distribution touching the same registry
		defer wg.Done()
		for r := 0; r < rounds*statements; r++ {
			k := DeterministicKey(wire.NodeID(fmt.Sprintf("late-%d", r%4)))
			f.reg.Register(k.ID, k.Pub)
		}
	}()
	wg.Wait()
	good := statements - statements/8
	if n := f.reg.MemoLen(); n != good {
		t.Fatalf("memo holds %d triples, want the %d valid statements", n, good)
	}
	hits, misses, bad := f.counts()
	if total := hits + misses + bad; total != 2*rounds*statements {
		t.Fatalf("hits+misses+bad = %d, want %d", total, 2*rounds*statements)
	}
	if bad != 2*rounds*(statements/8) {
		t.Fatalf("bad = %d, want %d", bad, 2*rounds*(statements/8))
	}
	// Two goroutines can both miss on a statement's first sight.
	if misses < uint64(good) || misses > uint64(2*good) {
		t.Fatalf("misses = %d, want between %d and %d", misses, good, 2*good)
	}
}

// fillOneShot records n distinct synthetic triples, as n one-shot
// statements that passed Ed25519 would (the bound is a property of
// remember; real signatures would cost a curve operation each).
func (f *memoFixture) fillOneShot(tag string, n int) {
	for i := 0; i < n; i++ {
		var fp fingerprint
		copy(fp[:], fmt.Sprintf("%s %d", tag, i))
		f.reg.mu.Lock()
		f.reg.remember(fp)
		f.reg.mu.Unlock()
	}
}

// verifyHit checks the fixture's statement and reports whether the memo
// answered it.
func (f *memoFixture) verifyHit(t *testing.T) bool {
	t.Helper()
	before, _, _ := f.counts()
	if err := f.reg.Verify(f.key.ID, f.msg, f.sig); err != nil {
		t.Fatal(err)
	}
	after, _, _ := f.counts()
	return after == before+1
}

// TestMemoKeepsWhatIsPresentedAgain: a statement that keeps coming back
// — here after every 100 one-shot checks — is answered from the memo for
// ten times a generation and more, while each one-shot triple ages out.
func TestMemoKeepsWhatIsPresentedAgain(t *testing.T) {
	f := newMemoFixture()
	if f.verifyHit(t) {
		t.Fatal("first check answered from an empty memo")
	}
	for i := 0; i < 10*memoGen/100; i++ {
		f.fillOneShot(fmt.Sprintf("round %d", i), 100)
		if !f.verifyHit(t) {
			t.Fatalf("statement re-presented every 100 checks went back to Ed25519 after %d checks", (i+1)*101)
		}
		if n := f.reg.MemoLen(); n > MemoCap {
			t.Fatalf("memo holds %d triples, cap is %d", n, MemoCap)
		}
	}
	if _, misses, _ := f.counts(); misses != 1 {
		t.Fatalf("%d Ed25519 verifications, want the first only", misses)
	}
}

// TestMemoForgetsOneShotsAfterTwoGenerations: a statement presented once
// is gone from the memo once two generations of other triples have been
// recorded, and its next check runs Ed25519 again.
func TestMemoForgetsOneShotsAfterTwoGenerations(t *testing.T) {
	f := newMemoFixture()
	f.verifyHit(t)
	f.fillOneShot("later", 2*memoGen)
	if f.verifyHit(t) {
		t.Fatal("a one-shot signature outlived two generations")
	}
	if _, misses, _ := f.counts(); misses != 2 {
		t.Fatalf("misses = %d, want 2 (first check and the check after it aged out)", misses)
	}
}

// TestMemoLenNeverExceedsCap mixes one-shot triples with statements
// presented again from either generation: carrying a statement forward
// moves it, it never copies it, so MemoLen stays within MemoCap.
func TestMemoLenNeverExceedsCap(t *testing.T) {
	f := newMemoFixture()
	hot := make([]*wire.BlockProof, 8)
	for i := range hot {
		hot[i] = &wire.BlockProof{Edge: "edge-1", BID: uint64(i), Digest: Digest([]byte{byte(i)})}
		hot[i].CloudSig = SignMsg(f.key, hot[i])
	}
	for i := 0; i < 6*memoGen; i++ {
		f.fillOneShot(fmt.Sprint(i), 1)
		if i%(memoGen/4) == 0 {
			for _, bp := range hot {
				if err := VerifyMsg(f.reg, f.key.ID, bp, bp.CloudSig); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := f.reg.MemoLen(); n > MemoCap {
			t.Fatalf("memo holds %d triples after %d insertions, cap is %d", n, i+1, MemoCap)
		}
	}
	if _, misses, _ := f.counts(); misses != uint64(len(hot)) {
		t.Fatalf("misses = %d, want %d: each hot statement verified once", misses, len(hot))
	}
}

// TestMemoConcurrentCarryForward re-presents statements from several
// goroutines while another records one-shot triples fast enough to rotate
// the generations under them, so hits in the previous generation move
// forward while rotations run. Run under -race (make race).
func TestMemoConcurrentCarryForward(t *testing.T) {
	f := newMemoFixture()
	hot := make([]*wire.BlockProof, 8)
	for i := range hot {
		hot[i] = &wire.BlockProof{Edge: "edge-1", BID: uint64(i), Digest: Digest([]byte{byte(i)})}
		hot[i].CloudSig = SignMsg(f.key, hot[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				for _, bp := range hot {
					if err := VerifyMsg(f.reg, f.key.ID, bp, bp.CloudSig); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.fillOneShot("rotating", 8*memoGen)
	}()
	wg.Wait()
	if n := f.reg.MemoLen(); n > MemoCap {
		t.Fatalf("memo holds %d triples, cap is %d", n, MemoCap)
	}
}
