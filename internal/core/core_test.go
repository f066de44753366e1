package core

import (
	"testing"

	"wedgechain/internal/mlsm"
	"wedgechain/internal/scan"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

func testKeys(t *testing.T) (map[wire.NodeID]wcrypto.KeyPair, *wcrypto.Registry) {
	t.Helper()
	reg := wcrypto.NewRegistry()
	keys := map[wire.NodeID]wcrypto.KeyPair{}
	for _, id := range []wire.NodeID{"cloud", "edge-1", "c1", "evil"} {
		k := wcrypto.DeterministicKey(id)
		keys[id] = k
		reg.Register(id, k.Pub)
	}
	return keys, reg
}

func TestCertTableFirstWriterWins(t *testing.T) {
	ct := NewCertTable()
	d1 := wcrypto.Digest([]byte("block-0-honest"))
	d2 := wcrypto.Digest([]byte("block-0-forged"))

	if got := ct.Certify("edge-1", 0, d1); got != CertAccepted {
		t.Fatalf("first certify = %v", got)
	}
	if got := ct.Certify("edge-1", 0, d1); got != CertDuplicate {
		t.Fatalf("duplicate certify = %v", got)
	}
	if got := ct.Certify("edge-1", 0, d2); got != CertConflict {
		t.Fatalf("conflicting certify = %v", got)
	}
	// The original digest must survive the conflict attempt.
	stored, ok := ct.Lookup("edge-1", 0)
	if !ok || string(stored) != string(d1) {
		t.Fatal("certified digest changed after conflict")
	}
	// Same bid on another edge is independent.
	if got := ct.Certify("edge-2", 0, d2); got != CertAccepted {
		t.Fatalf("other edge certify = %v", got)
	}
}

func TestCertTableCounters(t *testing.T) {
	ct := NewCertTable()
	ct.Certify("e", 0, wcrypto.Digest([]byte("a")))
	ct.Certify("e", 1, wcrypto.Digest([]byte("b")))
	if ct.Blocks("e") != 2 {
		t.Fatalf("Blocks = %d", ct.Blocks("e"))
	}
	ct.AddEntries("e", 200)
	if ct.Entries("e") != 200 {
		t.Fatalf("Entries = %d", ct.Entries("e"))
	}
}

func TestPunishmentsBanOnce(t *testing.T) {
	p := NewPunishments()
	p.Punish(wire.Verdict{Edge: "e", Guilty: false, Reason: "innocent"})
	if _, banned := p.Banned("e"); banned {
		t.Fatal("not-guilty verdict banned the edge")
	}
	p.Punish(wire.Verdict{Edge: "e", Guilty: true, Reason: "first"})
	p.Punish(wire.Verdict{Edge: "e", Guilty: true, Reason: "second"})
	reason, banned := p.Banned("e")
	if !banned || reason != "first" {
		t.Fatalf("Banned = %q,%v", reason, banned)
	}
	if len(p.Verdicts()) != 2 {
		t.Fatalf("verdict log = %d", len(p.Verdicts()))
	}
}

// buildEvidence creates a signed PutResponse for a block.
func buildEvidence(keys map[wire.NodeID]wcrypto.KeyPair, blk wire.Block) *wire.PutResponse {
	resp := &wire.PutResponse{BID: blk.ID, Block: blk}
	resp.EdgeSig = wcrypto.SignMsg(keys["edge-1"], resp)
	return resp
}

func testBlock() wire.Block {
	return wire.Block{
		Edge: "edge-1", ID: 0,
		Entries: []wire.Entry{{Client: "c1", Seq: 1, Value: []byte("data")}},
	}
}

func TestJudgeConvictsDigestMismatch(t *testing.T) {
	keys, reg := testKeys(t)
	ct := NewCertTable()
	honest := testBlock()
	ct.Certify("edge-1", 0, wcrypto.BlockDigest(&honest))

	// The edge promised the client a different block.
	lied := honest
	lied.Entries = append([]wire.Entry(nil), honest.Entries...)
	lied.Entries[0].Value = []byte("tampered")
	d := BuildAddLieDispute(keys["c1"], "edge-1", buildEvidence(keys, lied))
	v := Judge(reg, ct, "cloud", "c1", d, d.Edge)
	if !v.Guilty {
		t.Fatalf("verdict = %+v, want guilty", v)
	}
}

func TestJudgeAcquitsMatchingDigest(t *testing.T) {
	keys, reg := testKeys(t)
	ct := NewCertTable()
	honest := testBlock()
	ct.Certify("edge-1", 0, wcrypto.BlockDigest(&honest))

	d := BuildAddLieDispute(keys["c1"], "edge-1", buildEvidence(keys, honest))
	v := Judge(reg, ct, "cloud", "c1", d, d.Edge)
	if v.Guilty {
		t.Fatalf("verdict = %+v, want not guilty", v)
	}
}

func TestJudgeConvictsNeverCertified(t *testing.T) {
	keys, reg := testKeys(t)
	ct := NewCertTable()
	d := BuildAddLieDispute(keys["c1"], "edge-1", buildEvidence(keys, testBlock()))
	v := Judge(reg, ct, "cloud", "c1", d, d.Edge)
	if !v.Guilty {
		t.Fatalf("verdict = %+v, want guilty (promised but never certified)", v)
	}
}

func TestJudgeRejectsForgedEvidence(t *testing.T) {
	keys, reg := testKeys(t)
	ct := NewCertTable()
	// A client cannot frame the edge: evidence signed by someone else.
	resp := &wire.PutResponse{BID: 0, Block: testBlock()}
	resp.EdgeSig = wcrypto.SignMsg(keys["evil"], resp)
	d := BuildAddLieDispute(keys["c1"], "edge-1", resp)
	v := Judge(reg, ct, "cloud", "c1", d, d.Edge)
	if v.Guilty {
		t.Fatal("forged evidence convicted the edge")
	}
}

func TestJudgeRejectsBadClientSignature(t *testing.T) {
	keys, reg := testKeys(t)
	ct := NewCertTable()
	d := BuildAddLieDispute(keys["c1"], "edge-1", buildEvidence(keys, testBlock()))
	d.ClientSig[0] ^= 1
	v := Judge(reg, ct, "cloud", "c1", d, d.Edge)
	if v.Guilty {
		t.Fatal("tampered dispute convicted the edge")
	}
}

func TestJudgeReadLie(t *testing.T) {
	keys, reg := testKeys(t)
	ct := NewCertTable()
	honest := testBlock()
	ct.Certify("edge-1", 0, wcrypto.BlockDigest(&honest))

	lied := honest
	lied.Entries = append([]wire.Entry(nil), honest.Entries...)
	lied.Entries[0].Value = []byte("served-garbage")
	resp := &wire.ReadResponse{ReqID: 1, BID: 0, OK: true, Block: lied}
	resp.EdgeSig = wcrypto.SignMsg(keys["edge-1"], resp)

	d := BuildReadLieDispute(keys["c1"], "edge-1", resp)
	v := Judge(reg, ct, "cloud", "c1", d, d.Edge)
	if !v.Guilty || v.Kind != wire.DisputeReadLie {
		t.Fatalf("verdict = %+v", v)
	}
}

// pointScan is the edge-signed answer to a get of key: the scan of its
// point range over src and idx.
func pointScan(keys map[wire.NodeID]wcrypto.KeyPair, key []byte, src mlsm.L0Source, idx *mlsm.Index) *wire.ScanResponse {
	start, end := wire.PointRange(key)
	resp := scan.Assemble(start, end, 1, src, idx)
	resp.EdgeSig = wcrypto.SignMsg(keys["edge-1"], resp)
	return resp
}

func TestJudgeGetLie(t *testing.T) {
	keys, reg := testKeys(t)
	ct := NewCertTable()
	honest := testBlock()
	ct.Certify("edge-1", 0, wcrypto.BlockDigest(&honest))

	lied := honest
	lied.Entries = append([]wire.Entry(nil), honest.Entries...)
	lied.Entries[0].Value = []byte("stale")
	resp := pointScan(keys, lied.Entries[0].Key, mlsm.L0Source{Blocks: []wire.Block{lied}}, mlsm.NewIndex([]int{10}))

	d := BuildScanLieDispute(keys["c1"], "edge-1", 0, resp)
	v := Judge(reg, ct, "cloud", "c1", d, d.Edge)
	if !v.Guilty || v.Kind != wire.DisputeScanLie {
		t.Fatalf("verdict = %+v", v)
	}

	// The retired get-lie kind keeps its number and convicts nobody, on
	// any evidence.
	d.Kind = wire.DisputeGetLie
	d.ClientSig = wcrypto.SignMsg(keys["c1"], d)
	if v := Judge(reg, ct, "cloud", "c1", d, d.Edge); v.Guilty {
		t.Fatalf("retired get-lie kind convicted: %s", v.Reason)
	}
	if wire.DisputeGetLie != 4 || wire.DisputeScanLie != 5 {
		t.Fatalf("dispute kinds renumbered: get-lie %d, scan-lie %d", wire.DisputeGetLie, wire.DisputeScanLie)
	}
}

// TestJudgeGetL0HitNeedsNoIndexState: an honest edge answers a get whose
// freshest version sits in the uncompacted window with the window alone —
// no roots, no signed global (scan.Assemble over a point range) — and the
// client accepts that shape. After the first compaction the window no
// longer starts at block 0, and the Judge used to read "no index state" as
// "nothing was ever compacted" and convict. The frontier rule exempts an
// L0 hit for client and Judge alike; a window that does not hold the key
// is still held to it.
func TestJudgeGetL0HitNeedsNoIndexState(t *testing.T) {
	keys, reg := testKeys(t)
	ct := NewCertTable()
	blk := wire.Block{
		Edge: "edge-1", ID: 45, StartPos: 90,
		Entries: []wire.Entry{{Client: "c1", Seq: 1, Key: []byte("hot"), Value: []byte("v")}},
	}
	ct.Certify("edge-1", 45, wcrypto.BlockDigest(&blk))

	dispute := func(key string) wire.Verdict {
		resp := pointScan(keys, []byte(key), mlsm.L0Source{Blocks: []wire.Block{blk}}, mlsm.NewIndex([]int{10}))
		return Judge(reg, ct, "cloud", "c1", BuildScanLieDispute(keys["c1"], "edge-1", 45, resp), "edge-1")
	}
	if v := dispute("hot"); v.Guilty {
		t.Fatalf("honest L0-hit get convicted: %s", v.Reason)
	}
	if v := dispute("cold"); !v.Guilty {
		t.Fatalf("window past block 0 without the key or index state acquitted: %s", v.Reason)
	}
}

// TestJudgeRefusesUnsignedScanEvidence: an honest edge leaves a certified
// answer unsigned, so anyone holding one could cut a defect into it. The
// Judge refuses a scan-lie dispute built from an unsigned response; the
// same defect under the edge's signature convicts.
func TestJudgeRefusesUnsignedScanEvidence(t *testing.T) {
	keys, reg := testKeys(t)
	ct := NewCertTable()
	blk := wire.Block{
		Edge: "edge-1", ID: 0,
		Entries: []wire.Entry{{Client: "c1", Seq: 1, Key: []byte("a"), Value: []byte("v")}, {Client: "c1", Seq: 2, Key: []byte("b"), Value: []byte("w")}},
	}
	cert := wire.BlockProof{Edge: "edge-1", BID: 0, Digest: wcrypto.BlockDigest(&blk)}
	cert.CloudSig = wcrypto.SignMsg(keys["cloud"], &cert)
	ct.Certify("edge-1", 0, cert.Digest)
	resp := scan.Assemble(nil, nil, 1, mlsm.L0Source{Blocks: []wire.Block{blk}, Certs: []wire.BlockProof{cert}}, mlsm.NewIndex([]int{10}))
	if scan.PinsDigest(resp) || len(resp.EdgeSig) != 0 {
		t.Fatal("certified answer pins a digest or carries a signature")
	}
	// Alter a row: the slice no longer folds to the certified digest.
	resp.Proof.L0Pruned[0].Rows[0].Entry.Value = []byte("forged")
	judge := func() wire.Verdict {
		return Judge(reg, ct, "cloud", "c1", BuildScanLieDispute(keys["c1"], "edge-1", 0, resp), "edge-1")
	}
	if v := judge(); v.Guilty || v.Reason != "dispute rejected: evidence not signed by edge" {
		t.Fatalf("unsigned evidence: guilty %v, %s", v.Guilty, v.Reason)
	}
	resp.EdgeSig = wcrypto.SignMsg(keys["edge-1"], resp)
	if v := judge(); !v.Guilty {
		t.Fatalf("signed defect acquitted: %s", v.Reason)
	}
}

func TestJudgeOmission(t *testing.T) {
	keys, reg := testKeys(t)
	ct := NewCertTable()
	honest := testBlock()
	ct.Certify("edge-1", 0, wcrypto.BlockDigest(&honest))

	gossip := &wire.Gossip{Edge: "edge-1", Ts: 100, LogSize: 1, Blocks: 1}
	gossip.CloudSig = wcrypto.SignMsg(keys["cloud"], gossip)

	denial := &wire.ReadResponse{ReqID: 1, BID: 0, OK: false, Ts: 150}
	denial.EdgeSig = wcrypto.SignMsg(keys["edge-1"], denial)

	d := BuildOmissionDispute(keys["c1"], "edge-1", denial, gossip)
	v := Judge(reg, ct, "cloud", "c1", d, d.Edge)
	if !v.Guilty || v.Kind != wire.DisputeOmission {
		t.Fatalf("verdict = %+v", v)
	}

	// A denial that predates the gossip is not provable.
	early := &wire.ReadResponse{ReqID: 2, BID: 0, OK: false, Ts: 50}
	early.EdgeSig = wcrypto.SignMsg(keys["edge-1"], early)
	d2 := BuildOmissionDispute(keys["c1"], "edge-1", early, gossip)
	if v := Judge(reg, ct, "cloud", "c1", d2, d2.Edge); v.Guilty {
		t.Fatal("pre-gossip denial convicted")
	}

	// A denial of a block gossip does not cover is not provable.
	far := &wire.ReadResponse{ReqID: 3, BID: 9, OK: false, Ts: 150}
	far.EdgeSig = wcrypto.SignMsg(keys["edge-1"], far)
	d3 := BuildOmissionDispute(keys["c1"], "edge-1", far, gossip)
	if v := Judge(reg, ct, "cloud", "c1", d3, d3.Edge); v.Guilty {
		t.Fatal("uncovered denial convicted")
	}
}

// TestJudgeOmissionRejectsGossipNotSignedByCloud: under a cloud that is
// not named "cloud", a client signs its own "gossip" claiming ten
// certified blocks and pairs it with an honest edge's genuine denial of a
// block it does not have. Gossip is a statement of the adjudicating cloud,
// so only that cloud's signature makes it evidence.
func TestJudgeOmissionRejectsGossipNotSignedByCloud(t *testing.T) {
	reg := wcrypto.NewRegistry()
	keys := map[wire.NodeID]wcrypto.KeyPair{}
	for _, id := range []wire.NodeID{"cloud-b", "edge-1", "c1"} {
		keys[id] = wcrypto.DeterministicKey(id)
		reg.Register(id, keys[id].Pub)
	}
	denial := &wire.ReadResponse{ReqID: 1, BID: 5, OK: false, Ts: 150}
	denial.EdgeSig = wcrypto.SignMsg(keys["edge-1"], denial)

	forged := &wire.Gossip{Edge: "edge-1", Ts: 50, Blocks: 10}
	forged.CloudSig = wcrypto.SignMsg(keys["c1"], forged)
	v := Judge(reg, NewCertTable(), "cloud-b", "c1", BuildOmissionDispute(keys["c1"], "edge-1", denial, forged), "edge-1")
	if v.Guilty || v.Reason != "dispute rejected: gossip not signed by cloud" {
		t.Fatalf("client-signed gossip: guilty=%v reason=%q", v.Guilty, v.Reason)
	}

	genuine := &wire.Gossip{Edge: "edge-1", Ts: 50, Blocks: 10}
	genuine.CloudSig = wcrypto.SignMsg(keys["cloud-b"], genuine)
	if v := Judge(reg, NewCertTable(), "cloud-b", "c1", BuildOmissionDispute(keys["c1"], "edge-1", denial, genuine), "edge-1"); !v.Guilty {
		t.Fatalf("cloud-signed gossip acquitted: %s", v.Reason)
	}
}

func TestJudgeRejectsUndecodableEvidence(t *testing.T) {
	keys, reg := testKeys(t)
	ct := NewCertTable()
	d := &wire.Dispute{Kind: wire.DisputeAddLie, Edge: "edge-1", BID: 0, Evidence: []byte{1, 2, 3}}
	d.ClientSig = wcrypto.SignMsg(keys["c1"], d)
	if v := Judge(reg, ct, "cloud", "c1", d, d.Edge); v.Guilty {
		t.Fatal("garbage evidence convicted")
	}
}

func TestPhaseStrings(t *testing.T) {
	if PhaseNone.String() != "none" || PhaseI.String() != "phase-I" || PhaseII.String() != "phase-II" {
		t.Fatal("phase names changed")
	}
}
