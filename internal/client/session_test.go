package client

import (
	"errors"
	"testing"

	"wedgechain/internal/merkle"
	"wedgechain/internal/mlsm"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// sessionFixture builds a session-enabled client plus two validly signed
// get responses representing snapshots at epoch 1 and epoch 2.
type sessionFixture struct {
	*fixture
	respOld *wire.GetResponse // epoch 1
	respNew *wire.GetResponse // epoch 2
}

func newSessionFixture(t *testing.T) *sessionFixture {
	t.Helper()
	f := newFixture(t)
	f.c = New(Config{
		ID: "c1", Edge: "edge-1", Cloud: "cloud",
		ProofTimeout: 1000,
		Session:      true,
	}, f.keys["c1"], f.reg)

	mkResp := func(epoch uint64, ver uint64) *wire.GetResponse {
		pages := mlsm.Merge([]wire.KV{{Key: []byte("k"), Value: []byte("v"), Ver: ver}}, nil, 1, 4, epoch*10, int64(epoch))
		tree := mlsm.LevelTree(pages)
		roots := [][]byte{tree.Root(), merkle.New(nil).Root()}
		global := wire.SignedRoot{Edge: "edge-1", Epoch: epoch, Root: mlsm.GlobalRoot(roots), Ts: int64(epoch)}
		global.CloudSig = wcrypto.SignMsg(f.keys["cloud"], &global)
		path, _ := tree.Proof(0)
		resp := &wire.GetResponse{
			ReqID: 1, Key: []byte("k"), Found: true, Value: []byte("v"), Ver: ver,
			Proof: wire.GetProof{
				Levels: []wire.LevelProof{{Level: 1, Page: pages[0], Index: 0, Width: 1, Path: path}},
				Roots:  roots,
				Global: global,
			},
		}
		resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
		return resp
	}
	return &sessionFixture{fixture: f, respOld: mkResp(1, 1), respNew: mkResp(2, 2)}
}

func TestSessionAcceptsMonotonicSnapshots(t *testing.T) {
	f := newSessionFixture(t)
	if err := f.c.VerifyGetResponse(10, []byte("k"), f.respOld); err != nil {
		t.Fatalf("epoch-1 response rejected: %v", err)
	}
	if err := f.c.VerifyGetResponse(20, []byte("k"), f.respNew); err != nil {
		t.Fatalf("epoch-2 response rejected: %v", err)
	}
	// Re-serving the same newest snapshot is fine (monotonic, not strict).
	if err := f.c.VerifyGetResponse(30, []byte("k"), f.respNew); err != nil {
		t.Fatalf("re-served epoch-2 rejected: %v", err)
	}
}

func TestSessionRejectsEpochRegression(t *testing.T) {
	f := newSessionFixture(t)
	if err := f.c.VerifyGetResponse(10, []byte("k"), f.respNew); err != nil {
		t.Fatal(err)
	}
	// The edge rolls back to the older (validly signed) snapshot.
	err := f.c.VerifyGetResponse(20, []byte("k"), f.respOld)
	if !errors.Is(err, ErrRegression) {
		t.Fatalf("regressed snapshot: err = %v, want ErrRegression", err)
	}
}

func TestSessionRegressionTriggersRetryThenFailure(t *testing.T) {
	f := newSessionFixture(t)
	if err := f.c.VerifyGetResponse(10, []byte("k"), f.respNew); err != nil {
		t.Fatal(err)
	}
	op, _ := f.c.Get(20, []byte("k"))
	serve := func() []wire.Envelope {
		resp := *f.respOld
		resp.ReqID = op.ReqID
		resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], &resp)
		return f.c.Receive(30, wire.Envelope{From: "edge-1", To: "c1", Msg: &resp})
	}
	// First regressed serve: the client retries.
	out := serve()
	if len(out) != 1 {
		t.Fatalf("outputs = %d, want retry", len(out))
	}
	if _, ok := out[0].Msg.(*wire.GetRequest); !ok {
		t.Fatalf("output = %T", out[0].Msg)
	}
	// Exhaust retries: the op settles with ErrRegression.
	for i := 0; i < 5 && !op.Done; i++ {
		serve()
	}
	if !errors.Is(op.Err, ErrRegression) {
		t.Fatalf("op err = %v, want ErrRegression", op.Err)
	}
}

func TestSessionL0FrontierMonotonic(t *testing.T) {
	f := newSessionFixture(t)
	mkL0 := func(ids ...uint64) *wire.GetResponse {
		var blocks []wire.Block
		var certs []wire.BlockProof
		for _, id := range ids {
			b := wire.Block{Edge: "edge-1", ID: id, StartPos: id}
			p := wire.BlockProof{Edge: "edge-1", BID: id, Digest: wcrypto.BlockDigest(&b)}
			p.CloudSig = wcrypto.SignMsg(f.keys["cloud"], &p)
			blocks = append(blocks, b)
			certs = append(certs, p)
		}
		window := mlsm.L0Source{Blocks: blocks, Certs: certs}.Window(wire.PointRange([]byte("k")))
		resp := &wire.GetResponse{ReqID: 1, Key: []byte("k"), Proof: wire.GetProof{L0Pruned: window}}
		resp.EdgeSig = wcrypto.SignMsg(f.keys["edge-1"], resp)
		return resp
	}
	if err := f.c.VerifyGetResponse(10, []byte("k"), mkL0(0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	// Same epoch (0, no merges) but fewer blocks: hidden tail.
	err := f.c.VerifyGetResponse(20, []byte("k"), mkL0(0, 1))
	if !errors.Is(err, ErrRegression) {
		t.Fatalf("L0 regression: err = %v, want ErrRegression", err)
	}
}

func TestSessionDisabledAcceptsRegression(t *testing.T) {
	f := newSessionFixture(t)
	f.c = New(Config{ID: "c1", Edge: "edge-1", Cloud: "cloud"}, f.keys["c1"], f.reg)
	if err := f.c.VerifyGetResponse(10, []byte("k"), f.respNew); err != nil {
		t.Fatal(err)
	}
	if err := f.c.VerifyGetResponse(20, []byte("k"), f.respOld); err != nil {
		t.Fatalf("session off must accept: %v", err)
	}
}
