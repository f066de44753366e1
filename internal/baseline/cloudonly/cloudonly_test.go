package cloudonly

import (
	"bytes"
	"testing"

	"wedgechain/internal/deploy"
	"wedgechain/internal/sim"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

func newWorld(t *testing.T, batch int) (*sim.Sim, *Server, *Client) {
	t.Helper()
	keys, reg, _ := deploy.Keys(deploy.Topology{Clients: 1})
	srv := NewServer(ServerConfig{ID: "cloud", BatchSize: batch}, reg)
	cl := NewClient("c1", "cloud", keys["c1"])
	s := sim.New(sim.Config{TickEvery: 1e6, DefaultLink: sim.Link{Latency: 1e6}})
	s.Add(srv)
	s.Add(cl)
	return s, srv, cl
}

func TestBatchedWritesAcknowledged(t *testing.T) {
	s, srv, cl := newWorld(t, 2)
	op1, envs := cl.Put(s.Now(), []byte("k1"), []byte("v1"))
	s.Inject(envs)
	op2, envs := cl.Put(s.Now(), []byte("k2"), []byte("v2"))
	s.Inject(envs)
	s.Drain(s.Now() + int64(10e9))
	if !op1.Done || !op2.Done {
		t.Fatalf("ops done = %v/%v", op1.Done, op2.Done)
	}
	if srv.Stats().Blocks != 1 {
		t.Fatalf("blocks = %d", srv.Stats().Blocks)
	}
}

func TestGetLatestVersionWins(t *testing.T) {
	s, _, cl := newWorld(t, 1)
	for _, v := range []string{"old", "mid", "new"} {
		_, envs := cl.Put(s.Now(), []byte("k"), []byte(v))
		s.Inject(envs)
		s.Drain(s.Now() + int64(10e9))
	}
	op, envs := cl.Get(s.Now(), []byte("k"))
	s.Inject(envs)
	s.Drain(s.Now() + int64(10e9))
	if !op.Done || !op.Found || !bytes.Equal(op.GotValue, []byte("new")) {
		t.Fatalf("get = %q found=%v done=%v", op.GotValue, op.Found, op.Done)
	}
}

func TestGetMissingKey(t *testing.T) {
	s, _, cl := newWorld(t, 1)
	op, envs := cl.Get(s.Now(), []byte("ghost"))
	s.Inject(envs)
	s.Drain(s.Now() + int64(10e9))
	if !op.Done || op.Found {
		t.Fatalf("missing key: done=%v found=%v", op.Done, op.Found)
	}
}

func TestServerRejectsForgedEntries(t *testing.T) {
	keys, reg, _ := deploy.Keys(deploy.Topology{Clients: 1})
	ck := keys["c1"]
	srv := NewServer(ServerConfig{ID: "cloud", BatchSize: 1}, reg)

	e := wire.Entry{Client: "c1", Seq: 1, Key: []byte("k"), Value: []byte("v")}
	e.Sig = wcrypto.SignMsg(ck, &e)
	e.Value = []byte("tampered-after-signing")
	out := srv.Receive(1, wire.Envelope{From: "c1", To: "cloud", Msg: &wire.CloudPutBatch{Entries: []wire.Entry{e}}})
	if out != nil || srv.Stats().Writes != 0 {
		t.Fatal("forged entry accepted")
	}
}

func TestFlushCommitsPartialBatch(t *testing.T) {
	s, srv, cl := newWorld(t, 100)
	op, envs := cl.Put(s.Now(), []byte("k"), []byte("v"))
	s.Inject(envs)
	s.Drain(s.Now() + int64(5e9))
	if op.Done {
		t.Fatal("partial batch acknowledged early")
	}
	s.Inject(srv.Flush(s.Now()))
	s.Drain(s.Now() + int64(5e9))
	if !op.Done {
		t.Fatal("flush did not acknowledge")
	}
}

func TestGetLocal(t *testing.T) {
	s, srv, cl := newWorld(t, 1)
	_, envs := cl.Put(s.Now(), []byte("k"), []byte("v"))
	s.Inject(envs)
	s.Drain(s.Now() + int64(5e9))
	v, ok := srv.GetLocal([]byte("k"))
	if !ok || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("GetLocal = %q,%v", v, ok)
	}
}
