package workload

import (
	"wedgechain/internal/baseline/cloudonly"
	"wedgechain/internal/baseline/edgebase"
	"wedgechain/internal/client"
	"wedgechain/internal/core"
	"wedgechain/internal/wire"
)

// WedgeConn adapts the WedgeChain client. Writes settle at Phase I commit
// (the paper's client-perceived latency); gets settle when the verified
// response arrives.
type WedgeConn struct {
	*client.Core
}

type wedgeStatus struct{ op *client.Op }

func (s wedgeStatus) Settled() bool {
	return s.op.Done || s.op.Phase >= core.PhaseI
}
func (s wedgeStatus) Err() error { return s.op.Err }

// PutBurst implements Conn.
func (w WedgeConn) PutBurst(now int64, keys, values [][]byte) ([]Status, []wire.Envelope) {
	ops, envs := w.PutBatch(now, keys, values)
	sts := make([]Status, len(ops))
	for i, op := range ops {
		sts[i] = wedgeStatus{op}
	}
	return sts, envs
}

// GetOp implements Conn.
func (w WedgeConn) GetOp(now int64, key []byte) (Status, []wire.Envelope) {
	op, envs := w.Get(now, key)
	return wedgeStatus{op}, envs
}

// ShardedConn adapts a sharded WedgeChain client session: puts and gets
// route by key across every shard's edge, and each shard's lazy-verify
// pipeline settles independently.
type ShardedConn struct {
	*client.Sharded
}

// PutBurst implements Conn.
func (w ShardedConn) PutBurst(now int64, keys, values [][]byte) ([]Status, []wire.Envelope) {
	ops, envs := w.PutBatch(now, keys, values)
	sts := make([]Status, len(ops))
	for i, op := range ops {
		sts[i] = wedgeStatus{op}
	}
	return sts, envs
}

// GetOp implements Conn.
func (w ShardedConn) GetOp(now int64, key []byte) (Status, []wire.Envelope) {
	op, envs := w.Get(now, key)
	return wedgeStatus{op}, envs
}

// CloudOnlyConn adapts the Cloud-only client.
type CloudOnlyConn struct {
	*cloudonly.Client
}

type coStatus struct{ op *cloudonly.Op }

func (s coStatus) Settled() bool { return s.op.Done }
func (s coStatus) Err() error    { return nil }

// PutBurst implements Conn.
func (c CloudOnlyConn) PutBurst(now int64, keys, values [][]byte) ([]Status, []wire.Envelope) {
	ops, envs := c.PutBatch(now, keys, values)
	sts := make([]Status, len(ops))
	for i, op := range ops {
		sts[i] = coStatus{op}
	}
	return sts, envs
}

// GetOp implements Conn.
func (c CloudOnlyConn) GetOp(now int64, key []byte) (Status, []wire.Envelope) {
	op, envs := c.Get(now, key)
	return coStatus{op}, envs
}

// EBConn adapts the Edge-baseline client.
type EBConn struct {
	*edgebase.Client
}

type ebStatus struct{ op *edgebase.Op }

func (s ebStatus) Settled() bool { return s.op.Done }
func (s ebStatus) Err() error    { return s.op.Err }

// PutBurst implements Conn.
func (c EBConn) PutBurst(now int64, keys, values [][]byte) ([]Status, []wire.Envelope) {
	ops, envs := c.PutBatch(now, keys, values)
	sts := make([]Status, len(ops))
	for i, op := range ops {
		sts[i] = ebStatus{op}
	}
	return sts, envs
}

// GetOp implements Conn.
func (c EBConn) GetOp(now int64, key []byte) (Status, []wire.Envelope) {
	op, envs := c.Get(now, key)
	return ebStatus{op}, envs
}
