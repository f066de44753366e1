package edgebase

import (
	"wedgechain/internal/client"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Op is a pending Edge-baseline operation.
type Op struct {
	Seq      uint64
	Done     bool
	DoneAt   int64
	Err      error
	Found    bool
	GotValue []byte
	GotVer   uint64
}

// Client is the Edge-baseline client: writes to the cloud, verified reads
// from the edge. Get verification is byte-identical to WedgeChain's (the
// proofs have the same shape), so it delegates to the WedgeChain client
// core.
type Client struct {
	id    wire.NodeID
	edge  wire.NodeID
	cloud wire.NodeID
	key   wcrypto.KeyPair

	inner *client.Core
	seq   uint64
	puts  map[uint64]*Op
	gets  map[*client.Op]*Op

	// OnDone fires as operations complete.
	OnDone func(*Op)
}

// NewClient constructs an Edge-baseline client reading from edge and
// writing through cloud.
func NewClient(id, edge, cloud wire.NodeID, key wcrypto.KeyPair, reg *wcrypto.Registry, freshness int64) *Client {
	c := &Client{
		id:    id,
		edge:  edge,
		cloud: cloud,
		key:   key,
		puts:  make(map[uint64]*Op),
		gets:  make(map[*client.Op]*Op),
	}
	c.inner = client.New(client.Config{
		ID:              id,
		Edge:            edge,
		Cloud:           cloud,
		FreshnessWindow: freshness,
	}, key, reg)
	c.inner.OnDone = c.innerDone
	return c
}

// ID implements core.Handler.
func (c *Client) ID() wire.NodeID { return c.id }

// Put starts a write through the cloud: a batch of one.
func (c *Client) Put(now int64, key, value []byte) (*Op, []wire.Envelope) {
	ops, envs := c.PutBatch(now, [][]byte{key}, [][]byte{value})
	return ops[0], envs
}

// PutBatch starts a batch of writes carried in one request.
func (c *Client) PutBatch(now int64, keys, values [][]byte) ([]*Op, []wire.Envelope) {
	batch := &wire.EBPutBatch{Edge: c.edge, Entries: make([]wire.Entry, 0, len(keys))}
	ops := make([]*Op, 0, len(keys))
	for i := range keys {
		c.seq++
		e := wire.Entry{Client: c.id, Seq: c.seq, Key: keys[i], Value: values[i], Ts: now}
		e.Sig = wcrypto.SignMsg(c.key, &e)
		op := &Op{Seq: c.seq}
		c.puts[c.seq] = op
		ops = append(ops, op)
		batch.Entries = append(batch.Entries, e)
	}
	return ops, []wire.Envelope{{From: c.id, To: c.cloud, Msg: batch}}
}

// Get starts a verified read from the edge.
func (c *Client) Get(now int64, key []byte) (*Op, []wire.Envelope) {
	iop, envs := c.inner.Get(now, key)
	op := &Op{}
	c.gets[iop] = op
	return op, envs
}

func (c *Client) innerDone(iop *client.Op) {
	op, ok := c.gets[iop]
	if !ok {
		return
	}
	delete(c.gets, iop)
	op.Done = true
	op.DoneAt = iop.PhaseIIAt
	if op.DoneAt == 0 {
		op.DoneAt = iop.PhaseIAt
	}
	op.Err = iop.Err
	op.Found = iop.Found
	op.GotValue = iop.GotValue
	op.GotVer = iop.GotVer
	if c.OnDone != nil {
		c.OnDone(op)
	}
}

// Receive implements core.Handler.
func (c *Client) Receive(now int64, env wire.Envelope) []wire.Envelope {
	if m, ok := env.Msg.(*wire.EBPutResponse); ok {
		if op, found := c.puts[m.Seq]; found && !op.Done {
			op.Done = true
			op.DoneAt = now
			delete(c.puts, m.Seq)
			if c.OnDone != nil {
				c.OnDone(op)
			}
		}
		return nil
	}
	return c.inner.Receive(now, env)
}

// Tick implements core.Handler.
func (c *Client) Tick(now int64) []wire.Envelope { return c.inner.Tick(now) }
