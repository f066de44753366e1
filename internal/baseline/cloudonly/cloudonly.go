// Package cloudonly implements the Cloud-only baseline of the paper's
// evaluation (Section VI): every request — write or read — is served by
// the trusted cloud node. Clients fully trust results (no proofs, no
// verification overhead), but every operation pays the wide-area round
// trip to the cloud.
package cloudonly

import (
	"wedgechain/internal/core"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Server implements core.Handler so all transports can drive it.
var _ core.Handler = (*Server)(nil)

// Client implements core.Handler so all transports can drive it.
var _ core.Handler = (*Client)(nil)

// ServerConfig parameterizes the Cloud-only server.
type ServerConfig struct {
	ID wire.NodeID
	// BatchSize groups writes into blocks before acknowledging, matching
	// the batching used across all systems in the evaluation.
	BatchSize int
}

type pendingWrite struct {
	client wire.NodeID
	seq    uint64
}

// Server is the trusted cloud serving the whole workload. Not safe for
// concurrent use.
type Server struct {
	cfg ServerConfig
	reg *wcrypto.Registry

	buf     []wire.Entry
	pending []pendingWrite
	blocks  uint64
	kv      map[string]kvRec
	stats   Stats
}

type kvRec struct {
	value []byte
	ver   uint64
}

// Stats are server counters.
type Stats struct {
	Writes uint64
	Reads  uint64
	Blocks uint64
}

// NewServer constructs the Cloud-only server.
func NewServer(cfg ServerConfig, reg *wcrypto.Registry) *Server {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 100
	}
	return &Server{cfg: cfg, reg: reg, kv: make(map[string]kvRec)}
}

// ID implements core.Handler.
func (s *Server) ID() wire.NodeID { return s.cfg.ID }

// Stats returns a copy of the counters.
func (s *Server) Stats() Stats { return s.stats }

// Len reports the number of stored keys.
func (s *Server) Len() int { return len(s.kv) }

// GetLocal looks a key up directly — the trusted, proof-free read path
// whose best-case cost Figure 5(d) measures.
func (s *Server) GetLocal(key []byte) ([]byte, bool) {
	rec, ok := s.kv[string(key)]
	return rec.value, ok
}

// Receive implements core.Handler.
func (s *Server) Receive(now int64, env wire.Envelope) []wire.Envelope {
	switch m := env.Msg.(type) {
	case *wire.CloudPutBatch:
		return s.handlePut(now, env.From, m)
	case *wire.CloudGetRequest:
		return s.handleGet(now, env.From, m)
	default:
		return nil
	}
}

// Tick implements core.Handler.
func (s *Server) Tick(now int64) []wire.Envelope { return nil }

// handlePut buffers each correctly signed entry of a write batch, cutting
// a block at every BatchSize entries.
func (s *Server) handlePut(now int64, from wire.NodeID, m *wire.CloudPutBatch) []wire.Envelope {
	var out []wire.Envelope
	for _, e := range m.Entries {
		if e.Client != from || wcrypto.VerifyMsg(s.reg, e.Client, &e, e.Sig) != nil {
			continue
		}
		s.stats.Writes++
		s.buf = append(s.buf, e)
		s.pending = append(s.pending, pendingWrite{client: e.Client, seq: e.Seq})
		if len(s.buf) == s.cfg.BatchSize {
			out = append(out, s.cutBatch(now)...)
		}
	}
	return out
}

func (s *Server) cutBatch(now int64) []wire.Envelope {
	bid := s.blocks
	s.blocks++
	s.stats.Blocks++
	for i, e := range s.buf {
		if len(e.Key) > 0 {
			ver := bid*uint64(s.cfg.BatchSize) + uint64(i) + 1
			s.kv[string(e.Key)] = kvRec{value: e.Value, ver: ver}
		}
	}
	out := make([]wire.Envelope, 0, len(s.pending))
	for _, p := range s.pending {
		out = append(out, wire.Envelope{
			From: s.cfg.ID, To: p.client,
			Msg: &wire.CloudPutResponse{Seq: p.seq, BID: bid, OK: true},
		})
	}
	s.buf = s.buf[:0]
	s.pending = s.pending[:0]
	return out
}

// Flush force-commits a partial batch (used by drivers at workload end).
func (s *Server) Flush(now int64) []wire.Envelope {
	if len(s.buf) == 0 {
		return nil
	}
	return s.cutBatch(now)
}

func (s *Server) handleGet(now int64, from wire.NodeID, m *wire.CloudGetRequest) []wire.Envelope {
	s.stats.Reads++
	rec, ok := s.kv[string(m.Key)]
	resp := &wire.CloudGetResponse{ReqID: m.ReqID, Found: ok}
	if ok {
		resp.Value = rec.value
		resp.Ver = rec.ver
	}
	return []wire.Envelope{{From: s.cfg.ID, To: from, Msg: resp}}
}

// Op is a pending Cloud-only operation.
type Op struct {
	Seq      uint64
	ReqID    uint64
	Done     bool
	Found    bool
	GotValue []byte
	GotVer   uint64
	DoneAt   int64
}

// Client is the trivially trusting Cloud-only client.
type Client struct {
	id    wire.NodeID
	cloud wire.NodeID
	key   wcrypto.KeyPair

	seq   uint64
	reqID uint64
	puts  map[uint64]*Op
	gets  map[uint64]*Op

	// OnDone fires as operations complete.
	OnDone func(*Op)
}

// NewClient constructs a Cloud-only client.
func NewClient(id, cloud wire.NodeID, key wcrypto.KeyPair) *Client {
	return &Client{
		id: id, cloud: cloud, key: key,
		puts: make(map[uint64]*Op),
		gets: make(map[uint64]*Op),
	}
}

// ID implements core.Handler.
func (c *Client) ID() wire.NodeID { return c.id }

// Put starts a write: a batch of one.
func (c *Client) Put(now int64, key, value []byte) (*Op, []wire.Envelope) {
	ops, envs := c.PutBatch(now, [][]byte{key}, [][]byte{value})
	return ops[0], envs
}

// PutBatch starts a batch of writes carried in one request.
func (c *Client) PutBatch(now int64, keys, values [][]byte) ([]*Op, []wire.Envelope) {
	batch := &wire.CloudPutBatch{Entries: make([]wire.Entry, 0, len(keys))}
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

// Get starts a read.
func (c *Client) Get(now int64, key []byte) (*Op, []wire.Envelope) {
	c.reqID++
	op := &Op{ReqID: c.reqID}
	c.gets[c.reqID] = op
	return op, []wire.Envelope{{From: c.id, To: c.cloud, Msg: &wire.CloudGetRequest{Key: key, ReqID: c.reqID}}}
}

// Receive implements core.Handler.
func (c *Client) Receive(now int64, env wire.Envelope) []wire.Envelope {
	switch m := env.Msg.(type) {
	case *wire.CloudPutResponse:
		if op, ok := c.puts[m.Seq]; ok && !op.Done {
			op.Done = true
			op.DoneAt = now
			delete(c.puts, m.Seq)
			if c.OnDone != nil {
				c.OnDone(op)
			}
		}
	case *wire.CloudGetResponse:
		if op, ok := c.gets[m.ReqID]; ok && !op.Done {
			op.Done = true
			op.DoneAt = now
			op.Found = m.Found
			op.GotValue = m.Value
			op.GotVer = m.Ver
			delete(c.gets, m.ReqID)
			if c.OnDone != nil {
				c.OnDone(op)
			}
		}
	}
	return nil
}

// Tick implements core.Handler.
func (c *Client) Tick(now int64) []wire.Envelope { return nil }
