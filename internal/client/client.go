// Package client implements the WedgeChain client: the authenticated node
// that produces MACed writes, tracks every operation through Phase I and
// Phase II commitment, verifies the evidence and proofs it relies on, and
// files disputes when the edge lies (Section IV-D Algorithm 1 and Section
// V-B). An edge's signature on a read is checked only where the client
// may need the response as evidence: a read whose every row is bound to
// cloud signatures settles without it (verifyRead).
//
// Core is a message-driven state machine with no I/O of its own: every API
// returns the envelopes to send, and Receive/Tick consume deliveries. The
// simulator drives it for experiments; the synchronous wrapper in the
// public façade drives it for applications.
package client

import (
	"bytes"
	"errors"
	"fmt"

	"wedgechain/internal/core"
	"wedgechain/internal/obs"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Core implements core.Handler so all transports can drive it.
var _ core.Handler = (*Core)(nil)

// Operation outcomes beyond success.
var (
	// ErrStale reports a get whose global root timestamp fell outside
	// the freshness window.
	ErrStale = errors.New("client: response outside freshness window")
	// ErrUnavailable reports an operation the edge would not or could
	// not serve: a read denied with no gossip contradicting the denial,
	// or an op still unacknowledged a proof timeout after it started (or
	// was rebound), three jittered re-sends later — the partition case.
	ErrUnavailable = errors.New("client: block not available")
	// ErrEdgeLied reports an operation whose evidence contradicts the
	// certified state; a dispute was filed.
	ErrEdgeLied = errors.New("client: edge served content contradicting certification")
	// ErrEdgeBanned reports an operation routed to an edge the cloud has
	// convicted. Once a guilty verdict for the edge reaches the client,
	// in-flight and subsequent operations on that edge fail immediately
	// instead of waiting out a proof that can never arrive.
	ErrEdgeBanned = errors.New("client: edge was convicted and banned")
	// ErrBadResponse reports a response that failed local verification.
	ErrBadResponse = errors.New("client: response failed verification")
	// ErrRegression reports a get served from a snapshot older than one
	// this session has already observed (session consistency violation).
	ErrRegression = errors.New("client: response regressed behind session state")
	// ErrOverloaded reports a write the edge explicitly shed under
	// admission control (uncertified backlog at cap), with a signed
	// retry-after hint. The retry machinery paces re-sends by the hint;
	// exhaustion surfaces this instead of ErrUnavailable so callers can
	// tell "come back later" from "gone".
	ErrOverloaded = errors.New("client: edge overloaded; retry later")
	// ErrReserveTooLarge reports a reservation of more than
	// wire.MaxReserve positions; nothing was sent.
	ErrReserveTooLarge = errors.New("client: reservation exceeds wire.MaxReserve positions")
)

// Kind identifies an operation type.
type Kind uint8

// Operation kinds.
const (
	KindAdd Kind = iota + 1
	KindPut
	KindRead
	KindGet
	KindScan
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindAdd:
		return "add"
	case KindPut:
		return "put"
	case KindRead:
		return "read"
	case KindGet:
		return "get"
	case KindScan:
		return "scan"
	default:
		return "unknown"
	}
}

// Op tracks one operation through its lifecycle. PhaseIAt and PhaseIIAt
// are virtual-time stamps used by the benchmarks to reproduce the paper's
// Figure 6 commit-rate curves.
type Op struct {
	Kind  Kind
	Seq   uint64      // entry seq for writes
	ReqID uint64      // correlation id for reads/gets
	Edge  wire.NodeID // edge the operation was routed to
	Key   []byte
	Value []byte

	BID       uint64
	Phase     core.Phase
	StartedAt int64
	PhaseIAt  int64
	PhaseIIAt int64
	Done      bool
	Err       error

	// Read/get results.
	Block    *wire.Block
	Found    bool
	GotValue []byte
	GotVer   uint64

	// Scan parameters and the verified, derived, limit-truncated result.
	ScanStart []byte
	ScanEnd   []byte
	ScanLimit int
	ScanKVs   []wire.KV

	// Evidence held for dispute filing.
	digest      []byte // digest of the block accepted at Phase I
	putEvidence *wire.PutResponse
	readEv      *wire.ReadResponse
	scanEv      *wire.ScanResponse
	pendingBIDs map[uint64][]byte // get/scan: uncertified bid -> expected digest
	disputed    bool
	retries     int
	Verdict     *wire.Verdict

	// Re-send state (retry.go): the time the op's budget counts from (its
	// start or its last rebind), its next mark (0 = not yet scheduled) and
	// when the next re-send or the deadline falls. overloaded marks an op
	// the edge explicitly shed (signed Overloaded), so the deadline settles
	// it with ErrOverloaded instead of ErrUnavailable. pos is the
	// wire.Entry.Pos an AddAt writes for (reserved position + 1), which
	// every re-send keeps.
	pos        uint64
	budgetFrom int64
	mark       int
	nextResend int64
	overloaded bool
}

// DisputeFiled reports whether this operation accused its edge with the
// cloud. The cloud's verdict arrives asynchronously and is attached to
// Verdict — possibly after the operation already settled with an error,
// which is why callers that want to report the conviction (wedge-client,
// examples) poll for Verdict briefly instead of giving up at Done.
func (op *Op) DisputeFiled() bool { return op.disputed }

// Config parameterizes a client.
type Config struct {
	ID    wire.NodeID
	Edge  wire.NodeID
	Cloud wire.NodeID
	// Chain is the chain identity this session verifies against — the
	// shard's initial leader, stamped into every block, certificate,
	// gossip and signed root no matter which replica currently serves the
	// chain. Edge is the node requests go to and may be rebound by a
	// cloud-signed leadership transfer; Chain never changes. Defaults to
	// Edge, which is always right for unreplicated deployments.
	Chain wire.NodeID
	// ProofTimeout is how long a Phase I operation waits for its block
	// proof before filing a dispute with the cloud (ns); 0 = the layer
	// default. It is also the budget of an op the edge never answers: it
	// is re-sent at an eighth, a quarter and half of it, and settles with
	// ErrUnavailable when it runs out (retry.go).
	ProofTimeout int64
	// FreshnessWindow bounds get staleness (Section V-D); 0 disables.
	FreshnessWindow int64
	// Session enables client-side session consistency — the paper's
	// Section V-D alternative to clock-based freshness: the client
	// remembers the newest (epoch, L0 frontier) it has observed and
	// rejects any get served from an older snapshot, giving monotonic
	// reads without synchronized clocks.
	Session bool
	// Metrics is the registry this core's counters and op-tracing
	// histograms (trust lag, ack latency, verify CPU) register into; nil
	// keeps them on a private registry.
	Metrics *obs.Registry
}

// maxRetries bounds automatic retries of stale gets and
// gossip-contradicted read denials.
const maxRetries = 2

// fill replaces every zero knob with the layer default. It is the one
// place those defaults are written.
func (c *Config) fill() {
	if c.Chain == "" {
		c.Chain = c.Edge
	}
	if c.ProofTimeout <= 0 {
		c.ProofTimeout = int64(10e9)
	}
}

// Defaults returns a zero Config with every knob at its layer default:
// the values a binary's flags start from.
func Defaults() (c Config) {
	c.fill()
	return c
}

// Core is the client state machine. Not safe for concurrent use.
type Core struct {
	cfg Config
	key wcrypto.KeyPair
	reg *wcrypto.Registry

	seq   uint64
	reqID uint64
	// Per-op indexes: write ops by entry seq, read/get/scan ops by
	// request id, Phase I ops by the block id whose proof they await.
	// Monotonic keys, so flat position-indexed windows (core.Window): no
	// hashing on the hot path, and settled ops leave the structure.
	bySeq   core.Window[*Op]
	byReq   core.Window[*Op]
	byBID   core.Window[[]*Op]
	accused []*Op        // ops with a filed dispute awaiting a verdict
	gossip  *wire.Gossip // latest gossip for my edge

	// Session-consistency watermarks: newest index epoch and L0
	// frontier (one past the highest block id) observed in verified
	// responses.
	sessEpoch uint64
	sessL0End uint64

	// OnDone, when set, fires once per op as it fully settles.
	OnDone func(*Op)
	// OnPhaseI fires when an op reaches Phase I.
	OnPhaseI func(*Op)
	// OnPhaseII fires when an op reaches Phase II.
	OnPhaseII func(*Op)

	onReserve Reservations

	// Failover state: the highest leadership-transfer epoch applied and
	// the demoted nodes this session used to talk to (their verdicts must
	// still settle the disputes they answer, without banning the chain).
	epoch   uint64
	formers map[wire.NodeID]bool

	retryAt int64         // when the retry pass next walks the windows (retry.go)
	pending int           // started ops not yet settled
	banned  *wire.Verdict // guilty verdict against my edge, once known
	m       *metrics
}

// Stats are client counters.
type Stats struct {
	Disputes       uint64
	LiesDetected   uint64
	StaleRejected  uint64
	Retries        uint64
	VerifyFailures uint64
	Failovers      uint64
	// Resends counts transport-level re-sends of unanswered ops (retry.go);
	// Retries above counts verification-driven retries (stale gets,
	// contradicted denials) — different layers, kept separate.
	Resends uint64
	// Overloads counts signed Overloaded shed signals accepted from the
	// edge (admission control).
	Overloads uint64
	// FullVerifies counts get and scan responses structurally verified,
	// and VerifyNanos the wall-clock time those verifications took.
	FullVerifies uint64
	VerifyNanos  uint64
}

// New constructs a client core.
func New(cfg Config, key wcrypto.KeyPair, reg *wcrypto.Registry) *Core {
	cfg.fill()
	return &Core{
		cfg: cfg,
		key: key,
		reg: reg,
		m:   newMetrics(cfg.Metrics, string(cfg.ID), string(cfg.Chain)),
	}
}

// ID returns the client identity.
func (c *Core) ID() wire.NodeID { return c.cfg.ID }

// Stats returns a snapshot of the client's counters. Every field is an
// atomic load, so polling mid-run from another goroutine is race-free.
func (c *Core) Stats() Stats {
	return Stats{
		Disputes:       c.m.disputes.Value(),
		LiesDetected:   c.m.liesDetected.Value(),
		StaleRejected:  c.m.staleRejected.Value(),
		Retries:        c.m.retries.Value(),
		VerifyFailures: c.m.verifyFailures.Value(),
		Failovers:      c.m.failovers.Value(),
		Resends:        c.m.resends.Value(),
		Overloads:      c.m.overloads.Value(),
		FullVerifies:   c.m.fullVerifies.Value(),
		VerifyNanos:    c.m.verifyNanos.Value(),
	}
}

// Edge returns the node this core currently sends requests to; a
// leadership transfer rebinds it to the promoted replica.
func (c *Core) Edge() wire.NodeID { return c.cfg.Edge }

// Chain returns the chain identity this core verifies against. It never
// changes over the session's lifetime.
func (c *Core) Chain() wire.NodeID { return c.cfg.Chain }

// Epoch returns the highest leadership epoch this core has applied.
func (c *Core) Epoch() uint64 { return c.epoch }

// Pending reports the number of started operations that have not yet
// settled (reached Phase II, a verified result, or a terminal error).
func (c *Core) Pending() int { return c.pending }

// Gossip returns the latest cloud gossip seen for this client's edge.
func (c *Core) Gossip() *wire.Gossip { return c.gossip }

// Banned returns the guilty verdict against this core's edge, or nil
// while the edge is in good standing.
func (c *Core) Banned() *wire.Verdict { return c.banned }

// launchBanned settles a would-be operation immediately: the edge is
// convicted, so no batch is built, no request is sent, and no tracking
// state is kept.
func (c *Core) launchBanned(op *Op) (*Op, []wire.Envelope) {
	c.pending++
	op.Verdict = c.banned
	c.settle(op, ErrEdgeBanned)
	return op, nil
}

// Add starts a log append — a write without a key. The returned op
// reaches Phase I when the edge's signed block arrives and Phase II when
// the cloud's proof does.
func (c *Core) Add(now int64, payload []byte) (*Op, []wire.Envelope) {
	op := &Op{Kind: KindAdd, Value: payload}
	return op, c.write(now, []*Op{op})
}

// AddAt starts a log append for a reserved absolute position
// (pos is the value returned by Reserve).
func (c *Core) AddAt(now int64, payload []byte, pos uint64) (*Op, []wire.Envelope) {
	op := &Op{Kind: KindAdd, Value: payload, pos: pos + 1}
	return op, c.write(now, []*Op{op})
}

// Put starts a key-value write through the LSMerkle index.
func (c *Core) Put(now int64, key, value []byte) (*Op, []wire.Envelope) {
	op := &Op{Kind: KindPut, Key: key, Value: value}
	return op, c.write(now, []*Op{op})
}

// PutBatch starts a batch of key-value writes carried in one request —
// the paper's batched submission mode. One Op is returned per pair.
func (c *Core) PutBatch(now int64, keys, values [][]byte) ([]*Op, []wire.Envelope) {
	ops := make([]*Op, len(keys))
	for i := range keys {
		ops[i] = &Op{Kind: KindPut, Key: keys[i], Value: values[i]}
	}
	return ops, c.write(now, ops)
}

// write launches ops, keyed or not, positioned or not: each takes the next
// seq, and all of them leave in one MACed batch.
func (c *Core) write(now int64, ops []*Op) []wire.Envelope {
	for _, op := range ops {
		op.Edge, op.StartedAt = c.cfg.Edge, now
		if c.banned != nil {
			c.launchBanned(op)
			continue
		}
		c.seq++
		op.Seq = c.seq
		c.bySeq.Set(op.Seq, op)
		c.pending++
	}
	if c.banned != nil {
		return nil
	}
	return c.submit(now, ops)
}

// submit builds and MACs the one write message: a PutBatch holding one
// entry per op, each under the op's seq and reserved position, stamped
// now. One MAC under the key this session shares with its current edge
// authenticates the batch; the entries carry no signature. The first send,
// every retry and every failover rebind go through here, so a rebound
// session MACs for its new edge. When the MAC cannot be made (the edge's
// key is not registered) nothing is sent: every op of the batch settles at
// once with ErrUnavailable naming the edge, since the edge would drop an
// unauthenticated batch without a word.
func (c *Core) submit(now int64, ops []*Op) []wire.Envelope {
	b := &wire.PutBatch{Client: c.cfg.ID, Entries: make([]wire.Entry, len(ops))}
	for i, op := range ops {
		b.Entries[i] = wire.Entry{Client: c.cfg.ID, Seq: op.Seq, Key: op.Key, Value: op.Value, Ts: now, Pos: op.pos}
	}
	var err error
	if b.MAC, err = wcrypto.MAC(c.reg, c.key, c.cfg.ID, c.cfg.Edge, b); err != nil {
		err = fmt.Errorf("%w: cannot authenticate writes to %s: %v", ErrUnavailable, c.cfg.Edge, err)
		for _, op := range ops {
			c.settle(op, err)
		}
		return nil
	}
	return []wire.Envelope{{From: c.cfg.ID, To: c.cfg.Edge, Msg: b}}
}

// Read starts a block read.
func (c *Core) Read(now int64, bid uint64) (*Op, []wire.Envelope) {
	if c.banned != nil {
		return c.launchBanned(&Op{Kind: KindRead, Edge: c.cfg.Edge, BID: bid, StartedAt: now})
	}
	c.reqID++
	op := &Op{Kind: KindRead, ReqID: c.reqID, Edge: c.cfg.Edge, BID: bid, StartedAt: now}
	c.byReq.Set(c.reqID, op)
	c.pending++
	return op, []wire.Envelope{{From: c.cfg.ID, To: c.cfg.Edge, Msg: &wire.ReadRequest{BID: bid, ReqID: c.reqID}}}
}

// Get starts a key-value lookup: the scan of the key's point range
// (wire.PointRange), limited to its one record. The op settles with
// Found, GotValue and GotVer.
func (c *Core) Get(now int64, key []byte) (*Op, []wire.Envelope) {
	start, end := wire.PointRange(key)
	op := &Op{Kind: KindGet, Edge: c.cfg.Edge, Key: key, ScanStart: start, ScanEnd: end, ScanLimit: 1, StartedAt: now}
	if c.banned != nil {
		return c.launchBanned(op)
	}
	c.reqID++
	op.ReqID = c.reqID
	c.byReq.Set(c.reqID, op)
	c.pending++
	return op, []wire.Envelope{{From: c.cfg.ID, To: c.cfg.Edge, Msg: scanRequest(op)}}
}

// Scan starts a verified range scan over [start, end) on this core's
// edge (nil start/end mean ±infinity). The op settles with ScanKVs
// holding every certified record of the range, newest version per key,
// ordered and truncated to limit (0 = unlimited) — or with an error when
// the edge's completeness proof fails verification, in which case the
// signed proof is filed as dispute evidence.
func (c *Core) Scan(now int64, start, end []byte, limit int) (*Op, []wire.Envelope) {
	op := &Op{Kind: KindScan, Edge: c.cfg.Edge, ScanStart: start, ScanEnd: end, ScanLimit: limit, StartedAt: now}
	if c.banned != nil {
		return c.launchBanned(op)
	}
	if start != nil && end != nil && bytes.Compare(start, end) >= 0 {
		// Degenerate range: verifiably empty without touching the network.
		c.pending++
		op.Phase = core.PhaseII
		c.settle(op, nil)
		return op, nil
	}
	c.reqID++
	op.ReqID = c.reqID
	c.byReq.Set(c.reqID, op)
	c.pending++
	return op, []wire.Envelope{{From: c.cfg.ID, To: c.cfg.Edge, Msg: scanRequest(op)}}
}

// scanRequest is the wire request of a get or scan op — the first send
// and every re-send alike.
func scanRequest(op *Op) *wire.ScanRequest {
	return &wire.ScanRequest{Start: op.ScanStart, End: op.ScanEnd, Limit: uint32(op.ScanLimit), ReqID: op.ReqID}
}

// Reserve asks the edge for count reserved log positions. The response is
// surfaced through OnReserve. A convicted edge's chain is frozen, so no
// request is sent once the edge is banned — callers should check Banned
// rather than wait out the reservation timeout. A count the edge would
// refuse is refused here with ErrReserveTooLarge.
func (c *Core) Reserve(now int64, count uint32) ([]wire.Envelope, error) {
	if count > wire.MaxReserve {
		return nil, ErrReserveTooLarge
	}
	if c.banned != nil {
		return nil, nil
	}
	c.reqID++
	m := &wire.ReserveRequest{Client: c.cfg.ID, Count: count, ReqID: c.reqID}
	m.ClientSig = wcrypto.SignMsg(c.key, m)
	return []wire.Envelope{{From: c.cfg.ID, To: c.cfg.Edge, Msg: m}}, nil
}

// Reservations delivers granted reservations to the application.
type Reservations func(start uint64, count uint32)

// SetReserveHandler registers the callback invoked for each reservation
// grant.
func (c *Core) SetReserveHandler(f Reservations) { c.onReserve = f }

// Receive implements the message-driven half of the state machine.
func (c *Core) Receive(now int64, env wire.Envelope) []wire.Envelope {
	switch m := env.Msg.(type) {
	case *wire.PutResponse:
		return c.handlePutResponse(now, env.From, m)
	case *wire.BlockProof:
		return c.handleProof(now, env.From, m)
	case *wire.ReadResponse:
		return c.handleReadResponse(now, env.From, m)
	case *wire.ScanResponse:
		return c.handleScanResponse(now, env.From, m)
	case *wire.Gossip:
		return c.handleGossip(now, m)
	case *wire.Overloaded:
		return c.handleOverloaded(now, env.From, m)
	case *wire.Verdict:
		return c.handleVerdict(now, m)
	case *wire.LeadershipTransfer:
		return c.handleTransfer(now, env.From, m)
	case *wire.ReserveResponse:
		// A convicted edge's reservations are positions on a frozen
		// chain; drop them.
		if c.banned != nil {
			return nil
		}
		if err := wcrypto.VerifyMsg(c.reg, c.cfg.Edge, m, m.EdgeSig); err == nil && c.onReserve != nil {
			c.onReserve(m.Start, m.Count)
		}
		return nil
	default:
		return nil
	}
}

// Tick files disputes for Phase I operations whose proof timed out, and
// runs the retry pass for ops the edge never acknowledged: it re-sends
// them, or settles those whose proof timeout has passed.
func (c *Core) Tick(now int64) []wire.Envelope {
	var out []wire.Envelope
	c.byBID.Each(func(_ uint64, ops []*Op) {
		for _, op := range ops {
			if op.Done || op.disputed || op.Phase != core.PhaseI {
				continue
			}
			if now-op.PhaseIAt < c.cfg.ProofTimeout {
				continue
			}
			out = append(out, c.fileDispute(op)...)
		}
	})
	if c.banned == nil {
		out = append(out, c.tickRetry(now)...)
	}
	return out
}

func (c *Core) settle(op *Op, err error) {
	if op.Done {
		return
	}
	op.Done = true
	op.Err = err
	c.pending--
	// Settled ops leave the key-indexed windows so their bases can chase
	// the live ops (late duplicate responses then simply miss).
	if op.Seq != 0 {
		c.bySeq.Delete(op.Seq)
	}
	if op.ReqID != 0 {
		c.byReq.Delete(op.ReqID)
	}
	if c.OnDone != nil {
		c.OnDone(op)
	}
}

// addByBID registers op as awaiting the proof of bid.
func (c *Core) addByBID(bid uint64, op *Op) {
	ops, _ := c.byBID.Get(bid)
	c.byBID.Set(bid, append(ops, op))
}

func (c *Core) phaseI(now int64, op *Op, bid uint64, digest []byte) {
	if op.Phase >= core.PhaseI {
		return
	}
	op.Phase = core.PhaseI
	op.PhaseIAt = now
	c.m.markPhaseI(op)
	if digest != nil {
		op.BID = bid
		op.digest = digest
		c.addByBID(bid, op)
	}
	if c.OnPhaseI != nil {
		c.OnPhaseI(op)
	}
}

func (c *Core) phaseII(now int64, op *Op) {
	if op.Phase >= core.PhaseII {
		return
	}
	op.Phase = core.PhaseII
	op.PhaseIIAt = now
	c.m.markPhaseII(op)
	if c.OnPhaseII != nil {
		c.OnPhaseII(op)
	}
	c.settle(op, nil)
}

// handlePutResponse implements Algorithm 1 lines 3-5 for every write: verify
// the edge's signature, verify my entries are in the block as I sent them,
// mark Phase I.
func (c *Core) handlePutResponse(now int64, from wire.NodeID, m *wire.PutResponse) []wire.Envelope {
	if from != c.cfg.Edge {
		return nil
	}
	if m.Block.ID != m.BID || m.Block.Edge != c.cfg.Chain {
		c.m.verifyFailures.Inc()
		return nil
	}
	// One hash serves both checks: the recomputed digest is the signable
	// body of the block-ack signature AND the value compared against the
	// cloud's certification later.
	digest := m.Block.BodyDigest()
	if err := wcrypto.VerifyBlockAck(c.reg, c.cfg.Edge, m.BID, digest, m.EdgeSig); err != nil {
		c.m.verifyFailures.Inc()
		return nil
	}
	for i := range m.Block.Entries {
		e := &m.Block.Entries[i]
		if e.Client != c.cfg.ID {
			continue
		}
		op, ok := c.bySeq.Get(e.Seq)
		if !ok || op.Phase >= core.PhaseI {
			continue
		}
		if !bytes.Equal(e.Value, op.Value) || !bytes.Equal(e.Key, op.Key) || e.Pos != op.pos ||
			(op.pos > 0 && m.Block.StartPos+uint64(i) != op.pos-1) {
			// The block misrepresents my entry, or holds a reserved write
			// outside its slot: reject outright. Entries carry no signature
			// of their own, so this is what binds the stored entry to the
			// one I sent.
			c.m.verifyFailures.Inc()
			c.settle(op, ErrBadResponse)
			continue
		}
		op.putEvidence = m
		op.Edge = from
		c.phaseI(now, op, m.BID, digest)
	}
	return nil
}

// handleProof upgrades every Phase I operation on the block to Phase II —
// or detects the lie when the certified digest contradicts the evidence.
// The proof is checked against the cloud's key whoever delivered it: the
// cloud itself, or the edge forwarding it.
func (c *Core) handleProof(now int64, from wire.NodeID, p *wire.BlockProof) []wire.Envelope {
	if p.Edge != c.cfg.Chain {
		return nil
	}
	if err := wcrypto.VerifyMsg(c.reg, c.cfg.Cloud, p, p.CloudSig); err != nil {
		c.m.verifyFailures.Inc()
		return nil
	}
	bid, digest := p.BID, p.Digest
	var out []wire.Envelope
	ops, _ := c.byBID.Get(bid)
	remaining := ops[:0]
	for _, op := range ops {
		if op.Done {
			continue
		}
		if op.Kind == KindGet || op.Kind == KindScan {
			if more := c.resolveProofDep(now, op, bid, digest); more != nil {
				out = append(out, more...)
			}
			// Re-register only while the op still pends on THIS bid (a
			// contradiction dispute keeps the pin for re-delivery); a
			// resolved dependency must release the slot, or a Done op
			// would pin the window's base forever.
			if _, still := op.pendingBIDs[bid]; still && !op.Done && op.Phase != core.PhaseII {
				remaining = append(remaining, op)
			}
			continue
		}
		if bytes.Equal(op.digest, digest) {
			c.phaseII(now, op)
			continue
		}
		// The certified block differs from what I was promised/served.
		c.m.liesDetected.Inc()
		out = append(out, c.fileDispute(op)...)
		remaining = append(remaining, op)
	}
	if len(remaining) == 0 {
		c.byBID.Delete(bid)
	} else {
		c.byBID.Set(bid, remaining)
	}
	return out
}

// resolveProofDep settles one uncertified L0 dependency of a Phase I get
// or scan. A certified digest contradicting the pinned one is the lazy
// catch for content the edge promised before certification.
func (c *Core) resolveProofDep(now int64, op *Op, bid uint64, digest []byte) []wire.Envelope {
	want, ok := op.pendingBIDs[bid]
	if !ok {
		return nil
	}
	if !bytes.Equal(want, digest) {
		c.m.liesDetected.Inc()
		return c.fileScanDispute(op, bid)
	}
	delete(op.pendingBIDs, bid)
	if len(op.pendingBIDs) == 0 {
		c.phaseII(now, op)
	}
	return nil
}

// lowestPending returns the smallest uncertified block id a get or scan
// still waits on (falling back to op.BID): the right block to dispute on
// proof timeout, since the cloud either holds a contradicting certificate
// for it or never saw it at all.
func lowestPending(op *Op) uint64 {
	bid, first := op.BID, true
	for b := range op.pendingBIDs {
		if first || b < bid {
			bid, first = b, false
		}
	}
	return bid
}

// fileDispute packages the op's evidence and accuses the node that
// signed it — op.Edge, which may be a since-demoted leader rather than
// the replica the session currently talks to. Get and scan evidence
// delegates to the dedicated filers BEFORE any dispute bookkeeping —
// they check op.disputed themselves, and marking the op first would make
// the delegation a silent no-op (the bug that used to swallow get/scan
// proof-timeout disputes entirely).
func (c *Core) fileDispute(op *Op) []wire.Envelope {
	if op.disputed {
		return nil
	}
	var d *wire.Dispute
	switch {
	case op.putEvidence != nil:
		d = core.BuildAddLieDispute(c.key, op.Edge, op.putEvidence)
	case op.readEv != nil && op.readEv.OK:
		d = core.BuildReadLieDispute(c.key, op.Edge, op.readEv)
	case op.readEv != nil && !op.readEv.OK && c.gossip != nil:
		d = core.BuildOmissionDispute(c.key, op.Edge, op.readEv, c.gossip)
	case op.scanEv != nil:
		// Dispute the lowest still-pending block (reads never set op.BID):
		// the cloud either holds a contradicting certificate or never saw
		// the block at all.
		return c.fileScanDispute(op, lowestPending(op))
	default:
		return nil
	}
	op.disputed = true
	c.accused = append(c.accused, op)
	c.m.disputes.Inc()
	return []wire.Envelope{{From: c.cfg.ID, To: c.cfg.Cloud, Msg: d}}
}

// accuse records op as disputed over bid and returns the accusation for
// the cloud — the dispute bookkeeping shared by every evidence-backed
// dispute kind. Callers check op.disputed first.
func (c *Core) accuse(op *Op, bid uint64, d *wire.Dispute) []wire.Envelope {
	op.disputed = true
	op.BID = bid
	c.accused = append(c.accused, op)
	c.m.disputes.Inc()
	return []wire.Envelope{{From: c.cfg.ID, To: c.cfg.Cloud, Msg: d}}
}

// handleVerdict settles disputed operations. Verdicts are node-scoped:
// one may convict a since-demoted leader whose evidence this session
// still holds, which settles those disputes without touching the chain's
// current replica.
func (c *Core) handleVerdict(now int64, v *wire.Verdict) []wire.Envelope {
	if err := wcrypto.VerifyMsg(c.reg, c.cfg.Cloud, v, v.CloudSig); err != nil {
		c.m.verifyFailures.Inc()
		return nil
	}
	if v.Edge != c.cfg.Edge && !c.formers[v.Edge] {
		return nil
	}
	remaining := c.accused[:0]
	for _, op := range c.accused {
		if op.Edge != v.Edge {
			remaining = append(remaining, op)
			continue
		}
		if op.Done {
			// Structural-defect disputes (scan and get evidence defects)
			// settle at filing time; attach the verdict anyway so callers
			// can report WHY the operation failed, not just that it did.
			// An op whose verdict has not arrived yet stays accused — a
			// verdict for a different block must not purge it.
			if op.BID == v.BID && op.Verdict == nil {
				op.Verdict = v
			} else if op.Verdict == nil {
				remaining = append(remaining, op)
			}
			continue
		}
		if op.BID != v.BID {
			remaining = append(remaining, op)
			continue
		}
		op.Verdict = v
		if v.Guilty {
			c.settle(op, ErrEdgeLied)
			continue
		}
		// Not-guilty verdicts are followed by the attached block proof
		// when one exists; handleProof completes Phase II.
		remaining = append(remaining, op)
	}
	c.accused = remaining
	if v.Guilty && v.Edge != c.cfg.Edge {
		// A former leader was convicted. The chain already failed over —
		// its disputes are settled above, the promoted replica keeps
		// serving, nothing is banned.
		return nil
	}
	if v.Guilty {
		// The edge is convicted: the cloud ignores it from here on, so
		// no outstanding operation can ever complete. Record the ban
		// (future ops fail at launch) and fail everything in flight —
		// this is how clients that were not party to the dispute learn
		// of a conviction from the cloud's verdict broadcast. Settled
		// disputed ops still awaiting their own verdict get this one:
		// their accusation stands against an edge now proven guilty.
		c.banned = v
		for _, op := range c.accused {
			if op.Verdict == nil {
				op.Verdict = v
			}
		}
		c.accused = nil
		c.bySeq.Each(func(_ uint64, op *Op) {
			if !op.Done {
				op.Verdict = v
				c.settle(op, ErrEdgeBanned)
			}
		})
		c.byReq.Each(func(_ uint64, op *Op) {
			if !op.Done {
				op.Verdict = v
				c.settle(op, ErrEdgeBanned)
			}
		})
	}
	return nil
}

func (c *Core) handleGossip(now int64, g *wire.Gossip) []wire.Envelope {
	if g.Edge != c.cfg.Chain {
		return nil
	}
	if err := wcrypto.VerifyMsg(c.reg, c.cfg.Cloud, g, g.CloudSig); err != nil {
		c.m.verifyFailures.Inc()
		return nil
	}
	if c.gossip == nil || g.Ts > c.gossip.Ts {
		c.gossip = g
	}
	return nil
}
