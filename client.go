package wedgechain

import (
	"errors"
	"sync"
	"time"

	"wedgechain/internal/client"
	"wedgechain/internal/wire"
)

// Errors surfaced by the synchronous client. ErrEdgeLied means the
// operation's evidence convicted the edge — the lazy-trust guarantee in
// action.
var (
	ErrTimeout     = errors.New("wedgechain: operation timed out")
	ErrEdgeLied    = client.ErrEdgeLied
	ErrEdgeBanned  = client.ErrEdgeBanned
	ErrStale       = client.ErrStale
	ErrUnavailable = client.ErrUnavailable
	ErrOverloaded  = client.ErrOverloaded
	// ErrReserveTooLarge reports a Reserve of more positions than an edge
	// grants in one request.
	ErrReserveTooLarge = client.ErrReserveTooLarge
)

// Receipt tracks a write through its two commitments. It is returned once
// the operation is Phase I committed (the paper's client-perceived commit);
// WaitPhaseII blocks until the cloud's certification lands.
//
// Receipts are safe for concurrent use: accessors read a snapshot the
// protocol goroutine publishes at each state change.
type Receipt struct {
	mu      sync.Mutex
	bid     uint64
	edge    NodeID
	phase   Phase
	err     error
	verdict *Verdict
	block   *wire.Block
	found   bool
	value   []byte
	ver     uint64
	scanKVs []wire.KV

	phase1  chan struct{}
	phase2  chan struct{}
	settled chan struct{}
}

func newReceipt() *Receipt {
	return &Receipt{
		phase1:  make(chan struct{}),
		phase2:  make(chan struct{}),
		settled: make(chan struct{}),
	}
}

// snapshot publishes the op's current state. Runs on the protocol
// goroutine, before the corresponding channel close.
func (r *Receipt) snapshot(op *client.Op) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bid = op.BID
	r.edge = op.Edge
	r.phase = op.Phase
	r.err = op.Err
	r.verdict = op.Verdict
	r.block = op.Block
	r.found = op.Found
	r.value = op.GotValue
	r.ver = op.GotVer
	r.scanKVs = op.ScanKVs
}

// BID returns the block id the entry committed into.
func (r *Receipt) BID() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bid
}

// Edge returns the shard edge the operation was routed to — the edge
// whose log holds BID. Pass it to ReadFrom to audit the entry's block.
func (r *Receipt) Edge() NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.edge
}

// Phase returns the last published commit phase.
func (r *Receipt) Phase() Phase {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.phase
}

// Err returns the terminal error, if the operation settled with one.
func (r *Receipt) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Verdict returns the cloud's ruling when the operation was disputed.
func (r *Receipt) Verdict() *Verdict {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.verdict
}

// WaitPhaseII blocks until the cloud certifies the block (Phase II), the
// operation fails terminally, or the timeout expires.
func (r *Receipt) WaitPhaseII(timeout time.Duration) error {
	select {
	case <-r.phase2:
		return nil
	case <-r.settled:
		return r.Err()
	case <-time.After(timeout):
		return ErrTimeout
	}
}

// Client is the synchronous application-facing client. All verification
// (signatures, digests, Merkle proofs, freshness) happens internally; a
// returned value is a verified value.
//
// In a sharded cluster one Client session spans every shard: Put and Get
// route by key through the cloud-signed shard map, while the
// position-based log API (Add, AddAt, Reserve, Read) binds to the
// session's home shard. Each shard's lazy-verify pipeline is independent;
// Pending exposes the per-shard backlog.
type Client struct {
	id      NodeID
	cluster *Cluster
	session *client.Sharded

	// waiters is touched only under the session's mutex.
	waiters map[*client.Op]*Receipt
}

func newClient(cluster *Cluster, id NodeID, session *client.Sharded) *Client {
	return &Client{
		id:      id,
		cluster: cluster,
		session: session,
		waiters: make(map[*client.Op]*Receipt),
	}
}

// ID returns the client identity.
func (c *Client) ID() NodeID { return c.id }

// Shards returns the number of shards this session multiplexes.
func (c *Client) Shards() int { return c.session.Shards() }

// EdgeFor returns the edge that serves key under the session's shard map.
func (c *Client) EdgeFor(key []byte) NodeID { return c.session.EdgeFor(key) }

// HomeEdge returns the edge serving this session's position-based log API.
func (c *Client) HomeEdge() NodeID { return c.session.Home().Edge() }

// Pending reports the number of unsettled operations per shard edge —
// one shard's backlog (or conviction) is visible without conflating it
// with its siblings.
func (c *Client) Pending() (p map[NodeID]int, err error) {
	err = c.cluster.on(c.id, func() { p = c.session.Pending() })
	return p, err
}

// ClientStats re-exports the per-shard protocol counters (verifications,
// retries, transport re-sends, failovers, …).
type ClientStats = client.Stats

// Stats returns this client's protocol counters per shard edge. Chaos
// harnesses read Resends to confirm the retry machinery absorbed the
// injected faults.
func (c *Client) Stats() (st map[NodeID]ClientStats, err error) {
	err = c.cluster.on(c.id, func() { st = c.session.StatsByEdge() })
	return st, err
}

// do runs fn under the session's mutex and sends what it returns.
func (c *Client) do(fn func(now int64) []wire.Envelope) error { return c.cluster.do(c.id, fn) }

func (c *Client) register(op *client.Op) *Receipt {
	r := newReceipt()
	if op.Done {
		// The op settled during launch — e.g. it was routed to a shard
		// whose edge is already convicted. Signal the receipt directly;
		// the callbacks fired before registration.
		r.snapshot(op)
		if op.Phase >= PhaseI {
			close(r.phase1)
		}
		if op.Phase >= PhaseII {
			close(r.phase2)
		}
		close(r.settled)
		return r
	}
	c.waiters[op] = r
	return r
}

// Callbacks run under the session's mutex; each publishes a snapshot
// before signalling.
func (c *Client) onPhaseI(op *client.Op) {
	if r, ok := c.waiters[op]; ok {
		r.snapshot(op)
		close(r.phase1)
	}
}

func (c *Client) onPhaseII(op *client.Op) {
	if r, ok := c.waiters[op]; ok {
		r.snapshot(op)
		close(r.phase2)
	}
}

func (c *Client) onDone(op *client.Op) {
	if r, ok := c.waiters[op]; ok {
		r.snapshot(op)
		close(r.settled)
		delete(c.waiters, op)
	}
}

// startWrite launches a write and blocks until Phase I commit (or
// terminal failure / timeout).
func (c *Client) startWrite(launch func(now int64) (*client.Op, []wire.Envelope), timeout time.Duration) (*Receipt, error) {
	var r *Receipt
	if err := c.do(func(now int64) []wire.Envelope {
		op, envs := launch(now)
		r = c.register(op)
		return envs
	}); err != nil {
		return nil, err
	}
	select {
	case <-r.phase1:
		return r, nil
	case <-r.settled:
		return r, r.Err()
	case <-time.After(timeout):
		return r, ErrTimeout
	}
}

// Add appends a payload to the edge log, returning after Phase I commit.
func (c *Client) Add(payload []byte) (*Receipt, error) {
	return c.startWrite(func(now int64) (*client.Op, []wire.Envelope) {
		return c.session.Add(now, payload)
	}, 30*time.Second)
}

// Put writes a key-value pair through the LSMerkle index, returning after
// Phase I commit.
func (c *Client) Put(key, value []byte) (*Receipt, error) {
	return c.startWrite(func(now int64) (*client.Op, []wire.Envelope) {
		return c.session.Put(now, key, value)
	}, 30*time.Second)
}

// AddAt appends a payload signed for a previously reserved position.
func (c *Client) AddAt(payload []byte, pos uint64) (*Receipt, error) {
	return c.startWrite(func(now int64) (*client.Op, []wire.Envelope) {
		return c.session.AddAt(now, payload, pos)
	}, 30*time.Second)
}

// Reserve grants count consecutive log positions for idempotent adds
// (Section IV-E); more than an edge grants at once is ErrReserveTooLarge.
func (c *Client) Reserve(count uint32, timeout time.Duration) (uint64, error) {
	ch := make(chan uint64, 1)
	var failed error
	if err := c.do(func(now int64) []wire.Envelope {
		if c.session.Home().Banned() != nil {
			failed = ErrEdgeBanned
			return nil
		}
		c.session.SetReserveHandler(func(start uint64, n uint32) {
			select {
			case ch <- start:
			default:
			}
		})
		var envs []wire.Envelope
		envs, failed = c.session.Reserve(now, count)
		return envs
	}); err != nil {
		return 0, err
	}
	if failed != nil {
		return 0, failed
	}
	select {
	case start := <-ch:
		return start, nil
	case <-time.After(timeout):
		return 0, ErrTimeout
	}
}

// Read fetches block bid from the session's home-shard log with its
// proof, blocking until the read settles (Phase II, a verified denial,
// or a terminal error).
func (c *Client) Read(bid uint64, timeout time.Duration) (*Block, Phase, error) {
	return c.ReadFrom(c.HomeEdge(), bid, timeout)
}

// ReadFrom fetches block bid from a specific shard's log. Read addresses
// the session's home shard; ReadFrom lets a reader walk any shard's
// chain.
func (c *Client) ReadFrom(edgeID NodeID, bid uint64, timeout time.Duration) (*Block, Phase, error) {
	var r *Receipt
	var failed error
	if err := c.do(func(now int64) []wire.Envelope {
		op, envs, err := c.session.ReadFrom(now, edgeID, bid)
		if err != nil {
			failed = err
			return nil
		}
		r = c.register(op)
		return envs
	}); err != nil {
		return nil, PhaseNone, err
	}
	if failed != nil {
		return nil, PhaseNone, failed
	}
	select {
	case <-r.settled:
	case <-time.After(timeout):
		return nil, PhaseNone, ErrTimeout
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.block, r.phase, r.err
}

// Scan returns every key-value pair in the half-open range [start, end)
// — nil bounds mean ±infinity — globally ordered by key and truncated to
// limit (0 = unlimited). The scan scatter-gathers across every shard:
// each shard's edge returns a Merkle completeness proof for its slice of
// the range, the per-shard results are verified independently (omission,
// injection and boundary truncation all fail verification and convict
// the lying edge), and the merge preserves newest-wins semantics. A
// returned slice is therefore a *verified* result: nothing certified was
// omitted, nothing uncertified was injected.
func (c *Client) Scan(start, end []byte, limit int) ([]KV, Phase, error) {
	var rs []*Receipt
	if err := c.do(func(now int64) []wire.Envelope {
		ops, envs := c.session.Scan(now, start, end, limit)
		for _, op := range ops {
			rs = append(rs, c.register(op))
		}
		return envs
	}); err != nil {
		return nil, PhaseNone, err
	}
	deadline := time.After(30 * time.Second)
	for _, r := range rs {
		select {
		case <-r.settled:
		case <-deadline:
			return nil, PhaseNone, ErrTimeout
		}
	}
	phase := PhaseII
	perShard := make([][]KV, len(rs))
	for i, r := range rs {
		r.mu.Lock()
		err, ph, kvs := r.err, r.phase, r.scanKVs
		r.mu.Unlock()
		if err != nil {
			return nil, PhaseNone, err
		}
		if ph < phase {
			phase = ph
		}
		perShard[i] = kvs
	}
	return client.MergeScanKVs(perShard, limit), phase, nil
}

// Get looks a key up with full proof verification. found=false with a nil
// error is a *verified* absence. The returned phase distinguishes gets
// that relied on not-yet-certified blocks (Phase I) from fully certified
// ones (Phase II).
func (c *Client) Get(key []byte) (value []byte, found bool, phase Phase, err error) {
	var r *Receipt
	if err := c.do(func(now int64) []wire.Envelope {
		op, envs := c.session.Get(now, key)
		r = c.register(op)
		return envs
	}); err != nil {
		return nil, false, PhaseNone, err
	}
	select {
	case <-r.settled:
	case <-time.After(30 * time.Second):
		return nil, false, PhaseNone, ErrTimeout
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.value, r.found, r.phase, r.err
}
