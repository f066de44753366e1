package wcrypto

import (
	"runtime"
	"sync"

	"wedgechain/internal/wire"
)

// PreVerify checks every signature a message carries that the receiving
// node would otherwise verify on its hot path, without touching any node
// state. It returns true only when all signatures check out against the
// registry; unknown kinds and failures return false, leaving the decision
// to the handler. Structural checks (sender identity matching, digest
// consistency, freshness) are NOT performed here — they stay in the
// single-threaded handlers, so a pre-verified envelope is exactly as
// trustworthy as one verified inline.
func PreVerify(r *Registry, env wire.Envelope) bool {
	ok, _ := preVerify(r, env)
	return ok
}

// preVerify is PreVerify that also hands back the one expensive value it
// derived from received bytes: the digest of the block a block-carrying
// message was signed over, nil for every other kind and on failure. The
// pool passes it on in Envelope.BlockDigest.
func preVerify(r *Registry, env wire.Envelope) (ok bool, blockDigest []byte) {
	switch m := env.Msg.(type) {
	case *wire.PutResponse:
		return preVerifyBlockAck(r, env.From, m.BID, &m.Block, m.EdgeSig)
	case *wire.ReplicateBlock:
		return preVerifyBlockAck(r, m.Leader, m.Block.ID, &m.Block, m.LeaderSig)
	case *wire.ReadResponse:
		d := m.Block.BodyDigest()
		if VerifyReadResponse(r, env.From, m, d) != nil {
			return false, nil
		}
		return true, d
	}
	return preVerifySig(r, env), nil
}

func preVerifyBlockAck(r *Registry, signer wire.NodeID, bid uint64, blk *wire.Block, sig []byte) (bool, []byte) {
	d := blk.BodyDigest()
	if VerifyBlockAck(r, signer, bid, d, sig) != nil {
		return false, nil
	}
	return true, d
}

// preVerifySig covers the kinds whose check yields nothing worth keeping.
func preVerifySig(r *Registry, env wire.Envelope) bool {
	switch m := env.Msg.(type) {
	case *wire.PutRequest:
		return VerifyMsg(r, m.Entry.Client, &m.Entry, m.Entry.Sig) == nil
	case *wire.PutBatch:
		// One session signature covers every entry; a batch without one
		// fails here like any bad signature.
		return VerifyMsg(r, m.Client, m, m.BatchSig) == nil
	case *wire.ReserveRequest:
		return VerifyMsg(r, m.Client, m, m.ClientSig) == nil
	case *wire.BlockProof:
		if env.From == m.Edge {
			// Forwarded by the edge to a client: the signer is the
			// cloud, whose identity the pool does not know — don't burn
			// a guaranteed-failing verification; the client checks the
			// cloud signature inline.
			return false
		}
		return VerifyMsg(r, env.From, m, m.CloudSig) == nil
	case *wire.BlockCertBatch:
		if env.From == m.Edge {
			// Same edge-forwarding caveat as BlockProof: the signer is
			// the cloud, not the forwarding edge.
			return false
		}
		return VerifyMsg(r, env.From, m, m.CloudSig) == nil
	case *wire.MergeResponse:
		return VerifyMsg(r, env.From, m, m.CloudSig) == nil
	// Edge-to-cloud requests: signed by the sending node's key. The Edge
	// field names the chain, which under a replica group differs from the
	// node — the cloud's handler enforces that the sender currently leads
	// that chain.
	case *wire.BlockCertify:
		return VerifyMsg(r, env.From, m, m.EdgeSig) == nil
	case *wire.BlockCertifyBatch:
		return VerifyMsg(r, env.From, m, m.EdgeSig) == nil
	case *wire.MergeRequest:
		// The signature is over digests and leaves the cloud's handler has
		// to compute anyway: checking it here would hash every shipped
		// byte twice, so the handler decides.
		return false
	case *wire.ReplicaHeartbeat:
		return VerifyMsg(r, m.Node, m, m.Sig) == nil
	case *wire.LeadershipTransfer:
		// Signed by the cloud; when forwarded by a non-cloud sender the
		// receiver re-verifies inline against its configured cloud.
		return VerifyMsg(r, env.From, m, m.CloudSig) == nil
	case *wire.CatchUpRequest:
		return VerifyMsg(r, m.Node, m, m.Sig) == nil
	case *wire.GroupJoin:
		// Signed by the cloud, sent by the cloud; the edge additionally
		// requires the sender to be its configured cloud.
		return VerifyMsg(r, env.From, m, m.CloudSig) == nil
	// Client-bound responses (the block-carrying ones are in preVerify):
	// the edge's signature is checked against the envelope sender; the
	// client core additionally requires the sender to be its bound edge
	// before trusting the flag.
	case *wire.GetResponse:
		return VerifyMsg(r, env.From, m, m.EdgeSig) == nil
	case *wire.ScanResponse:
		return VerifyMsg(r, env.From, m, m.EdgeSig) == nil
	default:
		return false
	}
}

// verifyJob is one envelope travelling through the pool: workers verify it
// out of order, the dispatcher releases it in submission order.
type verifyJob struct {
	env  wire.Envelope // Verified and BlockDigest are the worker's result
	done chan struct{}
}

// VerifyPool verifies message signatures on a pool of worker goroutines
// while delivering envelopes to its sink in exact submission order — so a
// deterministic, single-threaded state machine behind it observes the same
// message sequence it would without the pool, minus the per-message
// signature cost. Per-sender order is a corollary of global order.
//
// Verification failure does not drop the envelope: it is delivered with
// Verified=false and the handler re-verifies and rejects exactly as the
// serial path would, so the pool can never change protocol behaviour.
//
// Submit never blocks: the queue is unbounded, so a node goroutine that
// both feeds and is fed by the pool (every node on an in-process
// transport) can never deadlock against the dispatcher. Overload
// manifests as queue memory, bounded in practice by the transports'
// bounded inboxes and sockets upstream.
//
// With Workers <= 0 the pool degenerates to a synchronous inline stage
// (verify on the submitting goroutine, deliver immediately): the mode the
// discrete-event simulator and tests use to stay deterministic and
// single-threaded while sharing the same code path.
type VerifyPool struct {
	reg     *Registry
	sink    func(wire.Envelope)
	workers int

	mu      sync.Mutex
	cond    *sync.Cond // wakes workers and the dispatcher on submit/stop
	queue   []*verifyJob
	head    int // next job the dispatcher releases
	next    int // next job a worker picks up (may lag or lead head)
	stopped bool

	closed chan struct{} // dispatcher exited (queue fully drained)
}

// NewVerifyPool builds a verification stage in front of sink. workers is
// the parallelism (0 = synchronous inline mode, negative = GOMAXPROCS).
// queue is a sizing hint for the initial queue capacity; submission is
// never blocked by it.
func NewVerifyPool(reg *Registry, workers, queue int, sink func(wire.Envelope)) *VerifyPool {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &VerifyPool{reg: reg, sink: sink, workers: workers}
	if workers == 0 {
		return p
	}
	if queue > 0 {
		p.queue = make([]*verifyJob, 0, queue)
	}
	p.cond = sync.NewCond(&p.mu)
	p.closed = make(chan struct{})
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	go p.dispatch()
	return p
}

func (p *VerifyPool) worker() {
	p.mu.Lock()
	for {
		for p.next >= len(p.queue) && !p.stopped {
			p.cond.Wait()
		}
		if p.next >= len(p.queue) {
			p.mu.Unlock()
			return // stopped and nothing left to verify
		}
		j := p.queue[p.next]
		p.next++
		p.mu.Unlock()
		j.env.Verified, j.env.BlockDigest = preVerify(p.reg, j.env)
		close(j.done)
		p.mu.Lock()
	}
}

// dispatch releases verified envelopes strictly in submission order.
func (p *VerifyPool) dispatch() {
	p.mu.Lock()
	for {
		for p.head >= len(p.queue) && !p.stopped {
			p.cond.Wait()
		}
		if p.head >= len(p.queue) {
			break // stopped and fully drained
		}
		j := p.queue[p.head]
		p.head++
		p.compactLocked()
		p.mu.Unlock()
		<-j.done
		p.sink(j.env)
		p.mu.Lock()
	}
	p.mu.Unlock()
	close(p.closed)
}

// compactLocked bounds queue memory: once the prefix consumed by BOTH the
// dispatcher and the workers dominates, shift the live tail to the front.
// The dispatcher can briefly run ahead of the workers (it blocks on the
// job's done channel), so the dead prefix is min(head, next).
func (p *VerifyPool) compactLocked() {
	base := p.head
	if p.next < base {
		base = p.next
	}
	if base < 1024 || base*2 < len(p.queue) {
		return
	}
	n := copy(p.queue, p.queue[base:])
	for i := n; i < len(p.queue); i++ {
		p.queue[i] = nil
	}
	p.queue = p.queue[:n]
	p.head -= base
	p.next -= base
}

// Submit enqueues one envelope for verification and ordered delivery. It
// never blocks; safe for concurrent use. Concurrent submitters race for
// positions in the global order, but each submitter's own envelopes keep
// their relative order. Envelopes submitted after Close are silently
// dropped — the transport is shutting down and undelivered messages are
// the network's prerogative.
func (p *VerifyPool) Submit(env wire.Envelope) {
	if p.workers == 0 {
		env.Verified, env.BlockDigest = preVerify(p.reg, env)
		p.sink(env)
		return
	}
	j := &verifyJob{env: env, done: make(chan struct{})}
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.queue = append(p.queue, j)
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Close drains in-flight envelopes (delivering every submitted one) and
// stops the workers and dispatcher. Idempotent.
func (p *VerifyPool) Close() {
	if p.workers == 0 {
		return
	}
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.cond.Broadcast()
	<-p.closed
}
