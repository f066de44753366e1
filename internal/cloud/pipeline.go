package cloud

import (
	"sync"
	"sync/atomic"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// This file holds the cloud's certification scale-out machinery:
//
//   - certPipeline: a worker pool that runs the stateless half of
//     certification (signature checks, full-data decode + digest
//     recompute) off the node goroutine, per-chain FIFO, so independent
//     chains precheck concurrently and one chain's full-data decode
//     never stalls another. The stateful half — certs.Certify in bid
//     order, conviction, proof issue — stays on the single-threaded
//     node, which drains completed jobs in Receive and Tick.
//
//   - certRun: the outbound batching state. Accepted certifications
//     accumulate into one contiguous per-chain run; a flush signs a
//     single wire.BlockCertBatch covering the whole run (the amortized
//     block-ack trick applied to proofs).
//
//   - verdictCache: adjudications keyed by evidence digest, so a
//     dispute flood costs one Judge decode per distinct accusation.

// certJob is one certification request travelling through the pipeline.
// Exactly one of single/batch is set. Workers fill sigOK/bodyOK and
// flip done; the node goroutine applies jobs in submission order per
// chain once their head-of-line is done.
type certJob struct {
	from     wire.NodeID
	single   *wire.BlockCertify
	batch    *wire.BlockCertifyBatch
	verified bool

	sigOK  bool
	bodyOK bool
	done   atomic.Bool
}

// chain returns the chain identity the job certifies under.
func (j *certJob) chain() wire.NodeID {
	if j.single != nil {
		return j.single.Edge
	}
	return j.batch.Edge
}

// precheck runs the stateless verification work: the sender's signature
// (unless a trusted VerifyPool already checked it) and, for full-data
// certifies, the body-decodes-to-claimed-digest check. No node state is
// touched, so workers run it concurrently with the node goroutine.
func (j *certJob) precheck(reg *wcrypto.Registry) {
	if j.single != nil {
		j.sigOK = j.verified || wcrypto.VerifyMsg(reg, j.from, j.single, j.single.EdgeSig) == nil
		j.bodyOK = len(j.single.Body) == 0 || fullDataBodyMatches(j.single)
	} else {
		j.sigOK = j.verified || wcrypto.VerifyMsg(reg, j.from, j.batch, j.batch.EdgeSig) == nil
		j.bodyOK = true
	}
	j.done.Store(true)
}

// certPipeline fans certification prechecks out to workers while
// preserving per-chain submission order for the apply stage. Lanes are
// keyed by chain, so a slow job (a large full-data decode) only delays
// its own chain's applies; other chains drain past it.
type certPipeline struct {
	reg *wcrypto.Registry

	mu      sync.Mutex
	cond    *sync.Cond
	work    []*certJob // shared worker queue (completed prefix trimmed)
	stopped bool
	wg      sync.WaitGroup

	// lanes preserve per-chain FIFO for the apply stage. Only the node
	// goroutine appends (enqueue) and trims (drain), so lane access
	// needs no lock beyond the job's done flag.
	lanes map[wire.NodeID][]*certJob
}

func newCertPipeline(reg *wcrypto.Registry, workers int) *certPipeline {
	p := &certPipeline{reg: reg, lanes: make(map[wire.NodeID][]*certJob)}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *certPipeline) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		for len(p.work) == 0 && !p.stopped {
			p.cond.Wait()
		}
		if len(p.work) == 0 {
			p.mu.Unlock()
			return
		}
		j := p.work[0]
		p.work = p.work[1:]
		p.mu.Unlock()
		j.precheck(p.reg)
		p.mu.Lock()
	}
}

// enqueue submits a job for precheck. Node goroutine only.
func (p *certPipeline) enqueue(j *certJob) {
	chain := j.chain()
	p.lanes[chain] = append(p.lanes[chain], j)
	p.mu.Lock()
	p.work = append(p.work, j)
	p.mu.Unlock()
	p.cond.Signal()
}

// ready pops every lane's completed prefix, in lane order. Node
// goroutine only. Jobs whose precheck is still running stay queued —
// and block the jobs behind them in the same lane, preserving the
// per-chain apply order the cert table's conflict detection assumes.
func (p *certPipeline) ready() []*certJob {
	var out []*certJob
	for chain, lane := range p.lanes {
		i := 0
		for i < len(lane) && lane[i].done.Load() {
			out = append(out, lane[i])
			i++
		}
		if i == 0 {
			continue
		}
		if i == len(lane) {
			delete(p.lanes, chain)
		} else {
			p.lanes[chain] = lane[i:]
		}
	}
	return out
}

// close stops the workers after the queued prechecks finish. Jobs still
// in lanes are abandoned — close is shutdown, not drain.
func (p *certPipeline) close() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// certRun is one chain's pending outbound certificate batch: the
// contiguous run [start, start+len(digests)) of accepted certifications
// not yet covered by a signed batch.
type certRun struct {
	from    wire.NodeID // certifying sender (fanout target)
	start   uint64
	digests [][]byte
}

// appendCert adds an accepted certification to the chain's pending run,
// flushing first when the run would lose contiguity or change its
// certifying sender. Returns any envelopes a forced flush produced.
func (n *Node) appendCert(chain, from wire.NodeID, bid uint64, digest []byte) []wire.Envelope {
	var out []wire.Envelope
	run := n.pendingRuns[chain]
	if run != nil && (run.from != from || bid != run.start+uint64(len(run.digests))) {
		out = n.flushRun(chain)
		run = nil
	}
	if run == nil {
		run = &certRun{from: from, start: bid}
		n.pendingRuns[chain] = run
	}
	run.digests = append(run.digests, digest)
	if len(run.digests) >= n.cfg.CertBatch {
		out = append(out, n.flushRun(chain)...)
	}
	return out
}

// flushRun signs and fans out the chain's pending run as one
// BlockCertBatch. One signature covers every triple in the run.
func (n *Node) flushRun(chain wire.NodeID) []wire.Envelope {
	run := n.pendingRuns[chain]
	if run == nil || len(run.digests) == 0 {
		return nil
	}
	delete(n.pendingRuns, chain)
	b := &wire.BlockCertBatch{Edge: chain, Start: run.start, Digests: run.digests}
	b.CloudSig = wcrypto.SignMsg(n.key, b)
	n.m.batchEntries.Observe(float64(len(run.digests)))
	out := []wire.Envelope{{From: n.cfg.ID, To: run.from, Msg: b}}
	if st, ok := n.chains[chain]; ok {
		if st.leader != run.from {
			out = append(out, wire.Envelope{From: n.cfg.ID, To: st.leader, Msg: b})
		}
		for _, f := range st.followers {
			if f != run.from {
				out = append(out, wire.Envelope{From: n.cfg.ID, To: f, Msg: b})
			}
		}
	}
	return out
}

// flushRuns flushes every chain's pending run (Tick pacing: a partial
// run waits at most one tick).
func (n *Node) flushRuns() []wire.Envelope {
	var out []wire.Envelope
	for chain := range n.pendingRuns {
		out = append(out, n.flushRun(chain)...)
	}
	return out
}

// cachedVerdict is one adjudication retained for replay: the signed
// verdict exactly as first issued.
type cachedVerdict struct {
	verdict wire.Verdict
}

// verdictCache memoizes adjudications by evidence digest (the dispute's
// signable body: kind, accused, bid, evidence — not the claimant's
// signature, so the same lie re-filed by any client replays the same
// verdict). Entries are evicted FIFO at verdictCacheCap; the cache is
// consulted only after the claimant's signature verifies, so a forged
// accusation can neither poison it nor read it.
type verdictCache struct {
	entries map[string]*cachedVerdict
	order   []string
}

const verdictCacheCap = 1024

func newVerdictCache() *verdictCache {
	return &verdictCache{entries: make(map[string]*cachedVerdict)}
}

func verdictKey(d *wire.Dispute) string {
	return string(wcrypto.Digest(wire.BodyBytes(d)))
}

func (c *verdictCache) get(key string) (*cachedVerdict, bool) {
	v, ok := c.entries[key]
	return v, ok
}

func (c *verdictCache) put(key string, v *cachedVerdict) {
	if _, ok := c.entries[key]; ok {
		return
	}
	if len(c.order) >= verdictCacheCap {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[key] = v
	c.order = append(c.order, key)
}
