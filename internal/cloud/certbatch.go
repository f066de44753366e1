package cloud

import (
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// This file holds the cloud's certification scale-out state:
//
//   - certRun: the outbound batching state. Accepted certifications
//     accumulate into one contiguous per-chain run; a flush signs a
//     single wire.BlockCertBatch covering the whole run (the amortized
//     block-ack trick applied to proofs).
//
//   - verdictCache: adjudications keyed by evidence digest, so a
//     dispute flood costs one Judge decode per distinct accusation.

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
