package cloud

import (
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

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
