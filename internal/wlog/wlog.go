// Package wlog implements the WedgeChain logging layer kept at each edge
// node (Section IV of the paper): an append-only log of blocks, where each
// block is a batch of entries from authenticated clients. The log tracks, per block, the
// digest sent for data-free certification and the cloud-signed block-proof
// that upgrades the block from Phase I to Phase II commitment.
//
// The package also implements the log-position reservation extension
// (Section IV-E): clients may reserve absolute positions and send entries
// for them, which makes arbitrary requests idempotent — a replayed entry
// targets an already-filled position and is rejected.
package wlog

import (
	"bytes"
	"errors"
	"fmt"

	"wedgechain/internal/obs"
	"wedgechain/internal/wire"
)

// Common errors.
var (
	ErrNoSuchBlock     = errors.New("wlog: no such block")
	ErrPositionTaken   = errors.New("wlog: reserved position already filled")
	ErrPositionInvalid = errors.New("wlog: entry position not reserved for this client")
	ErrPositionCut     = errors.New("wlog: reserved position already cut into a block")
	ErrCertDigest      = errors.New("wlog: certificate digest does not match block")
	ErrDuplicateEntry  = errors.New("wlog: duplicate entry (client, seq)")
)

// slot is one buffered log position awaiting block cut.
type slot struct {
	entry      wire.Entry
	filled     bool
	reserved   bool
	reservedBy wire.NodeID
	deadline   int64 // reserved slots expire at this time; 0 = none
	enqueuedAt int64
}

// Log is a single edge node's log. It is not safe for concurrent use; the
// owning node serializes access (nodes are single-threaded state machines).
type Log struct {
	edge      wire.NodeID
	batchSize int

	buf      []slot
	bufStart uint64 // absolute position of buf[0]

	blocks []wire.Block               // blocks[i] has ID == uint64(i), frozen
	certs  map[uint64]wire.BlockProof // block id -> cloud certificate

	certifiedEntries uint64 // total entries across certified blocks
	certifiedBlocks  uint64
	// certNext is a lower bound on the contiguous certified prefix: blocks
	// 0..certNext-1 are all certified. Certificates are only ever removed
	// by TruncateUncertified, which keeps exactly that prefix, so the bound
	// never has to move down; CertifiedThrough advances it.
	certNext uint64

	// seen maps client -> seq -> absolute position + 1 (0 is unused so the
	// zero value means "never accepted"). Recording the position — not just
	// a boolean — lets a promoted leader answer a client's post-failover
	// resend with the block that already holds the entry instead of a bare
	// rejection.
	seen map[wire.NodeID]*seqTable

	// released is the first block id that may still hold decoded entries
	// and a key index (see Release).
	released uint64

	// store is the durable segment holding every block of the log, bound
	// by Recover or Store.ResetTo; nil for an in-memory log. Blocks below
	// evicted have left memory too and are read back from it (see
	// Release). resident is the canonical bytes the blocks held in memory
	// add up to.
	store    *Store
	evicted  uint64
	resident int

	// Mirrors of segment reads and resident bytes (see Instrument);
	// nil-safe no-ops until attached.
	mReads    *obs.Counter
	mResident *obs.Gauge
}

// New returns an empty log for the given edge identity cutting blocks of
// batchSize entries.
func New(edge wire.NodeID, batchSize int) *Log {
	if batchSize <= 0 {
		batchSize = 1
	}
	return &Log{
		edge:      edge,
		batchSize: batchSize,
		certs:     make(map[uint64]wire.BlockProof),
		seen:      make(map[wire.NodeID]*seqTable),
	}
}

// Instrument mirrors the log into metrics: reads counts blocks read back
// from the segment, resident tracks the block bytes held in memory.
func (l *Log) Instrument(reads *obs.Counter, resident *obs.Gauge) {
	l.mReads, l.mResident = reads, resident
	resident.Set(float64(l.resident))
}

// addResident moves the resident byte count by n.
func (l *Log) addResident(n int) {
	l.resident += n
	l.mResident.Set(float64(l.resident))
}

// Edge returns the owning edge identity.
func (l *Log) Edge() wire.NodeID { return l.edge }

// BatchSize returns the block cut threshold.
func (l *Log) BatchSize() int { return l.batchSize }

// NumBlocks returns the number of blocks cut so far.
func (l *Log) NumBlocks() uint64 { return uint64(len(l.blocks)) }

// BufferLen returns the number of buffered (uncut) positions.
func (l *Log) BufferLen() int { return len(l.buf) }

// NextPos returns the next unassigned absolute log position.
func (l *Log) NextPos() uint64 { return l.bufStart + uint64(len(l.buf)) }

// CertifiedEntries returns the number of entries in certified blocks — the
// LogSize the cloud gossips for omission detection.
func (l *Log) CertifiedEntries() uint64 { return l.certifiedEntries }

// CertifiedBlocks returns the number of certified blocks.
func (l *Log) CertifiedBlocks() uint64 { return l.certifiedBlocks }

// Append adds a client entry to the buffer. Entries carrying a reserved
// position (Pos > 0) must land in their reserved slot; others take the next
// free position. Duplicate (client, seq) pairs are rejected, implementing
// the replay defence. The returned position is absolute.
func (l *Log) Append(e wire.Entry, now int64) (pos uint64, err error) {
	if _, dup := l.SeenPos(e.Client, e.Seq); dup {
		return 0, fmt.Errorf("%w: %s/%d", ErrDuplicateEntry, e.Client, e.Seq)
	}
	if e.Pos > 0 {
		p := e.Pos - 1
		if p < l.bufStart {
			return 0, fmt.Errorf("%w: position %d", ErrPositionCut, p)
		}
		idx := int(p - l.bufStart)
		if idx >= len(l.buf) {
			return 0, fmt.Errorf("%w: position %d never reserved", ErrPositionInvalid, p)
		}
		s := &l.buf[idx]
		if !s.reserved || s.reservedBy != e.Client {
			return 0, fmt.Errorf("%w: position %d", ErrPositionInvalid, p)
		}
		if s.filled {
			return 0, fmt.Errorf("%w: position %d", ErrPositionTaken, p)
		}
		s.entry = e
		s.filled = true
		s.enqueuedAt = now
		l.markSeen(&e, p)
		return p, nil
	}
	pos = l.bufStart + uint64(len(l.buf))
	l.buf = append(l.buf, slot{entry: e, filled: true, enqueuedAt: now})
	l.markSeen(&e, pos)
	return pos, nil
}

func (l *Log) markSeen(e *wire.Entry, pos uint64) {
	t := l.seen[e.Client]
	if t == nil {
		t = new(seqTable)
		l.seen[e.Client] = t
	}
	t.set(e.Seq, pos+1)
}

// SeenPos reports the absolute position at which (client, seq) was
// accepted, if it ever was — the lookup behind duplicate re-acking.
func (l *Log) SeenPos(client wire.NodeID, seq uint64) (uint64, bool) {
	t := l.seen[client]
	if t == nil {
		return 0, false
	}
	p := t.get(seq)
	if p == 0 {
		return 0, false
	}
	return p - 1, true
}

// seqTable is one client's accepted seqs, each mapped to position + 1 (0 =
// never accepted): a slice indexed by seq for the seqs a client numbers
// densely, and a map for a seq that lands more than seenSlack past the
// slice's end, so no seq a client picks can stretch the slice.
type seqTable struct {
	dense  []uint64
	sparse map[uint64]uint64
}

const seenSlack = 64

func (t *seqTable) get(seq uint64) uint64 {
	if seq < uint64(len(t.dense)) && t.dense[seq] != 0 {
		return t.dense[seq]
	}
	return t.sparse[seq]
}

// set records v for seq; v == 0 forgets it.
func (t *seqTable) set(seq, v uint64) {
	if n := uint64(len(t.dense)); seq >= n && seq-n < seenSlack && v != 0 {
		t.dense = append(t.dense, make([]uint64, seq-n+1)...)
	}
	switch {
	case seq < uint64(len(t.dense)):
		t.dense[seq] = v
		delete(t.sparse, seq) // it may have landed there before the slice grew
	case v == 0:
		delete(t.sparse, seq)
	default:
		if t.sparse == nil {
			t.sparse = make(map[uint64]uint64)
		}
		t.sparse[seq] = v
	}
}

// BlockByPos returns the cut block containing absolute position pos, or
// false when pos is still buffered (or was never assigned) or its block
// cannot be read back. A released block comes back decoded, as from
// Block.
func (l *Log) BlockByPos(pos uint64) (*wire.Block, bool) {
	if pos >= l.bufStart {
		return nil, false
	}
	// Blocks are contiguous and ordered by StartPos; binary search for the
	// last block whose StartPos <= pos.
	lo, hi := 0, len(l.blocks)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if l.blocks[mid].StartPos <= pos {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if len(l.blocks) == 0 || l.blocks[lo].StartPos > pos {
		return nil, false
	}
	blk, err := l.block(uint64(lo))
	return blk, err == nil
}

// InstallBlock mirrors a block cut elsewhere — the follower half of
// replica-group log replication. The block must be the next one (dense
// ids from the leader's replication stream); its digest must be the
// caller-verified recomputation over the received content. The installed
// copy is frozen and its entries are marked seen, so a promoted leader
// dedups client resends of entries it inherited.
// Freezing takes blk's entries over, off the frame they arrived in: the
// caller must be done with the message that carried blk.
func (l *Log) InstallBlock(blk *wire.Block, digest []byte) error {
	if blk.ID != uint64(len(l.blocks)) {
		return fmt.Errorf("%w: install %d, next is %d", ErrNoSuchBlock, blk.ID, len(l.blocks))
	}
	if len(l.buf) > 0 {
		return fmt.Errorf("wlog: install into a log with buffered entries")
	}
	cp := *blk
	cp.Invalidate()
	cp.FreezeWithDigest(append([]byte(nil), digest...))
	l.appendBlock(cp)
	return nil
}

// appendBlock adds a frozen block at the log's tail and marks its entries
// seen.
func (l *Log) appendBlock(b wire.Block) {
	l.blocks = append(l.blocks, b)
	l.addResident(len(b.Canonical()))
	for i := range b.Entries {
		if e := &b.Entries[i]; !IsNoop(e) {
			l.markSeen(e, b.StartPos+uint64(i))
		}
	}
	l.bufStart = b.StartPos + uint64(len(b.Entries))
}

// Reserve grants count consecutive absolute positions to client, expiring
// at deadline. Returns the first reserved position.
func (l *Log) Reserve(client wire.NodeID, count int, deadline int64) uint64 {
	start := l.NextPos()
	for i := 0; i < count; i++ {
		l.buf = append(l.buf, slot{reserved: true, reservedBy: client, deadline: deadline})
	}
	return start
}

// EntryAt returns the accepted entry at absolute position pos, whether
// it already sits in a cut block or is still buffered.
func (l *Log) EntryAt(pos uint64) (wire.Entry, bool) {
	if pos >= l.bufStart {
		i := pos - l.bufStart
		if i >= uint64(len(l.buf)) || !l.buf[i].filled {
			return wire.Entry{}, false
		}
		return l.buf[i].entry, true
	}
	blk, ok := l.BlockByPos(pos)
	if !ok {
		return wire.Entry{}, false
	}
	i := pos - blk.StartPos
	if i >= uint64(blk.Len()) {
		return wire.Entry{}, false
	}
	return blk.Entries[i], true
}

// noopEntry fills an expired reservation so position arithmetic stays
// contiguous. Readers recognize no-ops by the empty client identity.
func noopEntry() wire.Entry { return wire.Entry{} }

// IsNoop reports whether an entry is a reservation-expiry filler.
func IsNoop(e *wire.Entry) bool { return e.Client == "" }

// cutEligible reports how many leading buffer slots can form a block at
// time now: a prefix where every slot is filled or an expired reservation.
func (l *Log) cutEligible(now int64) int {
	n := 0
	for i := range l.buf {
		s := &l.buf[i]
		if !s.filled && (!s.reserved || s.deadline == 0 || s.deadline > now) {
			break
		}
		n++
	}
	return n
}

// TryCut cuts the next block if a full batch is ready (or if force is set
// and at least one eligible slot exists — used for flush timeouts and
// no-op-triggered refreshes). Expired reservations become no-op entries.
// Returns nil when no block was cut.
func (l *Log) TryCut(now int64, force bool) *wire.Block {
	eligible := l.cutEligible(now)
	take := l.batchSize
	if eligible < take {
		if !force || eligible == 0 {
			return nil
		}
		take = eligible
	}
	entries := make([]wire.Entry, take)
	for i := 0; i < take; i++ {
		s := &l.buf[i]
		if s.filled {
			entries[i] = s.entry
		} else {
			entries[i] = noopEntry()
		}
	}
	blk := wire.Block{
		Edge:     l.edge,
		ID:       uint64(len(l.blocks)),
		StartPos: l.bufStart,
		Ts:       now,
		Entries:  entries,
	}
	l.buf = append([]slot(nil), l.buf[take:]...)
	l.bufStart += uint64(take)
	// Freeze before sharing: persist, certify and response paths reuse
	// the cached canonical bytes and digest, and concurrent readers
	// (writer lanes encoding frames that carry the block) only ever read
	// the fully populated cache. The entries move off their frames.
	blk.Freeze()
	l.blocks = append(l.blocks, blk)
	l.addResident(len(blk.Canonical()))
	return &l.blocks[blk.ID]
}

// Block returns the cut block with the given id; a released block comes
// back decoded from its canonical bytes (wire.Block.Decoded), an evicted
// one read back from the segment with its digest re-derived. Bytes that
// no longer match the digest are an error wrapping ErrCorrupt.
func (l *Log) Block(bid uint64) (*wire.Block, error) {
	if bid >= uint64(len(l.blocks)) {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchBlock, bid)
	}
	return l.block(bid)
}

// block returns cut block bid, decoded, reading it back from the segment
// if Release evicted it.
func (l *Log) block(bid uint64) (*wire.Block, error) {
	b := &l.blocks[bid]
	if !b.Evicted() {
		return b.Decoded(), nil
	}
	canon, err := l.store.readBlock(bid)
	if err != nil {
		return nil, err
	}
	l.mReads.Inc()
	blk, err := b.Reload(canon)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return blk, nil
}

// Release drops the decoded entries and key index of every block below
// before — the blocks that have left the L0 window — so what such a block
// keeps for the life of the log is its canonical bytes, digest and
// certificate. A durable log drops the canonical bytes too, of every
// released block whose record the store's last Sync covered: the segment
// holds them, and Block reads them back. A block released before its
// record was synced leaves memory at a later Release. Total work over a
// log's life is one step per block.
func (l *Log) Release(before uint64) {
	for ; l.released < before && l.released < uint64(len(l.blocks)); l.released++ {
		l.blocks[l.released].Release()
	}
	for ; l.store != nil && l.evicted < l.released && l.store.Covers(l.evicted); l.evicted++ {
		b := &l.blocks[l.evicted]
		l.addResident(-len(b.Canonical()))
		b.Evict()
	}
}

// Digest returns the digest of block bid, computed when it was frozen.
func (l *Log) Digest(bid uint64) ([]byte, error) {
	if bid >= uint64(len(l.blocks)) {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchBlock, bid)
	}
	return l.blocks[bid].CachedDigest(), nil
}

// SetCert records the cloud's block-proof for a block, upgrading it to
// Phase II, and reports whether the block was uncertified until now: a
// second proof for a certified block changes nothing. The proof's digest
// must match the locally computed digest.
func (l *Log) SetCert(p wire.BlockProof) (fresh bool, err error) {
	d, err := l.Digest(p.BID)
	if err != nil {
		return false, err
	}
	if !bytes.Equal(d, p.Digest) {
		return false, ErrCertDigest
	}
	if _, dup := l.certs[p.BID]; dup {
		return false, nil
	}
	l.certs[p.BID] = p
	l.certifiedBlocks++
	l.certifiedEntries += uint64(l.blocks[p.BID].Len())
	return true, nil
}

// Cert returns the block-proof for bid if the block is certified.
func (l *Log) Cert(bid uint64) (wire.BlockProof, bool) {
	c, ok := l.certs[bid]
	return c, ok
}

// CertifiedThrough returns the highest block id B such that all blocks
// 0..B are certified, or false when block 0 is uncertified. L0 compaction
// consumes only certified prefixes.
//
// Every proof, merge trigger and healing tick asks, so the answer resumes
// from the certNext cursor instead of walking the log from block 0: the
// total work over a log's life is one step per block.
func (l *Log) CertifiedThrough() (uint64, bool) {
	for l.certNext < uint64(len(l.blocks)) {
		if _, ok := l.certs[l.certNext]; !ok {
			break
		}
		l.certNext++
	}
	if l.certNext == 0 {
		return 0, false
	}
	return l.certNext - 1, true
}

// unmarkSeen forgets (client, seq) if it still maps to position pos —
// the inverse of markSeen, used when truncation removes the entry.
func (l *Log) unmarkSeen(e *wire.Entry, pos uint64) {
	if IsNoop(e) {
		return
	}
	if t := l.seen[e.Client]; t != nil && t.get(e.Seq) == pos+1 {
		t.set(e.Seq, 0)
	}
}

// TruncateUncertified discards everything beyond the contiguous certified
// prefix: buffered (uncut) entries, uncertified blocks, and any certified
// blocks stranded above the first gap. A demoted ex-leader calls it
// before rejoining as a follower — blocks the cloud never certified are
// not part of the durable truth, and the new leader's history may
// diverge from them, so mirroring must restart from the certified
// frontier (stranded certified blocks are refetched with their
// certificates via catch-up). Returns the number of blocks removed.
func (l *Log) TruncateUncertified() int {
	var keep uint64
	if ct, ok := l.CertifiedThrough(); ok {
		keep = ct + 1
	}
	for i := range l.buf {
		s := &l.buf[i]
		if s.filled {
			l.unmarkSeen(&s.entry, l.bufStart+uint64(i))
		}
	}
	l.buf = nil
	removed := len(l.blocks) - int(keep)
	for bid := keep; bid < uint64(len(l.blocks)); bid++ {
		// A block that cannot be read back keeps its entries marked seen:
		// a resend of one is refused rather than logged twice.
		if blk, err := l.block(bid); err == nil {
			for i := range blk.Entries {
				l.unmarkSeen(&blk.Entries[i], blk.StartPos+uint64(i))
			}
		}
		b := &l.blocks[bid]
		if !b.Evicted() {
			l.addResident(-len(b.Canonical()))
		}
		if _, ok := l.certs[bid]; ok {
			l.certifiedBlocks--
			l.certifiedEntries -= uint64(b.Len())
			delete(l.certs, bid)
		}
	}
	l.blocks = l.blocks[:keep]
	l.certNext = keep
	l.released = min(l.released, keep)
	l.evicted = min(l.evicted, keep)
	if keep == 0 {
		l.bufStart = 0
	} else {
		last := &l.blocks[keep-1]
		l.bufStart = last.StartPos + uint64(last.Len())
	}
	return removed
}
