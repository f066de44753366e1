package wlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// Persistence: an append-only segment file durably storing cut blocks, the
// runs a leader promised before their block was cut, and the blocks' cloud
// certificates, with crash recovery. The format is
// length-prefixed records over the canonical wire encoding:
//
//	record := kind(1) length(4, big-endian) payload(length) crc-free
//
// Torn tails (a partial final record after a crash) are truncated on
// recovery — exactly the blocks whose Phase I responses may not have been
// sent yet, so nothing acknowledged is lost: a block is only acknowledged
// after the Sync covering its record returns, and so is a run.
//
// Records are self-authenticating on recovery: block digests are
// recomputed and certificates re-verified against the cloud's key, so a
// corrupted store surfaces as an error instead of silent state divergence.

// Record kinds in the segment file. A block record does not store the
// block's digest — recovery recomputes it — so the kind is what names the
// digest format the segment's certificates were issued under: kind 1 held
// blocks of the flat-hash digest, and is answered with ErrFormat. A run
// record holds a run ack's Block: the chain, the BID the run is promised
// into, its first position and its entries.
const (
	recBlockV1 byte = 1
	recCert    byte = 2
	recBlock   byte = 3
	recRun     byte = 4
)

// ErrCorrupt reports an unrecoverable store inconsistency (as opposed to
// a torn tail, which is repaired silently).
var ErrCorrupt = errors.New("wlog: corrupt segment")

// ErrFormat reports a segment written under an earlier block-digest
// format. Its blocks are intact, but their recomputed digests would match
// none of the stored certificates — which must not be mistaken for
// tampering (ErrCorrupt). There is no compatibility path.
var ErrFormat = errors.New("wlog: segment written under an earlier digest format")

// Segment file names under a store's directory: the live segment, and
// the one ResetTo writes before renaming it over the live one.
const (
	segName = "wedgelog.seg"
	tmpName = "wedgelog.seg.tmp"
)

// Store persists a log to a single segment file. It is not safe for
// concurrent use; the owning node serializes access.
//
// Appends are buffered and Sync is the durability barrier (group commit):
// the owning node appends the records of a flush window and pays one
// fsync for all of them, withholding acknowledgements until the shared
// Sync returns.
//
// The store remembers where each block record's payload starts, for the
// blocks written in id order from 0 — on append, in Recover and in
// ResetTo — so a log bound to it can read an evicted block back.
type Store struct {
	dir  string
	f    *os.File
	w    *bufio.Writer
	sync bool

	size   int64  // segment bytes written, buffered ones included
	synced int64  // segment bytes the last Sync flushed (and fsynced)
	blocks []span // blocks[id]: where block id's record payload lies

	dirty bool   // buffered records not yet synced
	syncs uint64 // fsyncs issued (observable for group-commit tests)
}

// span locates a record payload in the segment.
type span struct {
	off int64
	n   int64
}

// OpenStore opens (or creates) the segment file under dir. When durable
// is set, Sync fsyncs — the production setting; tests and benchmarks may
// trade durability for speed.
func OpenStore(dir string, durable bool) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wlog: creating store dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wlog: opening segment: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Store{dir: dir, f: f, w: bufio.NewWriter(f), sync: durable, size: size, synced: size}, nil
}

// Close flushes and closes the segment.
func (s *Store) Close() error {
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// append writes one record and returns where its payload lies.
func (s *Store) append(kind byte, payload []byte) (span, error) {
	var hdr [5]byte
	hdr[0] = kind
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := s.w.Write(hdr[:]); err != nil {
		return span{}, err
	}
	if _, err := s.w.Write(payload); err != nil {
		return span{}, err
	}
	s.dirty = true
	at := span{off: s.size + 5, n: int64(len(payload))}
	s.size = at.off + at.n
	return at, nil
}

// AppendBlockBuffered records a cut block without forcing it to disk; the
// caller owns durability via a later Sync and must not acknowledge the
// block before that Sync returns.
func (s *Store) AppendBlockBuffered(b *wire.Block) error {
	at, err := s.append(recBlock, b.Canonical())
	if err == nil && b.ID == uint64(len(s.blocks)) {
		s.blocks = append(s.blocks, at)
	}
	return err
}

// AppendRunBuffered records a promised run without forcing it to disk; the
// caller must not send the run's acknowledgement before a later Sync
// returns. Recovery puts a run no block covers back into the cut buffer.
func (s *Store) AppendRunBuffered(run *wire.Block) error {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	run.EncodeToUncached(e)
	_, err := s.append(recRun, e.Bytes())
	return err
}

// AppendCertBuffered records a certificate without forcing it to disk.
// Certificates are re-obtainable from the cloud, so they may simply ride
// the next group-commit Sync.
func (s *Store) AppendCertBuffered(p *wire.BlockProof) error {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	p.EncodeTo(e)
	_, err := s.append(recCert, e.Bytes())
	return err
}

// Sync flushes buffered records and fsyncs them (durable stores): the
// group-commit barrier shared by every record appended since the last
// Sync. It is a no-op when nothing is dirty.
func (s *Store) Sync() error {
	if !s.dirty {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	if s.sync {
		s.syncs++
		if err := s.f.Sync(); err != nil {
			return err
		}
	}
	s.synced = s.size
	s.dirty = false
	return nil
}

// Covers reports whether block bid's record is in the segment file as of
// the last successful Sync: durable, and readable back.
func (s *Store) Covers(bid uint64) bool {
	return bid < uint64(len(s.blocks)) && s.blocks[bid].off+s.blocks[bid].n <= s.synced
}

// readBlock reads block bid's canonical bytes back from the segment.
func (s *Store) readBlock(bid uint64) ([]byte, error) {
	if !s.Covers(bid) {
		return nil, fmt.Errorf("%w: no synced record of block %d", ErrCorrupt, bid)
	}
	at := s.blocks[bid]
	buf := make([]byte, at.n)
	if _, err := s.f.ReadAt(buf, at.off); err != nil {
		return nil, fmt.Errorf("wlog: reading block %d back: %w", bid, err)
	}
	return buf, nil
}

// Syncs reports how many fsyncs the store has issued — group-commit tests
// assert N batched blocks share one.
func (s *Store) Syncs() uint64 { return s.syncs }

// ResetTo rewrites the segment to exactly the blocks and certificates l
// currently holds, and binds l to the store. A demoted ex-leader
// truncates its in-memory log to the certified prefix
// (Log.TruncateUncertified) before re-mirroring the new leader's history;
// the durable segment must shrink with it, because recovery requires
// strictly sequential block ids and would reject the refetched blocks
// re-appended after the old records.
//
// The new segment is written beside the live one (evicted blocks are read
// back from the live one), flushed and, on durable stores, fsynced, then
// renamed over it, and the directory is fsynced: a crash at any point
// leaves either segment whole, never a torn or empty one. Recover deletes
// a new segment the crash left behind. On error the live segment is kept.
func (s *Store) ResetTo(l *Log) error {
	tmp := filepath.Join(s.dir, tmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	ns := &Store{dir: s.dir, f: f, w: bufio.NewWriter(f), sync: s.sync, syncs: s.syncs}
	err = ns.write(l)
	if err == nil {
		err = os.Rename(tmp, filepath.Join(s.dir, segName))
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	s.f.Close()
	*s = *ns
	l.store = s
	if s.sync {
		// The rename happened; only its durability is in doubt, and the
		// store writes to the new segment either way.
		return syncDir(s.dir)
	}
	return nil
}

// write appends every block and certificate of l to an empty store and
// syncs it.
func (s *Store) write(l *Log) error {
	for bid := range l.blocks {
		blk, err := l.block(uint64(bid))
		if err != nil {
			return err
		}
		if err := s.AppendBlockBuffered(blk); err != nil {
			return err
		}
		if p, ok := l.Cert(uint64(bid)); ok {
			if err := s.AppendCertBuffered(&p); err != nil {
				return err
			}
		}
	}
	s.dirty = true // a segment of no records is synced too
	return s.Sync()
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Recover replays the segment into a fresh Log, verifying digests and
// certificate signatures against the registry (the cloud's identity is
// taken from each certificate's signer field recorded at write time).
// A torn final record is truncated. The runs no recovered block covers go
// back into the cut buffer, in order, as far as they continue the log.
// Returns the number of blocks and certificates recovered.
func Recover(dir string, edge wire.NodeID, batchSize int, reg *wcrypto.Registry, cloud wire.NodeID) (*Log, *Store, int, int, error) {
	path := filepath.Join(dir, segName)
	l := New(edge, batchSize)
	blocks, certs := 0, 0
	var spans []span
	var runs []wire.Block

	// A new segment ResetTo was writing when the node stopped: the live
	// segment is whole, so the half-written one goes.
	if err := os.Remove(filepath.Join(dir, tmpName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, 0, 0, fmt.Errorf("wlog: removing leftover segment: %w", err)
	}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		st, err := OpenStore(dir, true)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		l.store = st
		return l, st, 0, 0, nil
	}
	if err != nil {
		return nil, nil, 0, 0, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, 0, 0, err
	}
	size := info.Size()

	r := bufio.NewReader(f)
	var validLen int64
	for {
		var hdr [5]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break // clean EOF or torn header: truncate here
		}
		n := binary.BigEndian.Uint32(hdr[1:])
		if validLen+5+int64(n) > size {
			// The length claims bytes the segment does not hold: a torn
			// or corrupted tail. Checked before allocating, so a bad
			// length cannot cost up to 4 GiB.
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			break // torn payload: truncate here
		}
		switch hdr[0] {
		case recBlockV1:
			f.Close()
			return nil, nil, 0, 0, fmt.Errorf("%w: block record of kind %d", ErrFormat, recBlockV1)
		case recBlock:
			var b wire.Block
			d := wire.NewDecoderZeroCopy(payload)
			b.DecodeFrom(d)
			if err := d.Finish(); err != nil {
				f.Close()
				return nil, nil, 0, 0, fmt.Errorf("%w: block record: %v", ErrCorrupt, err)
			}
			if b.Edge != edge {
				f.Close()
				return nil, nil, 0, 0, fmt.Errorf("%w: block for edge %q in %q's store", ErrCorrupt, b.Edge, edge)
			}
			if err := l.restoreBlock(b); err != nil {
				f.Close()
				return nil, nil, 0, 0, err
			}
			spans = append(spans, span{off: validLen + 5, n: int64(n)})
			blocks++
		case recCert:
			var p wire.BlockProof
			d := wire.NewDecoder(payload)
			p.DecodeFrom(d)
			if err := d.Finish(); err != nil {
				f.Close()
				return nil, nil, 0, 0, fmt.Errorf("%w: cert record: %v", ErrCorrupt, err)
			}
			if err := wcrypto.VerifyMsg(reg, cloud, &p, p.CloudSig); err != nil {
				f.Close()
				return nil, nil, 0, 0, fmt.Errorf("%w: cert signature: %v", ErrCorrupt, err)
			}
			if _, err := l.SetCert(p); err != nil {
				f.Close()
				return nil, nil, 0, 0, fmt.Errorf("%w: cert: %v", ErrCorrupt, err)
			}
			certs++
		case recRun:
			var run wire.Block
			d := wire.NewDecoder(payload)
			run.DecodeFrom(d)
			if err := d.Finish(); err != nil || run.Edge != edge {
				f.Close()
				return nil, nil, 0, 0, fmt.Errorf("%w: run record of %q: %v", ErrCorrupt, run.Edge, err)
			}
			runs = append(runs, run)
		default:
			f.Close()
			return nil, nil, 0, 0, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, hdr[0])
		}
		validLen += 5 + int64(n)
	}
	f.Close()
	for i := range runs {
		if l.Refill(&runs[i]) != nil {
			break // a run the segment lost the start of cannot be placed
		}
	}

	// Repair a torn tail before reopening for append.
	if size > validLen {
		if err := os.Truncate(path, validLen); err != nil {
			return nil, nil, 0, 0, fmt.Errorf("wlog: truncating torn tail: %w", err)
		}
	}
	st, err := OpenStore(dir, true)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	st.blocks = spans
	l.store = st
	return l, st, blocks, certs, nil
}

// restoreBlock reinstates a recovered block: it must be the next block id,
// and positions must be contiguous with the log tail.
func (l *Log) restoreBlock(b wire.Block) error {
	if b.ID != uint64(len(l.blocks)) {
		return fmt.Errorf("%w: block %d out of order (want %d)", ErrCorrupt, b.ID, len(l.blocks))
	}
	if b.StartPos != l.bufStart {
		return fmt.Errorf("%w: block %d position %d (want %d)", ErrCorrupt, b.ID, b.StartPos, l.bufStart)
	}
	b.Freeze() // immutable from here; the entries move off the record buffer
	l.appendBlock(b)
	return nil
}
