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

// Persistence: an append-only segment file durably storing cut blocks and
// their cloud certificates, with crash recovery. The format is
// length-prefixed records over the canonical wire encoding:
//
//	record := kind(1) length(4, big-endian) payload(length) crc-free
//
// Torn tails (a partial final record after a crash) are truncated on
// recovery — exactly the blocks whose Phase I responses may not have been
// sent yet, so nothing acknowledged is lost: a block is only acknowledged
// after Append returns, and Append syncs when Durable is set.
//
// Records are self-authenticating on recovery: block digests are
// recomputed and certificates re-verified against the cloud's key, so a
// corrupted store surfaces as an error instead of silent state divergence.

// Record kinds in the segment file. A block record does not store the
// block's digest — recovery recomputes it — so the kind is what names the
// digest format the segment's certificates were issued under: kind 1 held
// blocks of the flat-hash digest, and is answered with ErrFormat.
const (
	recBlockV1 byte = 1
	recCert    byte = 2
	recBlock   byte = 3
)

// ErrCorrupt reports an unrecoverable store inconsistency (as opposed to
// a torn tail, which is repaired silently).
var ErrCorrupt = errors.New("wlog: corrupt segment")

// ErrFormat reports a segment written under an earlier block-digest
// format. Its blocks are intact, but their recomputed digests would match
// none of the stored certificates — which must not be mistaken for
// tampering (ErrCorrupt). There is no compatibility path.
var ErrFormat = errors.New("wlog: segment written under an earlier digest format")

// Store persists a log to a single segment file. It is not safe for
// concurrent use; the owning node serializes access.
//
// Two durability disciplines coexist: AppendBlock/AppendCert fsync each
// record (when the store is durable), while the Buffered variants plus an
// explicit Sync implement group commit — the owning node appends several
// records inside a flush window and pays one fsync for all of them,
// withholding acknowledgements until the shared Sync returns.
type Store struct {
	f    *os.File
	w    *bufio.Writer
	sync bool

	dirty bool   // buffered records not yet synced
	syncs uint64 // fsyncs issued (observable for group-commit tests)
}

// OpenStore opens (or creates) the segment file under dir. When durable
// is set, every record is fsynced before returning — the production
// setting; tests and benchmarks may trade durability for speed.
func OpenStore(dir string, durable bool) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wlog: creating store dir: %w", err)
	}
	path := filepath.Join(dir, "wedgelog.seg")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wlog: opening segment: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &Store{f: f, w: bufio.NewWriter(f), sync: durable}, nil
}

// Close flushes and closes the segment.
func (s *Store) Close() error {
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

func (s *Store) append(kind byte, payload []byte, syncNow bool) error {
	var hdr [5]byte
	hdr[0] = kind
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := s.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := s.w.Write(payload); err != nil {
		return err
	}
	s.dirty = true
	if !syncNow {
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
	s.dirty = false
	return nil
}

// AppendBlock durably records a cut block (flush + fsync per record).
func (s *Store) AppendBlock(b *wire.Block) error {
	return s.append(recBlock, b.Canonical(), true)
}

// AppendBlockBuffered records a cut block without forcing it to disk; the
// caller owns durability via a later Sync and must not acknowledge the
// block before that Sync returns.
func (s *Store) AppendBlockBuffered(b *wire.Block) error {
	return s.append(recBlock, b.Canonical(), false)
}

// AppendCert durably records a cloud certificate.
func (s *Store) AppendCert(p *wire.BlockProof) error {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	p.EncodeTo(e)
	return s.append(recCert, e.Bytes(), true)
}

// AppendCertBuffered records a certificate without forcing it to disk.
// Certificates are re-obtainable from the cloud, so they may simply ride
// the next group-commit Sync.
func (s *Store) AppendCertBuffered(p *wire.BlockProof) error {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	p.EncodeTo(e)
	return s.append(recCert, e.Bytes(), false)
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
	s.dirty = false
	return nil
}

// Syncs reports how many fsyncs the store has issued — group-commit tests
// assert N batched blocks share one.
func (s *Store) Syncs() uint64 { return s.syncs }

// ResetTo rewrites the segment to exactly the blocks and certificates l
// currently holds. A demoted ex-leader truncates its in-memory log to
// the certified prefix (Log.TruncateUncertified) before re-mirroring the
// new leader's history; the durable segment must shrink with it, because
// recovery requires strictly sequential block ids and would reject the
// refetched blocks re-appended after the old records. The rewrite is
// flushed (and fsynced on durable stores) before returning.
func (s *Store) ResetTo(l *Log) error {
	if err := s.w.Flush(); err != nil {
		return err
	}
	if err := s.f.Truncate(0); err != nil {
		return err
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	s.w.Reset(s.f)
	s.dirty = false
	for bid := uint64(0); bid < l.NumBlocks(); bid++ {
		blk, err := l.Block(bid)
		if err != nil {
			return err
		}
		if err := s.append(recBlock, blk.Canonical(), false); err != nil {
			return err
		}
		if p, ok := l.Cert(bid); ok {
			if err := s.AppendCertBuffered(&p); err != nil {
				return err
			}
		}
	}
	return s.Sync()
}

// Recover replays the segment into a fresh Log, verifying digests and
// certificate signatures against the registry (the cloud's identity is
// taken from each certificate's signer field recorded at write time).
// A torn final record is truncated. Returns the number of blocks and
// certificates recovered.
func Recover(dir string, edge wire.NodeID, batchSize int, reg *wcrypto.Registry, cloud wire.NodeID) (*Log, *Store, int, int, error) {
	path := filepath.Join(dir, "wedgelog.seg")
	l := New(edge, batchSize)
	blocks, certs := 0, 0

	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		st, err := OpenStore(dir, true)
		return l, st, 0, 0, err
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
			d := wire.NewDecoder(payload)
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
			if err := l.SetCert(p); err != nil {
				f.Close()
				return nil, nil, 0, 0, fmt.Errorf("%w: cert: %v", ErrCorrupt, err)
			}
			certs++
		default:
			f.Close()
			return nil, nil, 0, 0, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, hdr[0])
		}
		validLen += 5 + int64(n)
	}
	f.Close()

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
	b.Freeze() // recovered blocks are immutable; share one encoding
	l.digests[b.ID] = wcrypto.BlockDigest(&b)
	l.blocks = append(l.blocks, b)
	l.bufStart += uint64(len(b.Entries))
	for i := range b.Entries {
		e := &b.Entries[i]
		if !IsNoop(e) {
			l.markSeen(*e, b.StartPos+uint64(i))
		}
	}
	return nil
}
