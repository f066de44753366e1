package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"wedgechain/internal/wire"
)

// oracle is the correctness model the benchmark checks every read
// against. It knows each write the edges acknowledged — key, version (log
// position + 1, as the edges number them) and value — and, per key, the
// newest version any session has seen the cloud certify (the floor).
//
// The rule: a read submitted after a write was certified must return that
// write or a newer acknowledged one. A get is checked against the floor
// its key had when it was submitted; a scan must in addition be ordered,
// hold only rows of its range, hold every key that had a floor at submit
// time (up to its limit) and never exceed the limit.
type oracle struct {
	mu     sync.Mutex
	acks   map[verKey]uint64 // (key, version) -> value seed
	floors []uint64          // by key index

	violations []string
	deferred   []deferredRow
}

// deferredRow is a returned row whose version the oracle had not yet seen
// acknowledged: a read may be served from a block whose acknowledgement
// is still on its way to the writing session. It is judged again by
// settle, once every acknowledgement has arrived.
type deferredRow struct {
	what  string
	key   int32
	ver   uint64
	value []byte
	floor uint64
}

type verKey struct {
	key int32
	ver uint64
}

func newOracle(keys int) *oracle {
	return &oracle{acks: make(map[verKey]uint64), floors: make([]uint64, keys)}
}

func (o *oracle) acked(key int32, ver, vseed uint64) {
	o.mu.Lock()
	o.acks[verKey{key, ver}] = vseed
	o.mu.Unlock()
}

func (o *oracle) certified(key int32, ver uint64) {
	o.mu.Lock()
	if ver == 0 {
		o.failLocked("key %d: write certified without an acknowledged version", key)
	} else if ver > o.floors[key] {
		o.floors[key] = ver
	}
	o.mu.Unlock()
}

func (o *oracle) floor(key int32) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.floors[key]
}

// floorRange snapshots the floors of keys [start, end).
func (o *oracle) floorRange(start, end int32) []uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if int(end) > len(o.floors) {
		end = int32(len(o.floors))
	}
	return append([]uint64(nil), o.floors[start:end]...)
}

func (o *oracle) failLocked(format string, args ...any) {
	if len(o.violations) < 20 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

// settle judges the deferred rows — after the drain, a version still
// unknown was never acknowledged to anyone — and returns every violation.
func (o *oracle) settle() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	rows := o.deferred
	o.deferred = nil
	for _, r := range rows {
		if _, ok := o.acks[verKey{r.key, r.ver}]; !ok {
			o.failLocked("%s key %d: returned version %d was never acknowledged", r.what, r.key, r.ver)
			continue
		}
		o.checkRowLocked(r.what, r.key, r.ver, r.value, r.floor)
	}
	return append([]string(nil), o.violations...)
}

// checkRowLocked judges one returned (key, version, value) against the
// floor the key had when the read was submitted.
func (o *oracle) checkRowLocked(what string, key int32, ver uint64, value []byte, floor uint64) {
	vseed, ok := o.acks[verKey{key, ver}]
	switch {
	case !ok:
		o.deferred = append(o.deferred, deferredRow{what, key, ver, value, floor})
	case len(value) != valueSize || binary.BigEndian.Uint64(value) != vseed || !bytes.Equal(value, makeValue(vseed)):
		o.failLocked("%s key %d version %d: value differs from the one written", what, key, ver)
	case ver < floor:
		o.failLocked("%s key %d: stale read, returned version %d but version %d was certified before the read", what, key, ver, floor)
	}
}

// checkGet judges a settled get.
func (o *oracle) checkGet(key int32, found bool, ver uint64, value []byte, floor uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !found {
		if floor > 0 {
			o.failLocked("get key %d: not found, but version %d was certified before the read", key, floor)
		}
		return
	}
	o.checkRowLocked("get", key, ver, value, floor)
}

// checkScan judges a settled scan over key indexes [start, start+len(floors))
// whose merged, limit-truncated result is rows.
func (o *oracle) checkScan(start int32, floors []uint64, limit int, rows []wire.KV) {
	o.mu.Lock()
	defer o.mu.Unlock()
	end := start + int32(len(floors))
	if len(rows) > limit {
		o.failLocked("scan [%d,%d): %d rows exceed limit %d", start, end, len(rows), limit)
	}
	present := make([]bool, len(floors))
	last := int32(-1)
	for _, kv := range rows {
		k := keyIndex(kv.Key)
		if k <= last {
			o.failLocked("scan [%d,%d): rows out of order at key %d", start, end, k)
		}
		last = k
		if k < start || k >= end {
			o.failLocked("scan [%d,%d): row for key %d outside the range", start, end, k)
			continue
		}
		present[k-start] = true
		o.checkRowLocked("scan", k, kv.Ver, kv.Value, floors[k-start])
	}
	// Completeness: a truncated result must hold every certified key up
	// to its last row, an untruncated one every certified key of the range.
	bound := end
	if len(rows) >= limit && last >= 0 {
		bound = last
	}
	for k := start; k < bound; k++ {
		if floors[k-start] > 0 && !present[k-start] {
			o.failLocked("scan [%d,%d): key %d (certified at version %d) missing from the result", start, end, k, floors[k-start])
		}
	}
}
