package main

import (
	"encoding/binary"
	"sort"
	"time"

	"wedgechain/internal/workload"
)

type opKind uint8

const (
	opBurst opKind = iota // one session-signed PutBatch of burstSize entries
	opPut                 // one individually signed Put
	opGet
	opScan
)

var opKindNames = [...]string{"put_batch", "put", "get", "scan"}

func (k opKind) String() string { return opKindNames[k] }

func (k opKind) isPut() bool { return k == opBurst || k == opPut }

// schedOp is one generated request: everything a node will ever see of it
// is fixed here, before the run. Keys are indexes into the key table
// (workload.KeyName); a scan's single key is its start and its range is
// [start, start+ScanWidth). Entry i of a write carries the value
// makeValue(mix(VSeed, i)).
type schedOp struct {
	Kind  opKind
	Sess  int
	Due   time.Duration // open loop: offset from the schedule's start
	Keys  []int32
	VSeed uint64
}

// schedule is the whole traffic of one run. Open holds the open-loop ops
// in due order; Program holds each closed-loop session's op sequence.
type schedule struct {
	Open    []schedOp
	Program [][]schedOp
}

// closedBurstCap bounds the closed-loop programs: bursts per second over
// all sessions that the schedule provides for — several times what two
// cores can certify, so a program never runs dry.
const closedBurstCap = 400

// genSchedule generates the traffic for length seconds of sp from seed
// alone.
func genSchedule(sp *spec, seed int64, length time.Duration) *schedule {
	g := &schedGen{
		sp:      sp,
		uniform: workload.NewUniformKeys(sp.PutKeys, seed),
		zipf:    workload.NewZipfKeys(sp.Preload, zipfS, seed+1),
		vseed:   splitmix(uint64(seed)),
	}
	s := &schedule{}
	if sp.Closed {
		perSession := int(length.Seconds()*closedBurstCap)/sp.Sessions + 1
		s.Program = make([][]schedOp, sp.Sessions)
		for i := range s.Program {
			for b := 1; b <= perSession; b++ {
				s.Program[i] = append(s.Program[i], g.op(opBurst, i, 0), g.op(opGet, i, 0))
				if b%sp.ScanEvery == 0 {
					s.Program[i] = append(s.Program[i], g.op(opScan, i, 0))
				}
			}
		}
		return s
	}
	// Each stream sends exactly one op per period of its rate, at a seeded
	// uniform offset inside that period, walking the sessions round-robin.
	// The offered load is the same every second, and no two streams stay
	// phase-locked: with fixed phases each seed would fix which bursts
	// collide with which scans for the whole run, and the medians of runs
	// with different seeds would differ by that accident alone.
	streams := []struct {
		kind opKind
		rate float64
	}{{opBurst, sp.BurstRate}, {opPut, sp.PutRate}, {opGet, sp.GetRate}, {opScan, sp.ScanRate}}
	for si, st := range streams {
		if st.rate <= 0 {
			continue
		}
		period := time.Duration(float64(time.Second) / st.rate)
		for n := 0; time.Duration(n)*period < length; n++ {
			due := time.Duration(n)*period + time.Duration(g.next()%uint64(period))
			s.Open = append(s.Open, g.op(st.kind, (n+si*3)%sp.Sessions, due))
		}
	}
	sort.SliceStable(s.Open, func(i, j int) bool { return s.Open[i].Due < s.Open[j].Due })
	return s
}

type schedGen struct {
	sp      *spec
	uniform *workload.UniformKeys
	zipf    *workload.ZipfKeys
	vseed   uint64
}

func (g *schedGen) next() uint64 {
	g.vseed = splitmix(g.vseed)
	return g.vseed
}

func (g *schedGen) op(kind opKind, sess int, due time.Duration) schedOp {
	op := schedOp{Kind: kind, Sess: sess, Due: due}
	switch kind {
	case opBurst:
		op.Keys = make([]int32, burstSize)
		for i := range op.Keys {
			op.Keys[i] = keyIndex(g.uniform.Next())
		}
		op.VSeed = g.next()
	case opPut:
		op.Keys = []int32{keyIndex(g.zipf.Next())}
		op.VSeed = g.next()
	default:
		op.Keys = []int32{keyIndex(g.zipf.Next())}
	}
	return op
}

// preloadOps returns the set-up writes: keys 0..Preload-1, once each, in
// bursts spread round-robin over the sessions.
func preloadOps(sp *spec, seed int64) []schedOp {
	vseed := splitmix(uint64(seed) ^ 0x9e3779b97f4a7c15)
	var ops []schedOp
	for k := 0; k < sp.Preload; k += burstSize {
		op := schedOp{Kind: opBurst, Sess: len(ops) % sp.Sessions}
		for i := k; i < k+burstSize && i < sp.Preload; i++ {
			op.Keys = append(op.Keys, int32(i))
		}
		vseed = splitmix(vseed)
		op.VSeed = vseed
		ops = append(ops, op)
	}
	return ops
}

// encode serialises the schedule; two schedules are the same traffic
// exactly when their encodings are equal.
func (s *schedule) encode() []byte {
	var out []byte
	put := func(op *schedOp) {
		out = append(out, byte(op.Kind))
		out = binary.BigEndian.AppendUint32(out, uint32(op.Sess))
		out = binary.BigEndian.AppendUint64(out, uint64(op.Due))
		out = binary.BigEndian.AppendUint64(out, op.VSeed)
		out = binary.BigEndian.AppendUint32(out, uint32(len(op.Keys)))
		for _, k := range op.Keys {
			out = binary.BigEndian.AppendUint32(out, uint32(k))
		}
	}
	for i := range s.Open {
		put(&s.Open[i])
	}
	for _, prog := range s.Program {
		out = append(out, 0xff)
		for i := range prog {
			put(&prog[i])
		}
	}
	return out
}

// keyIndex inverts workload.KeyName ("k00001234" -> 1234).
func keyIndex(key []byte) int32 {
	n := int32(0)
	for _, c := range key[1:] {
		n = n*10 + int32(c-'0')
	}
	return n
}

// keyTable returns KeyName(i) for every i below n, built once so that
// issuing an op formats nothing.
func keyTable(n int) [][]byte {
	t := make([][]byte, n)
	for i := range t {
		t[i] = workload.KeyName(i)
	}
	return t
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// makeValue expands a value seed into the valueSize bytes written; the
// first eight bytes are the seed itself, which is how the oracle names
// the write a read returned.
func makeValue(vseed uint64) []byte {
	v := make([]byte, valueSize)
	x := vseed
	for i := 0; i < valueSize; i += 8 {
		binary.BigEndian.PutUint64(v[i:], x)
		x = splitmix(x)
	}
	return v
}

func entrySeed(opSeed uint64, i int) uint64 { return splitmix(opSeed + uint64(i)) }
