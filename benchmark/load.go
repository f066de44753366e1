package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"wedgechain/internal/client"
	"wedgechain/internal/shard"
	"wedgechain/internal/wire"
)

// opRec is the harness's record of one issued operation: a burst, a single
// put, a get or a scan. Times are on the harness clock. A write reaches
// p1 when every entry holds a verified edge acknowledgement and p2 when
// every entry holds a verified cloud certificate; a read reaches p1 when
// its proof verified and done when every uncertified block it leaned on
// has been certified. A record is only touched under its session's
// transport mutex until the run has stopped.
type opRec struct {
	kind   opKind
	n      int   // operations this record stands for (entries of a burst)
	due    int64 // when the schedule wanted it sent (closed loop: when it was)
	submit int64
	p1, p2 int64
	done   int64
	left1  int // entries (writes) or shard answers (scans) short of p1
	left2  int // entries short of p2, or shard scans not yet settled
	failed bool
	closed bool // complete or failed: no longer counted as pending
	root   uint64

	// Reads: what the oracle needs to judge the result.
	key     int32
	floor   uint64
	floors  []uint64
	scanOps []*client.Op
}

// putRec remembers one written entry by its client sequence number.
type putRec struct {
	rec   *opRec
	key   int32
	vseed uint64
	ver   uint64 // log position + 1, learnt from the edge's acknowledgement
}

// coreState indexes a session's operations on one shard the way the
// client core numbers them: writes by entry seq, reads by request id.
type coreState struct {
	puts  []putRec
	reads []*opRec
}

// session is one client identity: a sharded verifying client plus the
// harness's bookkeeping for it. It is the core.Handler its endpoint
// serves, so every delivery to the client passes through Receive below.
type session struct {
	c  *cluster
	id wire.NodeID
	ep *endpoint
	sh *client.Sharded

	cores  []*coreState
	byEdge map[wire.NodeID]int
	recs   []*opRec

	// Closed loop: the session's program, the op whose first answer gates
	// the next one, and the bursts still awaiting their certificate.
	prog    []schedOp
	next    int
	waiting *opRec
	uncert  int
	window  int
	queued  atomic.Bool
	stopAt  int64
	open    int // issued ops neither complete nor failed

	signed   atomic.Uint64 // envelopes this session sent that carry a signature
	l0Blocks atomic.Uint64 // L0 window slots over all get responses
	l0Gets   atomic.Uint64
}

func newSession(c *cluster, sh *client.Sharded, ep *endpoint) *session {
	s := &session{c: c, id: sh.ID(), ep: ep, sh: sh, byEdge: make(map[wire.NodeID]int)}
	for i, cc := range sh.Cores() {
		i := i
		cs := &coreState{}
		s.cores = append(s.cores, cs)
		s.byEdge[cc.Edge()] = i
		cc.OnPhaseI = func(op *client.Op) { s.onPhaseI(cs, op) }
		cc.OnPhaseII = func(op *client.Op) { s.onPhaseII(cs, op) }
		cc.OnDone = func(op *client.Op) { s.onDone(cs, op) }
	}
	return s
}

func (s *session) ID() wire.NodeID { return s.id }

func (s *session) Receive(now int64, env wire.Envelope) []wire.Envelope {
	switch m := env.Msg.(type) {
	case *wire.PutResponse:
		// The acknowledgement carries the block, which is where a write
		// learns its version; the oracle needs it before the client core
		// reports Phase I.
		if ci, ok := s.byEdge[env.From]; ok {
			cs := s.cores[ci]
			for i := range m.Block.Entries {
				e := &m.Block.Entries[i]
				if e.Client != s.id || e.Seq == 0 || int(e.Seq) > len(cs.puts) {
					continue
				}
				if pr := &cs.puts[e.Seq-1]; pr.ver == 0 {
					pr.ver = m.Block.StartPos + uint64(i) + 1
					s.c.oracle.acked(pr.key, pr.ver, pr.vseed)
				}
			}
		}
	case *wire.GetResponse:
		s.l0Gets.Add(1)
		s.l0Blocks.Add(uint64(len(m.Proof.L0Blocks) + len(m.Proof.L0Pruned)))
	}
	tr := s.c.tr
	if tr == nil || !tr.on.Load() {
		outs := s.sh.Receive(now, env)
		s.count(outs)
		return outs
	}
	arrive := nowNS()
	cause, wait := tr.arrived(env, arrive, roleClient)
	start := nowNS()
	outs := s.sh.Receive(now, env)
	end := nowNS()
	id := tr.newID()
	tr.record(span{ID: id, Trace: traceOf(env), Name: recvSpanNames[roleClient][env.Msg.MsgKind()], Node: string(s.id),
		Start: start, End: end, Cause: cause, Wait: wait})
	tr.emitted(outs, id, end, roleClient)
	s.count(outs)
	return outs
}

func (s *session) Tick(now int64) []wire.Envelope {
	outs := s.sh.Tick(now)
	s.count(outs)
	return outs
}

func (s *session) count(outs []wire.Envelope) {
	for _, env := range outs {
		switch env.Msg.MsgKind() {
		case wire.KindGetRequest, wire.KindScanRequest, wire.KindReadRequest:
		default:
			s.signed.Add(1)
		}
	}
}

// issue starts one scheduled operation. It runs under the session's
// transport mutex (TCP.DoSession), which is what serialises it with the
// deliveries that complete the operation.
func (s *session) issue(op *schedOp, due, now int64) []wire.Envelope {
	c := s.c
	rec := &opRec{kind: op.Kind, n: 1, due: due, submit: nowNS()}
	s.recs = append(s.recs, rec)
	s.open++
	tr := c.tr
	traced := tr != nil && tr.on.Load()
	var trace string
	if traced {
		rec.root = tr.newID()
	}
	var envs []wire.Envelope
	start := nowNS()
	switch op.Kind {
	case opBurst, opPut:
		keys := make([][]byte, len(op.Keys))
		values := make([][]byte, len(op.Keys))
		seeds := make([]uint64, len(op.Keys))
		for i, k := range op.Keys {
			seeds[i] = entrySeed(op.VSeed, i)
			keys[i], values[i] = c.keys[k], makeValue(seeds[i])
		}
		rec.n, rec.left1, rec.left2 = len(keys), len(keys), len(keys)
		var ops []*client.Op
		start = nowNS()
		if op.Kind == opBurst {
			ops, envs = s.sh.PutBatch(now, keys, values)
		} else {
			var o *client.Op
			o, envs = s.sh.Put(now, keys[0], values[0])
			ops = []*client.Op{o}
		}
		for i, o := range ops {
			cs := s.cores[shard.Of(keys[i], len(s.cores))]
			if int(o.Seq) != len(cs.puts)+1 {
				c.fail(fmt.Errorf("session %s: entry seq %d does not follow %d", s.id, o.Seq, len(cs.puts)))
			}
			cs.puts = append(cs.puts, putRec{rec: rec, key: op.Keys[i], vseed: seeds[i]})
		}
		if traced {
			trace = fmt.Sprintf("%s/%s/%d", s.id, ops[0].Edge, ops[0].Seq)
		}
	case opGet:
		rec.key = op.Keys[0]
		rec.floor = c.oracle.floor(rec.key)
		start = nowNS()
		o, e := s.sh.Get(now, c.keys[rec.key])
		envs = e
		s.addRead(s.cores[shard.Of(o.Key, len(s.cores))], o, rec)
		if traced {
			trace = fmt.Sprintf("%s/%s/r%d", s.id, o.Edge, o.ReqID)
		}
	case opScan:
		rec.key = op.Keys[0]
		end := min(int(rec.key)+c.sp.ScanWidth, len(c.keys))
		rec.floors = c.oracle.floorRange(rec.key, int32(end))
		var endKey []byte // nil = +infinity, when the range runs off the key table
		if end < len(c.keys) {
			endKey = c.keys[end]
		}
		start = nowNS()
		rec.scanOps, envs = s.sh.Scan(now, c.keys[rec.key], endKey, c.sp.ScanWidth)
		rec.left1, rec.left2 = len(rec.scanOps), len(rec.scanOps)
		for i, o := range rec.scanOps {
			s.addRead(s.cores[i], o, rec)
		}
		if traced {
			trace = fmt.Sprintf("%s/%s/r%d", s.id, rec.scanOps[0].Edge, rec.scanOps[0].ReqID)
		}
	}
	end := nowNS()
	s.count(envs)
	if traced {
		id := tr.newID()
		tr.record(span{ID: id, Trace: trace, Name: "client.submit." + op.Kind.String(), Node: string(s.id),
			Start: start, End: end, Cause: rec.root})
		tr.emitted(envs, id, end, roleClient)
	}
	return envs
}

func (s *session) addRead(cs *coreState, o *client.Op, rec *opRec) {
	if int(o.ReqID) != len(cs.reads)+1 {
		s.c.fail(fmt.Errorf("session %s: request id %d does not follow %d", s.id, o.ReqID, len(cs.reads)))
	}
	cs.reads = append(cs.reads, rec)
}

// finish marks rec complete or failed, once.
func (s *session) finish(rec *opRec) {
	if !rec.closed {
		rec.closed = true
		s.open--
	}
}

func (s *session) onPhaseI(cs *coreState, op *client.Op) {
	var rec *opRec
	if op.Kind == client.KindPut {
		rec = cs.puts[op.Seq-1].rec
	} else {
		rec = cs.reads[op.ReqID-1]
	}
	if rec.left1--; rec.left1 <= 0 && rec.p1 == 0 {
		rec.p1 = nowNS()
		s.notify()
	}
}

func (s *session) onPhaseII(cs *coreState, op *client.Op) {
	if op.Kind != client.KindPut {
		return
	}
	pr := &cs.puts[op.Seq-1]
	s.c.oracle.certified(pr.key, pr.ver)
	if pr.rec.left2--; pr.rec.left2 == 0 {
		pr.rec.p2 = nowNS()
		if pr.rec.kind == opBurst {
			s.uncert--
		}
		s.finish(pr.rec)
		s.notify()
	}
}

func (s *session) onDone(cs *coreState, op *client.Op) {
	if op.Seq == 0 && op.ReqID == 0 {
		// Refused before it was numbered (the edge is banned): issue, which
		// is still on the stack, finds the numbering broken and fails the run.
		return
	}
	switch op.Kind {
	case client.KindPut:
		if op.Err != nil {
			rec := cs.puts[op.Seq-1].rec
			rec.failed = true
			s.finish(rec)
			s.notify()
		}
	case client.KindGet:
		rec := cs.reads[op.ReqID-1]
		rec.done = nowNS()
		s.finish(rec)
		if op.Err != nil {
			rec.failed = true
			return
		}
		s.c.oracle.checkGet(rec.key, op.Found, op.GotVer, op.GotValue, rec.floor)
	case client.KindScan:
		rec := cs.reads[op.ReqID-1]
		if op.Err != nil {
			rec.failed = true
		}
		if rec.left2--; rec.left2 > 0 {
			return
		}
		rec.done = nowNS()
		s.finish(rec)
		if !rec.failed {
			rows := client.MergeScanResults(rec.scanOps, s.c.sp.ScanWidth)
			s.c.oracle.checkScan(rec.key, rec.floors, s.c.sp.ScanWidth, rows)
		}
		rec.scanOps, rec.floors = nil, nil // the ops pin their 70 KB response frames
	}
}

// notify wakes the closed-loop generator for this session; a no-op for
// open loops, whose generator never reads the channel.
func (s *session) notify() {
	if s.prog != nil && !s.queued.Swap(true) {
		s.ep.ready <- s
	}
}

// pump issues the session's next program op if the closed loop allows it:
// the previous op has its first answer, and a burst would not exceed the
// window of uncertified bursts.
func (s *session) pump(now int64) []wire.Envelope {
	if s.waiting != nil && s.waiting.p1 == 0 && !s.waiting.failed {
		return nil
	}
	t := nowNS()
	if t >= s.stopAt || s.next >= len(s.prog) {
		return nil
	}
	op := &s.prog[s.next]
	if op.Kind == opBurst {
		if s.uncert >= s.window {
			return nil
		}
		s.uncert++
	}
	s.next++
	envs := s.issue(op, t, now)
	s.waiting = s.recs[len(s.recs)-1]
	return envs
}

// runOpen is an open-loop generator: it sends each op of its endpoint's
// sessions when it falls due, however the system is doing, until stopAt.
func (ep *endpoint) runOpen(c *cluster, ops []schedOp, start, stopAt int64) {
	for i := range ops {
		op := &ops[i]
		if c.sessions[op.Sess].ep != ep {
			continue
		}
		due := start + int64(op.Due)
		if due >= stopAt {
			return
		}
		sleepUntil(due)
		s := c.sessions[op.Sess]
		ep.tcp.DoSession(s.id, func(now int64) []wire.Envelope { return s.issue(op, due, now) })
	}
}

// runClosed is a closed-loop generator: it issues a session's next op as
// soon as a completion makes it issuable, until stop is closed.
func (ep *endpoint) runClosed(stop <-chan struct{}) {
	for _, s := range ep.sessions {
		s.notify()
	}
	for {
		select {
		case <-stop:
			return
		case s := <-ep.ready:
			s.queued.Store(false)
			ep.tcp.DoSession(s.id, s.pump)
		}
	}
}

// setPrograms hands each session its closed-loop program.
func (c *cluster) setPrograms(progs [][]schedOp, window int, stopAt int64) {
	for i, s := range c.sessions {
		s := s
		var prog []schedOp
		if progs != nil {
			prog = progs[i]
		}
		s.ep.tcp.DoSession(s.id, func(int64) []wire.Envelope {
			s.prog, s.next, s.waiting, s.window, s.stopAt = prog, 0, nil, window, stopAt
			return nil
		})
	}
}

// runPreload writes the set-up keys through the sessions as a closed
// loop — each session keeps a few bursts uncertified — and returns when
// every one is certified and no merge is in flight.
func (c *cluster) runPreload(seed int64) error {
	const preloadWindow = 4
	progs := make([][]schedOp, len(c.sessions))
	for _, op := range preloadOps(c.sp, seed) {
		progs[op.Sess] = append(progs[op.Sess], op)
	}
	c.setPrograms(progs, preloadWindow, math.MaxInt64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, ep := range c.endpoints {
		wg.Add(1)
		go func(ep *endpoint) {
			defer wg.Done()
			ep.runClosed(stop)
		}(ep)
	}
	err := c.waitQuiet(30 * time.Second)
	close(stop)
	wg.Wait()
	c.setPrograms(nil, 0, 0)
	return err
}

// waitQuiet waits until every issued op is complete, every program has
// run to its end (or its stop time) and no merge is in flight.
func (c *cluster) waitQuiet(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		if err := c.firstErr(); err != nil {
			return err
		}
		pending := c.pendingOps() + int(c.mergesInFlight())
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d operations or merges still pending after %v", pending, limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pendingOps counts issued-but-incomplete ops plus program ops still to
// be issued, reading each session under its transport mutex.
func (c *cluster) pendingOps() int {
	n := 0
	for _, s := range c.sessions {
		s := s
		s.ep.tcp.DoSession(s.id, func(int64) []wire.Envelope {
			n += s.open
			if s.stopAt > nowNS() {
				n += len(s.prog) - s.next
			}
			return nil
		})
	}
	return n
}
