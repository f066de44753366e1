// Package transport runs the protocol state machines over TCP: each
// endpoint serves one or more core.Handler sessions behind a listener,
// with length-prefixed framing and a shared pool of writer lanes. A
// session handles each frame on its own turn, checking its signatures
// there, and its outputs leave in the order it emitted them. The cmd/
// binaries, the embedding façade and the macro benchmark all use it;
// virtual time runs the same handlers on internal/sim instead.
package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"wedgechain/internal/core"
	"wedgechain/internal/faultnet"
	"wedgechain/internal/obs"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// maxFrame bounds a single TCP frame (64 MiB) against hostile peers.
const maxFrame = 64 << 20

const (
	// numLanes is the number of shared writer goroutines draining outbound
	// frames. Peers hash to a lane by address, so one peer's frames stay
	// FIFO and peers sharing an address share a connection; a stalled
	// dial or write delays only its own lane.
	numLanes = 4
	// maxLaneDepth bounds each lane's frames, queued plus the one being
	// written. A frame past it is dropped (counted in Stats.LaneDrops).
	// It reserves nothing: queue storage follows the frames actually
	// queued.
	maxLaneDepth = 4096
	// dialTimeout bounds outbound connection setup.
	dialTimeout = 5 * time.Second
	// writeTimeout bounds one frame write to a peer: a peer that stops
	// reading fails its writes and is redialed on the next message
	// instead of wedging the sender.
	writeTimeout = 10 * time.Second
)

// TCPConfig parameterizes a TCP endpoint.
type TCPConfig struct {
	// Listen is the local address to accept peer connections on.
	Listen string
	// Peers maps node identities to dialable addresses. Multiple
	// identities may share one address (a multiplexed endpoint hosting
	// many sessions); their frames share one outbound connection.
	Peers map[wire.NodeID]string
	// TickEvery drives Handler.Tick; 0 defaults to 50ms.
	TickEvery time.Duration
	// Registry and VerifyWorkers are read by nothing: every session
	// checks signatures against its own registry on its own turn. They
	// stay only because the macro benchmark (benchmark/cluster.go) still
	// sets them.
	Registry      *wcrypto.Registry
	VerifyWorkers int
	// Fault injects deterministic link faults (drop/delay/duplicate/
	// partition) on this endpoint's outbound frames; nil disables.
	// Fault time is wall-clock nanoseconds.
	Fault *faultnet.Net
	// Obs, when set, is the metrics registry the endpoint's frame
	// counters (wedge_transport_*) register into, labeled with the
	// primary handler's identity. Stats() is backed by the same counters
	// either way; nil only keeps them off the shared registry.
	Obs *obs.Registry
	// Log receives the endpoint's structured warnings (lane-full drops).
	// nil is silent — the default, keeping tests quiet.
	Log *slog.Logger
	// lanes and laneDepth override the package constants for tests that
	// need one lane or a shallow one; 0 means the constant.
	lanes, laneDepth int
}

// Stats counts an endpoint's frame-level events. All counters are
// cumulative since creation.
type Stats struct {
	// FramesSent counts frames successfully written to a peer socket.
	FramesSent uint64
	// LaneDrops counts frames dropped because their writer lane was full
	// (a slow or dead peer backing up its lane).
	LaneDrops uint64
	// UnreachableDrops counts frames a lane took but could not deliver:
	// the dial failed, or the write failed and its one resend on a fresh
	// dial failed too (the peer is down or refusing connections).
	UnreachableDrops uint64
	// NoAddrDrops counts frames dropped for lack of a peer address.
	NoAddrDrops uint64
	// Redials counts outbound connection (re)establishments.
	Redials uint64
}

// TCP serves one or more handlers ("sessions") over real sockets. Inbound
// frames are routed by Envelope.To to the session with that identity and
// delivered under a per-session mutex (preserving single-threaded handler
// semantics): a session's turn is one Receive, Tick or Do, and the turn
// hands its outputs to the writer lanes before the next turn starts.
// Outbound frames are drained by a small fixed pool of writer lanes — not
// one goroutine per peer — so the goroutine count stays flat no matter how
// many peers or sessions the endpoint serves. Peers hash to lanes by
// address: one peer's frames stay FIFO, and a slow or dead peer can stall
// only its own lane (bounded by dialTimeout/writeTimeout), never the
// handlers or other lanes.
type TCP struct {
	cfg   TCPConfig
	stopc chan struct{} // closed when Serve exits; stops lanes
	stop1 sync.Once

	// sessions routes inbound frames by destination identity. primary is
	// the handler NewTCP was created with (the Do target).
	sessMu   sync.RWMutex
	sessions map[wire.NodeID]*tcpSession
	primary  *tcpSession

	connMu     sync.Mutex
	peers      map[wire.NodeID]string
	dropLogged map[wire.NodeID]struct{} // peers whose lane drop was logged

	lanes    []*writeLane
	laneOnce sync.Once // lanes start on first outbound frame

	// delayMu guards delayQ: frames held back by an injected delay, in
	// release order.
	delayMu sync.Mutex
	delayQ  []delayedFrame

	// Frame counters: registry-backed so /metrics and Stats() read the
	// same atomics (see TCPConfig.Obs).
	stFramesSent *obs.Counter
	stLaneDrops  *obs.Counter
	stUnreach    *obs.Counter
	stNoAddr     *obs.Counter
	stRedials    *obs.Counter

	lisMu sync.Mutex
	lis   net.Listener

	// accepted tracks inbound connections so Serve's exit closes them —
	// the same teardown a process death produces, which peers rely on to
	// notice this endpoint restarted.
	acceptMu sync.Mutex
	accepted map[net.Conn]struct{}
}

// tcpSession is one handler hosted on the endpoint, with the mutex that
// serializes its Receive/Tick access.
type tcpSession struct {
	mu sync.Mutex
	h  core.Handler
}

// writeLane is one shared outbound worker: a FIFO of addressed frames
// drained by a dedicated goroutine that owns the connections to every
// peer hashed onto it. A lane holding maxLaneDepth frames, counting the one
// being written, drops the next — the protocol's timeout and dispute
// machinery owns recovery, mirroring the paper's asynchronous network
// assumption. The queue's storage comes from queuePool when a frame
// reaches an empty lane and goes back when the lane drains, so an idle
// lane holds none and a busy one allocates nothing per frame.
type writeLane struct {
	mu   sync.Mutex
	buf  *[]laneItem // queued frames are (*buf)[head:]; nil when drained
	head int
	busy int           // 1 while the writer holds a frame taken off buf
	wake chan struct{} // 1-buffered: a frame reached an idle lane
}

var queuePool = sync.Pool{New: func() any { return new([]laneItem) }}

// push queues it unless the lane already holds depth frames.
func (ln *writeLane) push(it laneItem, depth int) bool {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if ln.buf == nil {
		ln.buf = queuePool.Get().(*[]laneItem)
	}
	q := *ln.buf
	n := len(q) - ln.head + ln.busy
	if n >= depth {
		return false
	}
	if len(q) == cap(q) && ln.head > 0 { // reuse the written slots before growing
		q, ln.head = slices.Delete(q, 0, ln.head), 0
	}
	*ln.buf = append(q, it)
	if n == 0 {
		select {
		case ln.wake <- struct{}{}:
		default:
		}
	}
	return true
}

// pop ends the writer's previous frame and takes the next; on an empty
// lane it hands the storage back and reports false.
func (ln *writeLane) pop() (it laneItem, ok bool) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	ln.busy = 0
	if ln.buf == nil {
		return it, false
	}
	q := *ln.buf
	if ln.head == len(q) {
		*ln.buf = q[:0]
		queuePool.Put(ln.buf)
		ln.buf, ln.head = nil, 0
		return it, false
	}
	it, q[ln.head] = q[ln.head], laneItem{}
	ln.head++
	ln.busy = 1
	return it, true
}

type laneItem struct {
	to  wire.NodeID
	env wire.Envelope
}

// peerConn is one outbound connection plus a liveness flag maintained by a
// read-side monitor. Outbound connections are write-only in this protocol
// (responses travel over the peer's own dial), so a returning Read means
// the peer closed or reset the connection — most importantly, that the
// peer's process died or restarted. The lane consults the flag before
// each frame: writing into a socket the kernel already knows is dead
// "succeeds" locally and loses the frame without ever surfacing an error.
type peerConn struct {
	net.Conn
	dead chan struct{}
	once sync.Once
}

func newPeerConn(c net.Conn) *peerConn {
	pc := &peerConn{Conn: c, dead: make(chan struct{})}
	go pc.monitor()
	return pc
}

func (c *peerConn) monitor() {
	var buf [64]byte
	for {
		if _, err := c.Conn.Read(buf[:]); err != nil {
			c.markDead()
			return
		}
		// Peers never send application data on our outbound connection;
		// anything read is discarded and the watch continues.
	}
}

func (c *peerConn) markDead() { c.once.Do(func() { close(c.dead) }) }

func (c *peerConn) isDead() bool {
	select {
	case <-c.dead:
		return true
	default:
		return false
	}
}

// fill replaces every zero knob with the layer default.
func (c *TCPConfig) fill() {
	if c.TickEvery <= 0 {
		c.TickEvery = 50 * time.Millisecond
	}
	if c.lanes <= 0 {
		c.lanes = numLanes
	}
	if c.laneDepth <= 0 {
		c.laneDepth = maxLaneDepth
	}
}

// NewTCP wraps a handler for TCP service.
func NewTCP(h core.Handler, cfg TCPConfig) *TCP {
	cfg.fill()
	peers := make(map[wire.NodeID]string, len(cfg.Peers))
	for id, addr := range cfg.Peers {
		peers[id] = addr
	}
	prim := &tcpSession{h: h}
	t := &TCP{
		cfg:        cfg,
		stopc:      make(chan struct{}),
		sessions:   map[wire.NodeID]*tcpSession{h.ID(): prim},
		primary:    prim,
		peers:      peers,
		dropLogged: make(map[wire.NodeID]struct{}),
		lanes:      make([]*writeLane, cfg.lanes),
		accepted:   make(map[net.Conn]struct{}),
	}
	for i := range t.lanes {
		t.lanes[i] = &writeLane{wake: make(chan struct{}, 1)}
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	node := string(h.ID())
	t.stFramesSent = reg.CounterVec("wedge_transport_frames_sent_total",
		"frames successfully written to a peer socket", "node").With(node)
	t.stLaneDrops = reg.CounterVec("wedge_transport_lane_drops_total",
		"frames dropped because their writer lane was full", "node").With(node)
	t.stUnreach = reg.CounterVec("wedge_transport_unreachable_drops_total",
		"frames dropped because their peer could not be dialed or written to after one resend", "node").With(node)
	t.stNoAddr = reg.CounterVec("wedge_transport_no_addr_drops_total",
		"frames dropped for lack of a peer address", "node").With(node)
	t.stRedials = reg.CounterVec("wedge_transport_redials_total",
		"outbound connection (re)establishments", "node").With(node)
	return t
}

// AddSession hosts another handler on this endpoint. Inbound frames are
// routed by Envelope.To, so any number of client sessions share one
// listener and the fixed writer-lane pool instead of a transport (and its
// goroutines) each. Sessions must be added before
// traffic for their identity arrives; frames for unknown identities are
// dropped as misrouted.
func (t *TCP) AddSession(h core.Handler) {
	t.sessMu.Lock()
	t.sessions[h.ID()] = &tcpSession{h: h}
	t.sessMu.Unlock()
}

func (t *TCP) session(id wire.NodeID) *tcpSession {
	t.sessMu.RLock()
	s := t.sessions[id]
	t.sessMu.RUnlock()
	return s
}

// Stats returns a snapshot of the endpoint's frame counters.
func (t *TCP) Stats() Stats {
	return Stats{
		FramesSent:       t.stFramesSent.Value(),
		LaneDrops:        t.stLaneDrops.Value(),
		UnreachableDrops: t.stUnreach.Value(),
		NoAddrDrops:      t.stNoAddr.Value(),
		Redials:          t.stRedials.Value(),
	}
}

// Addr returns the bound listen address, or nil before Listen succeeded.
func (t *TCP) Addr() net.Addr {
	t.lisMu.Lock()
	defer t.lisMu.Unlock()
	if t.lis == nil {
		return nil
	}
	return t.lis.Addr()
}

// SetPeer binds or replaces a peer's dialable address at runtime. Lanes
// resolve the address on every dial, so an existing peer picks the new
// address up on its next (re)connect.
func (t *TCP) SetPeer(id wire.NodeID, addr string) {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	t.peers[id] = addr
}

// Listen binds the listener; idempotent. Serve calls it automatically,
// but callers that need the bound address before serving may call it
// first.
func (t *TCP) Listen() error {
	t.lisMu.Lock()
	defer t.lisMu.Unlock()
	if t.lis != nil {
		return nil
	}
	lis, err := net.Listen("tcp", t.cfg.Listen)
	if err != nil {
		return fmt.Errorf("transport: listen %s: %w", t.cfg.Listen, err)
	}
	t.lis = lis
	return nil
}

// Serve listens and processes frames until ctx is done. It returns once
// every turn it started — a delivery or a tick — has finished, so no
// handler runs after it. On exit the writer lanes are released; frames
// still in flight are dropped, which shutdown makes moot.
func (t *TCP) Serve(ctx context.Context) error {
	var turns sync.WaitGroup // readers and the ticker
	defer turns.Wait()
	defer t.stop1.Do(func() { close(t.stopc) })
	defer func() {
		t.acceptMu.Lock()
		for c := range t.accepted {
			c.Close()
		}
		t.acceptMu.Unlock()
	}()
	if err := t.Listen(); err != nil {
		return err
	}
	t.lisMu.Lock()
	lis := t.lis
	t.lisMu.Unlock()
	go func() {
		<-ctx.Done()
		lis.Close()
	}()

	ticker := time.NewTicker(t.cfg.TickEvery)
	defer ticker.Stop()
	turns.Add(1)
	go func() {
		defer turns.Done()
		for {
			select {
			case <-t.stopc:
				return
			case <-ticker.C:
				now := time.Now().UnixNano()
				t.sessMu.RLock()
				sess := make([]*tcpSession, 0, len(t.sessions))
				for _, s := range t.sessions {
					sess = append(sess, s)
				}
				t.sessMu.RUnlock()
				for _, s := range sess {
					t.turn(s, func(int64) []wire.Envelope { return s.h.Tick(now) })
				}
			}
		}
	}()

	for {
		conn, err := lis.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("transport: accept: %w", err)
		}
		t.acceptMu.Lock()
		t.accepted[conn] = struct{}{}
		t.acceptMu.Unlock()
		turns.Add(1)
		go t.read(ctx, conn, turns.Done)
	}
}

// Do runs fn as a turn of the primary session — under its mutex, its
// outputs routed — the hook synchronous clients use to start operations.
func (t *TCP) Do(fn func(now int64) []wire.Envelope) {
	t.turn(t.primary, fn)
}

// DoSession runs fn under the named session's mutex and routes its
// outputs; it reports whether the session exists.
func (t *TCP) DoSession(id wire.NodeID, fn func(now int64) []wire.Envelope) bool {
	s := t.session(id)
	if s == nil {
		return false
	}
	t.turn(s, fn)
	return true
}

// turn runs fn under s's mutex and hands its outputs to the writer lanes
// before releasing it, so a session's frames leave in the order its turns
// emitted them. Handing off never blocks (see send).
func (t *TCP) turn(s *tcpSession, fn func(now int64) []wire.Envelope) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, env := range fn(time.Now().UnixNano()) {
		t.send(env)
	}
}

func (t *TCP) read(ctx context.Context, conn net.Conn, done func()) {
	defer func() {
		defer done()
		conn.Close()
		t.acceptMu.Lock()
		delete(t.accepted, conn)
		t.acceptMu.Unlock()
	}()
	for {
		env, err := ReadFrame(conn)
		if err != nil {
			return
		}
		s := t.session(env.To)
		if s == nil {
			continue // misrouted
		}
		t.turn(s, func(now int64) []wire.Envelope { return s.h.Receive(now, env) })
		if ctx.Err() != nil {
			return
		}
	}
}

// send hands the envelope to its writer lane without ever blocking the
// caller: a full lane drops the message (the protocol's timeout and
// dispute machinery owns recovery, mirroring the paper's asynchronous
// network assumption).
func (t *TCP) send(env wire.Envelope) {
	if t.cfg.Fault != nil && env.From != env.To {
		now := time.Now()
		act := t.cfg.Fault.Apply(now.UnixNano(), env.From, env.To)
		if act.Drop {
			return
		}
		for _, extra := range act.Delays {
			if extra <= 0 {
				t.enqueue(env)
				continue
			}
			t.delay(delayedFrame{due: now.Add(time.Duration(extra)), env: env})
		}
		return
	}
	t.enqueue(env)
}

// delayedFrame is a frame an injected delay holds back until due.
type delayedFrame struct {
	due time.Time
	env wire.Envelope
}

// delay queues f for release at its due time. The queue releases in due
// order, ties in the order they were queued: a constant link delay shifts
// a node's frames without reordering them, and only a delay range or a
// duplicate reorders, as the fault asked.
func (t *TCP) delay(f delayedFrame) {
	t.delayMu.Lock()
	i := sort.Search(len(t.delayQ), func(i int) bool { return t.delayQ[i].due.After(f.due) })
	t.delayQ = slices.Insert(t.delayQ, i, f)
	t.delayMu.Unlock()
	time.AfterFunc(time.Until(f.due), t.releaseDue)
}

// releaseDue hands every frame whose delay has elapsed to its writer lane,
// in queue order. Each queued frame schedules one call at its due time, so
// none waits past it.
func (t *TCP) releaseDue() {
	t.delayMu.Lock()
	defer t.delayMu.Unlock()
	now := time.Now()
	n := 0
	for n < len(t.delayQ) && !t.delayQ[n].due.After(now) {
		t.enqueue(t.delayQ[n].env)
		n++
	}
	t.delayQ = slices.Delete(t.delayQ, 0, n)
}

// enqueue routes the envelope to the lane owning its peer's address. The
// lane is chosen by address, not identity, so every frame for one peer
// stays FIFO through one lane, and multiplexed identities sharing an
// address share the lane's single connection to it.
func (t *TCP) enqueue(env wire.Envelope) {
	t.connMu.Lock()
	addr, known := t.peers[env.To]
	t.connMu.Unlock()
	if !known {
		t.stNoAddr.Add(1)
		return // no address for this peer
	}
	t.laneOnce.Do(t.startLanes)
	ln := t.lanes[laneOf(addr, len(t.lanes))]
	if !ln.push(laneItem{to: env.To, env: env}, t.cfg.laneDepth) {
		// Lane full: peer is slow or dead; drop.
		t.stLaneDrops.Add(1)
		t.connMu.Lock()
		if _, logged := t.dropLogged[env.To]; !logged && t.cfg.Log != nil {
			t.dropLogged[env.To] = struct{}{}
			t.cfg.Log.Warn("writer lane full; dropping frames",
				"peer", string(env.To),
				"note", "further drops to this peer counted, not logged")
		}
		t.connMu.Unlock()
	}
}

func (t *TCP) startLanes() {
	for _, ln := range t.lanes {
		go t.laneLoop(ln)
	}
}

// laneOf hashes a peer address onto a lane (FNV-1a).
func laneOf(addr string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(addr); i++ {
		h = (h ^ uint32(addr[i])) * 16777619
	}
	return int(h % uint32(n))
}

// laneLoop drains one lane's queue, owning the outbound connections (one
// per distinct address) of every peer hashed onto the lane. It dials on
// demand (re-resolving the peer address, so SetPeer takes effect), writes
// each frame under writeTimeout, and drops frames while a peer is
// unreachable (counted in Stats.UnreachableDrops).
//
// Two mechanisms keep a peer restart (same identity, same address) from
// losing the first frame addressed to the new incarnation:
//
//   - the read-side monitor (peerConn) marks the cached connection dead
//     as soon as the old incarnation's close reaches us, so the lane
//     redials BEFORE writing — a write into a kernel-dead socket would
//     "succeed" locally and lose the frame without any error;
//   - a write that does fail (detection raced the write) is retried
//     exactly once on a fresh dial, resending the same frame.
//
// One retry is enough: a second failure means the peer is down, and the
// protocol's timeout and dispute machinery owns recovery from there.
func (t *TCP) laneLoop(ln *writeLane) {
	conns := make(map[string]*peerConn) // by dialed address
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for {
		it, ok := ln.pop()
		if !ok {
			select {
			case <-t.stopc:
				return
			case <-ln.wake:
			}
			continue
		}
		select {
		case <-t.stopc:
			return
		default:
		}
		if !t.write(conns, it) {
			t.stUnreach.Add(1)
		}
	}
}

// write delivers one frame over the lane's connections, redialing and
// resending at most once; false means the peer is unreachable and the
// frame is lost.
func (t *TCP) write(conns map[string]*peerConn, it laneItem) bool {
	for attempt := 0; attempt < 2; attempt++ {
		t.connMu.Lock()
		addr := t.peers[it.to]
		t.connMu.Unlock()
		conn := conns[addr]
		if conn != nil && conn.isDead() {
			conn.Close()
			delete(conns, addr)
			conn = nil
		}
		if conn == nil {
			c, err := net.DialTimeout("tcp", addr, dialTimeout)
			if err != nil {
				return false
			}
			conn = newPeerConn(c)
			conns[addr] = conn
			t.stRedials.Add(1)
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := WriteFrame(conn, it.env); err == nil {
			t.stFramesSent.Add(1)
			return true
		}
		// The connection died under us; redial once and resend.
		conn.Close()
		delete(conns, addr)
	}
	return false
}

// WriteFrame writes one length-prefixed envelope. The frame is assembled
// in a pooled buffer (header and payload leave in a single Write) and the
// buffer is returned to the pool afterwards — steady-state framing
// allocates nothing.
func WriteFrame(w io.Writer, env wire.Envelope) error {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	var hdr [4]byte
	e.Raw(hdr[:]) // length placeholder, patched below
	wire.AppendEnvelope(e, env)
	frame := e.Bytes()
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one length-prefixed envelope. The frame buffer's
// ownership transfers to the decoded message (zero-copy decode): each
// frame is read into a fresh buffer and never reused.
func ReadFrame(r io.Reader) (wire.Envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return wire.Envelope{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return wire.Envelope{}, errors.New("transport: frame exceeds limit")
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return wire.Envelope{}, err
	}
	return wire.DecodeEnvelopeOwned(buf)
}
