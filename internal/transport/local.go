// Package transport runs the protocol state machines over real I/O: an
// in-process channel transport with injectable latency (examples, façade)
// and a TCP transport with length-prefixed framing (the cmd/ binaries).
// Both drive the identical core.Handler implementations the simulator
// drives, so deployed behaviour and measured behaviour share one codebase.
package transport

import (
	"sync"
	"time"

	"wedgechain/internal/core"
	"wedgechain/internal/faultnet"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// LocalConfig parameterizes an in-process network.
type LocalConfig struct {
	// TickEvery drives Handler.Tick; 0 defaults to 10ms.
	TickEvery time.Duration
	// Latency returns the one-way delay between two nodes; nil = none.
	Latency func(from, to wire.NodeID) time.Duration
	// Buffer is the per-node inbox depth; 0 defaults to 4096.
	Buffer int
	// Registry and VerifyWorkers enable a parallel signature
	// verification stage shared by every node on the network: inbound
	// envelopes are pre-verified by VerifyWorkers goroutines and
	// delivered in arrival order with Envelope.Verified set, so the
	// single-threaded handlers skip the per-message signature cost.
	// Failed or unknown messages are delivered unverified and the
	// handler rejects them exactly as it would without the stage. Zero
	// workers or a nil registry disables the stage; negative workers
	// means GOMAXPROCS.
	Registry      *wcrypto.Registry
	VerifyWorkers int
	// Fault injects deterministic link faults (drop/delay/duplicate/
	// partition) between distinct nodes; nil disables. Self-sends are
	// never perturbed. Fault time is wall-clock nanoseconds.
	Fault *faultnet.Net
}

type localMsg struct {
	env wire.Envelope
	fn  func(now int64) []wire.Envelope
}

type localNode struct {
	h     core.Handler
	inbox chan localMsg
}

// Local is an in-process message bus connecting handlers, each running on
// its own goroutine so per-node single-threading is preserved.
type Local struct {
	cfg    LocalConfig
	mu     sync.RWMutex
	nodes  map[wire.NodeID]*localNode
	stop   chan struct{}
	wg     sync.WaitGroup
	verify *wcrypto.VerifyPool // nil = no pre-verification stage

	timers sync.WaitGroup
}

// NewLocal creates an empty in-process network.
func NewLocal(cfg LocalConfig) *Local {
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 10 * time.Millisecond
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 4096
	}
	l := &Local{
		cfg:   cfg,
		nodes: make(map[wire.NodeID]*localNode),
		stop:  make(chan struct{}),
	}
	if cfg.Registry != nil && cfg.VerifyWorkers != 0 {
		// One pool serves the whole network: global delivery order is a
		// superset of every node's arrival order, and worker count stays
		// bounded by the host instead of by the node count. The sink
		// must never block the shared dispatcher, so a node whose inbox
		// is full sheds load (drop) instead of stalling its siblings —
		// the lossy-network behaviour the protocol already tolerates.
		l.verify = wcrypto.NewVerifyPool(cfg.Registry, cfg.VerifyWorkers, cfg.Buffer,
			func(env wire.Envelope) { l.enqueueNonblock(env) })
	}
	return l
}

// Add registers a handler and starts its node goroutine.
func (l *Local) Add(h core.Handler) {
	n := &localNode{h: h, inbox: make(chan localMsg, l.cfg.Buffer)}
	l.mu.Lock()
	l.nodes[h.ID()] = n
	l.mu.Unlock()
	l.wg.Add(1)
	go l.run(n)
}

func (l *Local) run(n *localNode) {
	defer l.wg.Done()
	ticker := time.NewTicker(l.cfg.TickEvery)
	defer ticker.Stop()
	for {
		select {
		case <-l.stop:
			return
		case m := <-n.inbox:
			now := time.Now().UnixNano()
			if m.fn != nil {
				l.route(m.fn(now))
				continue
			}
			l.route(n.h.Receive(now, m.env))
		case <-ticker.C:
			l.route(n.h.Tick(time.Now().UnixNano()))
		}
	}
}

// route delivers envelopes, applying the configured latency and any
// injected link faults.
func (l *Local) route(envs []wire.Envelope) {
	for _, env := range envs {
		env := env
		var delay time.Duration
		if l.cfg.Latency != nil {
			delay = l.cfg.Latency(env.From, env.To)
		}
		if l.cfg.Fault != nil && env.From != env.To {
			act := l.cfg.Fault.Apply(time.Now().UnixNano(), env.From, env.To)
			if act.Drop {
				continue
			}
			for _, extra := range act.Delays {
				l.deliverAfter(env, delay+time.Duration(extra))
			}
			continue
		}
		l.deliverAfter(env, delay)
	}
}

func (l *Local) deliverAfter(env wire.Envelope, delay time.Duration) {
	if delay <= 0 {
		l.deliver(env)
		return
	}
	l.timers.Add(1)
	time.AfterFunc(delay, func() {
		defer l.timers.Done()
		l.deliver(env)
	})
}

func (l *Local) deliver(env wire.Envelope) {
	if l.verify != nil {
		l.verify.Submit(env)
		return
	}
	l.enqueueTo(env)
}

func (l *Local) enqueueTo(env wire.Envelope) {
	l.mu.RLock()
	n := l.nodes[env.To]
	l.mu.RUnlock()
	if n == nil {
		return
	}
	select {
	case n.inbox <- localMsg{env: env}:
	case <-l.stop:
	}
}

// enqueueNonblock delivers without ever blocking the caller: a full inbox
// drops the message. The verify pool's dispatcher uses it so one
// backlogged node cannot head-of-line-block delivery to every other node.
func (l *Local) enqueueNonblock(env wire.Envelope) {
	l.mu.RLock()
	n := l.nodes[env.To]
	l.mu.RUnlock()
	if n == nil {
		return
	}
	select {
	case n.inbox <- localMsg{env: env}:
	default:
	}
}

// Send injects envelopes into the network as if their From nodes emitted
// them now.
func (l *Local) Send(envs []wire.Envelope) { l.route(envs) }

// Do runs fn on node id's goroutine — the only safe way to call into a
// handler's non-Handler API (e.g. starting a client operation) while the
// transport is live. The returned envelopes are routed.
func (l *Local) Do(id wire.NodeID, fn func(now int64) []wire.Envelope) bool {
	l.mu.RLock()
	n := l.nodes[id]
	l.mu.RUnlock()
	if n == nil {
		return false
	}
	select {
	case n.inbox <- localMsg{fn: fn}:
		return true
	case <-l.stop:
		return false
	}
}

// Close stops all node goroutines. Pending delayed deliveries are allowed
// to fire into the void.
func (l *Local) Close() {
	close(l.stop)
	l.wg.Wait()
	if l.verify != nil {
		l.verify.Close()
	}
}
