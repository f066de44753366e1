package deploy

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"wedgechain/internal/core"
	"wedgechain/internal/transport"
	"wedgechain/internal/wire"
)

// ErrClosed reports a call on a closed Loopback.
var ErrClosed = errors.New("deploy: loopback endpoints closed")

// Loopback hosts nodes inside one process, each on its own TCP endpoint on
// 127.0.0.1:0 — the transport the cmd/ binaries deploy, with the same
// framing, writer lanes and delivery order — and binds every identity on
// every endpoint. The façade's Cluster and the chaos soak's TCP host run
// on it.
type Loopback struct {
	cfg transport.TCPConfig

	// ctx ends every endpoint's Serve and served waits for them. Close
	// cancels ctx under mu, so no endpoint is added after it.
	ctx    context.Context
	cancel context.CancelFunc
	served sync.WaitGroup

	mu    sync.Mutex
	nodes map[wire.NodeID]*transport.TCP
}

// NewLoopback returns a host with no endpoints; each endpoint Host adds
// is configured by cfg, listening on 127.0.0.1:0.
func NewLoopback(cfg transport.TCPConfig) *Loopback {
	cfg.Listen = "127.0.0.1:0"
	l := &Loopback{cfg: cfg, nodes: make(map[wire.NodeID]*transport.TCP)}
	l.ctx, l.cancel = context.WithCancel(context.Background())
	return l
}

// Host serves h on its own endpoint until Close, and binds its address on
// every endpoint and theirs on it, so h and its peers reach each other
// from their first frame.
func (l *Loopback) Host(h core.Handler) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ctx.Err() != nil {
		return ErrClosed
	}
	if _, dup := l.nodes[h.ID()]; dup {
		return fmt.Errorf("deploy: %q is already hosted", h.ID())
	}
	t := transport.NewTCP(h, l.cfg)
	err := t.Listen()
	l.served.Add(1)
	go func() {
		defer l.served.Done()
		t.Serve(l.ctx) // Serve owns teardown, even after a failed Listen
	}()
	if err != nil {
		return err
	}
	l.nodes[h.ID()] = t
	for id, peer := range l.nodes {
		t.SetPeer(id, peer.Addr().String())
		peer.SetPeer(h.ID(), t.Addr().String())
	}
	return nil
}

// Do runs fn as a turn of node id, on the caller's goroutine: under the
// node's session mutex, with what fn returns sent. fn must not call back
// into the same node.
func (l *Loopback) Do(id wire.NodeID, fn func(now int64) []wire.Envelope) error {
	l.mu.Lock()
	t := l.nodes[id]
	l.mu.Unlock()
	if l.ctx.Err() != nil {
		return ErrClosed
	}
	if t == nil {
		return fmt.Errorf("deploy: %q is not hosted", id)
	}
	t.DoSession(id, fn)
	return nil
}

// Close stops every endpoint and waits for each Serve to return. The
// nodes own no goroutine: they run only on their endpoints' turns.
func (l *Loopback) Close() {
	l.mu.Lock()
	l.cancel()
	l.mu.Unlock()
	l.served.Wait()
}
