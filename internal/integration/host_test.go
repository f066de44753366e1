package integration

import (
	"testing"
	"time"

	"wedgechain/internal/deploy"
	"wedgechain/internal/sim"
	"wedgechain/internal/wire"
)

// host runs a replicated world's nodes: the simulator in virtual time, or
// one loopback TCP endpoint per node in wall-clock time. A scenario that
// reaches node state only through do runs unchanged on either.
type host interface {
	// start is the host's clock when the world was built: 0 on the
	// simulator, wall-clock nanoseconds on TCP.
	start() int64
	// do runs fn as a turn of node id and sends what it returns.
	do(id wire.NodeID, fn func(now int64) []wire.Envelope)
	// wait lets d nanoseconds of the host's time pass.
	wait(d int64)
}

// simHost calls fn directly: the simulator runs one node at a time, and
// only inside wait.
type simHost struct{ *sim.Sim }

func (h simHost) start() int64 { return 0 }

func (h simHost) do(_ wire.NodeID, fn func(now int64) []wire.Envelope) { h.Inject(fn(h.Now())) }

func (h simHost) wait(d int64) { h.RunUntil(h.Now() + d) }

// tcpHost runs fn under the node's session mutex, as its endpoint runs a
// delivery or a tick.
type tcpHost struct {
	t  *testing.T
	lb *deploy.Loopback
	t0 int64
}

func (h tcpHost) start() int64 { return h.t0 }

func (h tcpHost) do(id wire.NodeID, fn func(now int64) []wire.Envelope) {
	if err := h.lb.Do(id, fn); err != nil {
		h.t.Fatal(err)
	}
}

func (h tcpHost) wait(d int64) { time.Sleep(time.Duration(d)) }
