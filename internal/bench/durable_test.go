package bench

import (
	"strings"
	"testing"

	"wedgechain/internal/edge"
)

// TestDurableWorldRequiresSyncEvery pins the loud-failure contract: a
// durable bench world with the group-commit dimension unset must refuse to
// build rather than silently produce durable numbers without a stated
// fsync discipline.
func TestDurableWorldRequiresSyncEvery(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("durable world with SyncEvery unset built silently")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "SyncEvery") {
			t.Fatalf("panic does not name the missing dimension: %v", r)
		}
	}()
	BuildWorld(WorldCfg{
		System:         Wedge,
		Clients:        1,
		Batch:          10,
		Place:          defaultPlace,
		WritesPerRound: 10,
		Rounds:         3,
		Durable:        true, // Edge.SyncEvery deliberately unset
	})
}

// TestDurableWorldGroupCommits runs a small durable world end to end and
// checks the group-commit window actually amortizes: fewer fsyncs than
// blocks, while every write still completes.
func TestDurableWorldGroupCommits(t *testing.T) {
	w := BuildWorld(WorldCfg{
		System:         Wedge,
		Clients:        2,
		Batch:          10,
		Place:          defaultPlace,
		WritesPerRound: 10,
		Rounds:         3,
		Durable:        true,
		Edge:           edge.Config{SyncEvery: int64(50e6)}, // 50ms virtual window
	})
	defer w.Close()
	w.Run(int64(600e9))
	if got := w.AggMetrics().Writes; got != 2*3*10 {
		t.Fatalf("writes = %d", got)
	}
	st := w.EdgeNode.Stats()
	syncs := w.EdgeNode.StoreSyncs()
	if syncs == 0 {
		t.Fatal("durable world issued no fsyncs")
	}
	if syncs >= st.BlocksCut {
		t.Fatalf("group commit did not amortize: %d fsyncs for %d blocks", syncs, st.BlocksCut)
	}
}

// TestDurableWorldPerBlockFsync checks the explicit per-block discipline
// maps through: one fsync per block (certificates ride their own).
func TestDurableWorldPerBlockFsync(t *testing.T) {
	w := BuildWorld(WorldCfg{
		System:         Wedge,
		Clients:        1,
		Batch:          10,
		Place:          defaultPlace,
		WritesPerRound: 10,
		Rounds:         3,
		Durable:        true,
		Edge:           edge.Config{SyncEvery: SyncPerBlock},
	})
	defer w.Close()
	w.Run(int64(600e9))
	st := w.EdgeNode.Stats()
	if st.BlocksCut == 0 {
		t.Fatal("no blocks cut")
	}
	if syncs := w.EdgeNode.StoreSyncs(); syncs < st.BlocksCut {
		t.Fatalf("per-block mode issued %d fsyncs for %d blocks", syncs, st.BlocksCut)
	}
}
