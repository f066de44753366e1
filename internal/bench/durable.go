package bench

import (
	"fmt"
	"os"
	"time"

	"wedgechain/internal/client"
	"wedgechain/internal/edge"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
	"wedgechain/internal/workload"
)

// SyncPerBlock is the explicit "no group commit" setting for durable bench
// worlds: every block is synced in the turn that cut it, one fsync per
// turn (a turn that cuts several blocks pays one for all). Durable configurations must pick
// it (or a positive group-commit window) deliberately — a zero SyncEvery in
// a durable bench config is rejected loudly, because it used to mean
// "silently measure per-block fsync and call it the durable number".
const SyncPerBlock = int64(-1)

// durableSyncEvery is the single gate every durable bench world's
// SyncEvery goes through: SyncPerBlock (the edge reads a negative window as
// a zero one) or a positive window passes, and an unset window panics
// instead of producing numbers that silently omit the fsync-amortization
// dimension.
func durableSyncEvery(syncEvery int64) int64 {
	if syncEvery == 0 {
		panic("bench: durable world without an explicit SyncEvery; " +
			"set SyncPerBlock or a group-commit window so durable numbers state their fsync discipline")
	}
	return syncEvery
}

// DurableSyncSweep (D1) measures the durable put hot path (wall-clock, real
// fsyncs) across the SyncEvery dimension: per-block fsync versus
// group-commit windows of increasing width. Acknowledgements are withheld
// until the covering fsync in every mode, so each row is a correct
// durability discipline — the sweep shows what the shared fsync buys, and
// the fsync counter proves the amortization is real rather than deferred.
func DurableSyncSweep(scale Scale) *Table {
	t := &Table{
		ID:    "D1",
		Title: "Durable put path: group-commit (SyncEvery) sweep, wall-clock (B=100)",
		Header: []string{"SyncEvery", "Puts", "Throughput (Kops/s)",
			"fsyncs", "Blocks/fsync", "Speedup"},
	}
	total := 30_000 / int(scale)
	if total < 3_000 {
		total = 3_000
	}
	total -= total % durableBatch // full blocks only, so every put is acknowledged
	reg, bursts := durableBursts(total)

	sweep := []struct {
		name string
		win  int64
	}{
		{"per-block fsync", SyncPerBlock},
		{"500us window", int64(500e3)},
		{"2ms window", int64(2e6)},
		{"10ms window", int64(10e6)},
	}
	var base float64
	for i, s := range sweep {
		tput, syncs := runDurable(reg, bursts, total, s.win)
		if i == 0 {
			base = tput
		}
		blocks := float64(total / durableBatch)
		t.Rows = append(t.Rows, []string{
			s.name,
			fmt.Sprint(total),
			f1(tput / 1e3),
			fmt.Sprint(syncs),
			f1(blocks / float64(syncs)),
			fmt.Sprintf("%.2fx", tput/base),
		})
	}
	t.Notes = append(t.Notes,
		"every mode withholds Phase I acknowledgements until the covering fsync returns (group commit batches blocks into one)",
		"single-threaded submission; throughput isolates the durability discipline, not client parallelism",
	)
	return t
}

const (
	durableClients = 12
	durableBatch   = 100
)

// durableBursts pre-generates D1's input: the put traffic as MACed bursts
// of durableBatch entries, submitted by real client cores round-robin over
// durableClients identities — so MAC cost never pollutes the measured
// window. It returns the registry holding the clients' and the edge's keys.
func durableBursts(total int) (*wcrypto.Registry, []wire.Envelope) {
	reg := wcrypto.NewRegistry()
	reg.Register("edge-1", wcrypto.DeterministicKey("edge-1").Pub)
	cores := make([]*client.Core, durableClients)
	for i := range cores {
		k := wcrypto.DeterministicKey(wire.NodeID(fmt.Sprintf("c%d", i+1)))
		reg.Register(k.ID, k.Pub)
		cores[i] = client.New(client.Config{ID: k.ID, Edge: "edge-1", Cloud: "cloud"}, k, reg)
	}
	var bursts []wire.Envelope
	keys, values := make([][]byte, durableBatch), make([][]byte, durableBatch)
	for i := range values {
		values[i] = make([]byte, 100)
	}
	for start := 0; start < total; start += durableBatch {
		for i := range keys {
			keys[i] = workload.KeyName(start + i)
		}
		_, envs := cores[(start/durableBatch)%durableClients].PutBatch(int64(start), keys, values)
		bursts = append(bursts, envs...)
	}
	return reg, bursts
}

// runDurable drives the MACed put workload through a persistent
// edge with the given group-commit window and reports measured throughput
// and the fsync count.
func runDurable(reg *wcrypto.Registry, bursts []wire.Envelope, total int, syncEvery int64) (tput float64, syncs uint64) {
	dir, err := os.MkdirTemp("", "wedge-durable-bench-*")
	if err != nil {
		panic(fmt.Sprintf("bench: durable temp dir: %v", err))
	}
	defer os.RemoveAll(dir)

	en, _, err := edge.NewPersistent(edge.Config{
		ID:          "edge-1",
		Cloud:       "cloud",
		BatchSize:   durableBatch,
		L0Threshold: 1 << 30, // no compaction: isolate the durable write path
		SyncEvery:   durableSyncEvery(syncEvery),
	}, wcrypto.DeterministicKey("edge-1"), reg, dir, true)
	if err != nil {
		panic(fmt.Sprintf("bench: durable edge: %v", err))
	}
	defer en.CloseStore()

	acked := 0
	countAcks := func(outs []wire.Envelope) {
		for _, out := range outs {
			if m, ok := out.Msg.(*wire.PutResponse); ok {
				for i := range m.Block.Entries {
					if m.Block.Entries[i].Client == out.To {
						acked++
					}
				}
			}
		}
	}

	start := time.Now()
	for _, env := range bursts {
		now := time.Now().UnixNano()
		countAcks(en.Receive(now, env))
		countAcks(en.Tick(now))
	}
	// Drain the final group-commit window.
	deadline := time.Now().Add(30 * time.Second)
	for acked < total {
		countAcks(en.Tick(time.Now().UnixNano()))
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("bench: durable sweep stalled at %d/%d acks", acked, total))
		}
		time.Sleep(100 * time.Microsecond)
	}
	elapsed := time.Since(start)
	return float64(total) / elapsed.Seconds(), en.StoreSyncs()
}
