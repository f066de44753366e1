package integration

import (
	"bytes"
	"fmt"
	"testing"

	"wedgechain/internal/cloud"
	"wedgechain/internal/core"
	"wedgechain/internal/edge"
	"wedgechain/internal/mlsm"
	"wedgechain/internal/obs"
	"wedgechain/internal/wire"
)

// lossyCloud is a cloud whose link loses chosen compaction messages: the
// next dropRequests merge requests never reach it, and the next
// dropResponses merge responses it sends never leave.
type lossyCloud struct {
	*cloud.Node
	dropRequests, dropResponses int
}

func (l *lossyCloud) Receive(now int64, env wire.Envelope) []wire.Envelope {
	if _, ok := env.Msg.(*wire.MergeRequest); ok && l.dropRequests > 0 {
		l.dropRequests--
		return nil
	}
	out := l.Node.Receive(now, env)
	kept := out[:0]
	for _, e := range out {
		if _, ok := e.Msg.(*wire.MergeResponse); ok && l.dropResponses > 0 {
			l.dropResponses--
			continue
		}
		kept = append(kept, e)
	}
	return kept
}

// sameIndex reports whether two replicas hold the same LSMerkle: same
// signed global root, same level roots, same pages.
func sameIndex(a, b *edge.Node) error {
	ai, bi := a.Index(), b.Index()
	if ai.Global().Epoch != bi.Global().Epoch || !bytes.Equal(ai.Global().Root, bi.Global().Root) {
		return fmt.Errorf("global root: epoch %d vs %d", ai.Global().Epoch, bi.Global().Epoch)
	}
	for lvl := 1; lvl <= ai.Levels(); lvl++ {
		if !bytes.Equal(ai.Roots()[lvl-1], bi.Roots()[lvl-1]) {
			return fmt.Errorf("level %d roots differ", lvl)
		}
		if !bytes.Equal(mlsm.LevelTree(bi.Pages(lvl)).Root(), ai.Roots()[lvl-1]) {
			return fmt.Errorf("level %d: mirrored pages do not hash to the leader's root", lvl)
		}
	}
	if a.L0From() != b.L0From() {
		return fmt.Errorf("L0 frontier %d vs %d", a.L0From(), b.L0From())
	}
	return nil
}

// TestLostMergeMessagesHeal: one lost merge message used to wedge
// compaction for good — a lost request left the leader waiting forever, a
// lost response left the cloud one merge ahead of an edge whose every
// later request it then rejected as out of order. Now a leader with no
// cut block awaiting its certificate re-sends the unanswered request after
// the stall period, then after twice that, and the cloud answers a repeat
// with the response it already signed. Lose the first request, then the
// first response, with no write after the loss:
// compaction resumes, the cloud merged once per request, nobody is
// convicted, followers mirror the same levels — and a follower promoted
// afterwards serves verified reads from them and keeps compacting.
func TestLostMergeMessagesHeal(t *testing.T) {
	lossy := &lossyCloud{dropRequests: 1, dropResponses: 1}
	metrics := obs.NewRegistry()
	w := newRWorld(t, rworldOpts{
		l0Thresh: 2,
		metrics:  metrics,
		wrapCloud: func(n *cloud.Node) core.Handler {
			lossy.Node = n
			return lossy
		},
	})
	retries := func() uint64 { return metrics.CounterValue("wedge_edge_merge_retries_total") }

	// Two blocks fill the L0 window: the merge request goes out and is lost.
	for i := 0; i < 4; i++ {
		w.put(w.c1, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
	}
	w.settle(t, 500*ms)
	if lossy.dropRequests != 0 || w.cloud.Stats().Merges != 0 || w.leader.Index().Global().Epoch != 0 {
		t.Fatalf("setup: request not lost (left %d, cloud merges %d)", lossy.dropRequests, w.cloud.Stats().Merges)
	}
	// The retry reaches the cloud, which merges; its response is lost.
	w.settle(t, 1*s)
	if got := w.cloud.Stats().Merges; got != 1 || lossy.dropResponses != 0 || retries() != 1 {
		t.Fatalf("after first retry: cloud merges %d, responses left to drop %d, retries %d", got, lossy.dropResponses, retries())
	}
	if w.leader.Index().Global().Epoch != 0 {
		t.Fatal("leader installed a response that was lost")
	}
	// The second retry, twice the wait later, is a duplicate at the cloud:
	// replayed, not re-merged.
	w.settle(t, 2*s)
	if got := w.cloud.Stats().Merges; got != 1 || retries() != 2 {
		t.Fatalf("after second retry: cloud merges %d, retries %d", got, retries())
	}
	if w.leader.Index().Global().Epoch != 1 || w.leader.L0From() != 2 {
		t.Fatalf("leader did not install the replayed response: epoch %d l0From %d",
			w.leader.Index().Global().Epoch, w.leader.L0From())
	}

	// Compaction carries on: more blocks, more merges, none rejected.
	for i := 4; i < 16; i++ {
		w.put(w.c1, fmt.Sprintf("k%02d", i%10), fmt.Sprintf("v%d", i))
	}
	w.settle(t, 2*s)
	st := w.cloud.Stats()
	if st.Merges < 4 || st.MergeRejects != 0 || st.GuiltyEdges != 0 {
		t.Fatalf("compaction did not resume cleanly: merges %d rejects %d guilty %d", st.Merges, st.MergeRejects, st.GuiltyEdges)
	}
	if retries() != 2 {
		t.Fatalf("retries = %d on a healed link, want 2", retries())
	}
	for _, f := range []*edge.Node{w.r1, w.r2} {
		if err := sameIndex(w.leader, f); err != nil {
			t.Fatalf("follower %s: %v", f.ID(), err)
		}
	}

	// A follower promoted now inherits the mirrored levels.
	w.leader.Kill()
	w.settle(t, 2*s)
	promoted := w.promoted(t)
	if promoted == w.leader || promoted.IsFollower() {
		t.Fatal("no follower promoted")
	}
	get := w.get(w.c2, "k03") // last written as v13, compacted since
	w.settle(t, 2*s)
	if get.Err != nil || get.Phase != core.PhaseII || !get.Found || string(get.GotValue) != "v13" {
		t.Fatalf("get from promoted follower: phase %v found %v value %q err %v", get.Phase, get.Found, get.GotValue, get.Err)
	}
	before := w.cloud.Stats().Merges
	for i := 16; i < 24; i++ {
		w.put(w.c2, fmt.Sprintf("k%02d", i%10), fmt.Sprintf("v%d", i))
	}
	w.settle(t, 3*s)
	st = w.cloud.Stats()
	if st.Merges <= before || st.MergeRejects != 0 || st.GuiltyEdges != 0 {
		t.Fatalf("promoted follower does not compact: merges %d -> %d, rejects %d, guilty %d", before, st.Merges, st.MergeRejects, st.GuiltyEdges)
	}
}
