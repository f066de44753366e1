package integration

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"wedgechain/internal/client"
	"wedgechain/internal/core"
	"wedgechain/internal/edge"
	"wedgechain/internal/wire"
)

// TestPropertyGetsMatchModelMap drives random interleavings of puts and
// gets from two clients through the full protocol (edge + cloud + merges)
// and checks every verified get against a model map — the end-to-end
// version of the paper's correctness claim: reads observe
// latest-write-wins state with valid proofs, across compactions.
func TestPropertyGetsMatchModelMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := newWorld(t, worldOpts{batch: 2, l0Thresh: 2})
		model := map[string]string{}
		ver := 0
		for step := 0; step < 30; step++ {
			c := w.c1
			if rng.Intn(2) == 1 {
				c = w.c2
			}
			key := fmt.Sprintf("k%d", rng.Intn(6))
			if rng.Intn(3) > 0 { // two thirds writes
				// Write in pairs (batch size 2) so the block always
				// cuts: buffered entries are invisible to gets until
				// the block forms, by design.
				ver++
				val := fmt.Sprintf("v%d", ver)
				op := w.put(c, key, val)
				key2 := fmt.Sprintf("k%d", rng.Intn(6))
				ver++
				val2 := fmt.Sprintf("v%d", ver)
				op2 := w.put(w.c2, key2, val2)
				w.settle(t, 2*s)
				if op.Err != nil || op2.Err != nil {
					t.Logf("seed %d: put failed: %v / %v", seed, op.Err, op2.Err)
					return false
				}
				// The pair lands in one block; position order decides
				// which write wins when key == key2.
				model[key] = val
				model[key2] = val2
			} else {
				op := w.get(c, key)
				w.settle(t, 2*s)
				if op.Err != nil {
					t.Logf("seed %d: get failed: %v", seed, op.Err)
					return false
				}
				want, exists := model[key]
				if op.Found != exists {
					t.Logf("seed %d: get %s found=%v want %v", seed, key, op.Found, exists)
					return false
				}
				if exists && string(op.GotValue) != want {
					t.Logf("seed %d: get %s = %q want %q", seed, key, op.GotValue, want)
					return false
				}
			}
		}
		// Final sweep: everything verified Phase II.
		w.settle(t, 5*s)
		for key, want := range model {
			op := w.get(w.c1, key)
			w.settle(t, 2*s)
			if op.Err != nil || !op.Found || string(op.GotValue) != want {
				t.Logf("seed %d: final get %s = %q,%v,%v want %q", seed, key, op.GotValue, op.Found, op.Err, want)
				return false
			}
			if op.Phase != core.PhaseII {
				t.Logf("seed %d: final get %s phase %v", seed, key, op.Phase)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEveryLieConvicted randomizes which lie the edge tells and
// checks the paper's core guarantee: whatever the lie, the victim ends
// with a guilty verdict and the cloud bans the edge.
func TestPropertyEveryLieConvicted(t *testing.T) {
	lies := []string{"tamper-add", "tamper-read", "double-certify", "drop-certify"}
	for _, lie := range lies {
		lie := lie
		t.Run(lie, func(t *testing.T) {
			opts := worldOpts{proofTO: 100 * ms}
			fault := &edgeFault{}
			switch lie {
			case "tamper-add":
				fault.f.TamperAddVictim = "c1"
			case "tamper-read":
				// applied after commit, below
			case "double-certify":
				fault.f.DoubleCertify = true
			case "drop-certify":
				fault.f.DropCertify = true
			}
			opts.fault = &fault.f
			w := newWorld(t, opts)

			var victim *client.Op
			op1 := w.add(w.c1, "data-1")
			w.add(w.c2, "data-2")
			victim = op1
			if lie == "tamper-read" {
				w.settle(t, 2*s)
				fault.f.TamperReadVictim = "c2"
				victim = w.read(w.c2, 0)
			}
			w.sim.RunUntil(w.sim.Now() + 5*s)

			if _, banned := w.cloud.Flagged("edge-1"); !banned {
				t.Fatalf("%s: edge not banned", lie)
			}
			switch lie {
			case "tamper-add", "tamper-read", "drop-certify":
				if victim.Verdict == nil || !victim.Verdict.Guilty {
					t.Fatalf("%s: victim verdict = %+v", lie, victim.Verdict)
				}
				// A tampered add is convicted on its PutResponse: the
				// evidence shape every write's acknowledgement has.
				if lie == "tamper-add" && victim.Verdict.Kind != wire.DisputeAddLie {
					t.Fatalf("%s: convicted as %v", lie, victim.Verdict.Kind)
				}
			}
		})
	}
}

// edgeFault wraps the fault struct so subtests can mutate it mid-run.
type edgeFault struct{ f edge.Fault }
