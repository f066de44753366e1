package core

import (
	"math/rand"
	"sort"
	"testing"
)

// windowModel is what a Window promises, said with a map: keys at or above
// a floor that only rises.
type windowModel struct {
	m     map[uint64]int
	floor uint64
}

func (m *windowModel) set(k uint64, v int) {
	if k >= m.floor {
		m.m[k] = v
	}
}

func (m *windowModel) advance(to uint64) {
	if to <= m.floor {
		return
	}
	m.floor = to
	for k := range m.m {
		if k < to {
			delete(m.m, k)
		}
	}
}

// checkWindow compares every observable of w with the model: Len, Each
// (the ring's share in key order, nothing twice) and Get of every key the
// model holds.
func checkWindow(t *testing.T, step int, w *Window[int], m *windowModel) {
	t.Helper()
	if w.Len() != len(m.m) {
		t.Fatalf("step %d: Len = %d, model holds %d", step, w.Len(), len(m.m))
	}
	seen := map[uint64]bool{}
	var ring []uint64
	w.Each(func(k uint64, v int) {
		if seen[k] {
			t.Fatalf("step %d: Each visited key %d twice", step, k)
		}
		seen[k] = true
		if want, ok := m.m[k]; !ok || want != v {
			t.Fatalf("step %d: Each(%d) = %d, model (%d, %v)", step, k, v, want, ok)
		}
		if _, over := w.overflow[k]; !over {
			ring = append(ring, k)
		}
	})
	if len(seen) != len(m.m) {
		t.Fatalf("step %d: Each visited %d keys, model holds %d", step, len(seen), len(m.m))
	}
	if !sort.SliceIsSorted(ring, func(i, j int) bool { return ring[i] < ring[j] }) {
		t.Fatalf("step %d: ring entries out of key order: %v", step, ring)
	}
	for k, want := range m.m {
		if v, ok := w.Get(k); !ok || v != want {
			t.Fatalf("step %d: Get(%d) = (%d, %v), want %d", step, k, v, ok, want)
		}
	}
	if len(w.slots) > windowMaxCap {
		t.Fatalf("step %d: ring grew to %d slots", step, len(w.slots))
	}
}

// TestWindowMatchesMapModel drives a Window and a map through the same
// random operations — keys handed out around a rising cursor, retired in
// rough order, with stragglers far behind the base (a backward rebase),
// keys past the capacity bound (the overflow map) and floor advances both
// inside and far past the live span — and requires identical answers
// after every step.
func TestWindowMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var w Window[int]
		m := &windowModel{m: map[uint64]int{}}
		cursor := uint64(rng.Intn(1000))
		var rebased, overflowed bool
		key := func() uint64 {
			switch r := rng.Intn(100); {
			case r < 3: // far ahead: past the capacity bound
				return cursor + windowMaxCap + uint64(rng.Intn(3*windowMaxCap))
			case r < 8: // a straggler, possibly behind the base and the floor
				return cursor - min(cursor, uint64(rng.Intn(5000)))
			default:
				return cursor - min(cursor, 150) + uint64(rng.Intn(300))
			}
		}
		for step := 0; step < 20000; step++ {
			k := key()
			switch r := rng.Intn(100); {
			case r < 40:
				v := rng.Int()
				rebased = rebased || w.live > 0 && k < w.base && k >= w.floor
				w.Set(k, v)
				overflowed = overflowed || len(w.overflow) > 0
				m.set(k, v)
			case r < 60:
				v, ok := w.Get(k)
				if want, has := m.m[k]; ok != has || v != want {
					t.Fatalf("seed %d step %d: Get(%d) = (%d, %v), model (%d, %v)", seed, step, k, v, ok, want, has)
				}
			case r < 75:
				w.Delete(k)
				delete(m.m, k)
			case r < 93:
				v, ok := w.Take(k)
				if want, has := m.m[k]; ok != has || v != want {
					t.Fatalf("seed %d step %d: Take(%d) = (%d, %v), model (%d, %v)", seed, step, k, v, ok, want, has)
				}
				delete(m.m, k)
			case r < 99:
				to := cursor - min(cursor, uint64(rng.Intn(200)))
				w.Advance(to)
				m.advance(to)
			default: // wholesale: far past everything the ring holds
				cursor += 2 * windowMaxCap
				w.Advance(cursor)
				m.advance(cursor)
			}
			cursor += uint64(rng.Intn(3))
			if step%64 == 0 {
				checkWindow(t, step, &w, m)
			}
		}
		checkWindow(t, -1, &w, m)
		if !rebased || !overflowed {
			t.Fatalf("seed %d: rebased %v, overflowed %v — the run missed a path", seed, rebased, overflowed)
		}
	}
}

// TestWindowEachToleratesMutation: fn may settle — delete — the entries
// being walked (the client's ban path does).
func TestWindowEachToleratesMutation(t *testing.T) {
	var w Window[int]
	for k := uint64(10); k < 200; k++ {
		w.Set(k, int(k))
	}
	visited := 0
	w.Each(func(k uint64, v int) {
		visited++
		w.Delete(k)
		w.Delete(k + 1)
	})
	if visited != 190 || w.Len() != 0 {
		t.Fatalf("visited %d, %d left", visited, w.Len())
	}
}
