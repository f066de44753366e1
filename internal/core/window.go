package core

// Window maps monotonically assigned uint64 keys — log positions, block
// ids, entry sequence numbers, request ids — to values: the one
// position-indexed table behind the edge's submitter and proof-waiter
// tables and the client's per-op indexes. Keys are handed out in
// increasing order and retired roughly in that order, so a power-of-two
// ring indexed by (key - base) serves every lookup without hashing or
// per-entry allocation, and retired keys actually leave the structure.
//
// The ring covers [base, top); base chases the smallest live key as
// entries are deleted and moves backward when an older key is set (a
// late-delivered response may pin a block id the window has passed). One
// stuck key must not make the ring grow with the live key span, so a key
// that would stretch it past windowMaxCap lives in a small overflow map —
// the worst case degrades to a map, never beyond it.
//
// Advance retires every key below a floor for good: they are dropped, and
// a later Set below the floor is ignored. The zero value is an empty
// window with floor 0.
type Window[T any] struct {
	floor    uint64 // keys below are dead
	base     uint64 // key of slots[head]
	top      uint64 // one past the highest used key while live > 0
	head     int    // ring index of base
	live     int    // used slots
	slots    []windowSlot[T]
	overflow map[uint64]T // keys outside the bounded ring
}

type windowSlot[T any] struct {
	val  T
	used bool
}

const (
	windowMinCap = 64
	// windowMaxCap bounds the ring's span (slots are a couple dozen bytes;
	// 1<<16 keeps the worst-case ring around a megabyte).
	windowMaxCap = 1 << 16
)

func (w *Window[T]) slot(k uint64) *windowSlot[T] {
	return &w.slots[(w.head+int(k-w.base))&(len(w.slots)-1)]
}

// inRing reports whether k falls inside the ring's current span.
func (w *Window[T]) inRing(k uint64) bool {
	return w.live > 0 && k >= w.base && k-w.base < uint64(len(w.slots))
}

// Len returns the number of live entries.
func (w *Window[T]) Len() int { return w.live + len(w.overflow) }

// Get returns the value stored at k.
func (w *Window[T]) Get(k uint64) (T, bool) {
	if w.inRing(k) {
		if s := w.slot(k); s.used {
			return s.val, true
		}
	}
	v, ok := w.overflow[k]
	return v, ok
}

// Set stores v at k, growing the ring or moving its base backward as
// needed. Keys below the floor are ignored.
func (w *Window[T]) Set(k uint64, v T) {
	if k < w.floor {
		return
	}
	if _, ok := w.overflow[k]; ok {
		w.overflow[k] = v // update in place; never duplicate a key
		return
	}
	if len(w.slots) == 0 {
		w.slots = make([]windowSlot[T], windowMinCap)
	}
	switch {
	case w.live == 0:
		// Empty ring: restart it wherever k lands.
		w.base, w.top, w.head = k, k, 0
	case k < w.base:
		if w.top-k > windowMaxCap {
			w.setOverflow(k, v)
			return
		}
		// The slots behind the old base are unused by construction, so
		// only capacity needs checking.
		if span := w.top - k; span > uint64(len(w.slots)) {
			w.grow(span)
		}
		w.head = (w.head - int(w.base-k)) & (len(w.slots) - 1)
		w.base = k
	case k-w.base >= uint64(len(w.slots)):
		if k-w.base >= windowMaxCap {
			w.setOverflow(k, v)
			return
		}
		w.grow(k - w.base + 1)
	}
	if k >= w.top {
		w.top = k + 1
	}
	s := w.slot(k)
	if !s.used {
		w.live++
	}
	s.val, s.used = v, true
}

func (w *Window[T]) setOverflow(k uint64, v T) {
	if w.overflow == nil {
		w.overflow = make(map[uint64]T)
	}
	w.overflow[k] = v
}

// Delete clears k and lets the base chase the remaining live prefix.
func (w *Window[T]) Delete(k uint64) {
	if _, ok := w.overflow[k]; ok {
		delete(w.overflow, k)
		return
	}
	if !w.inRing(k) {
		return
	}
	s := w.slot(k)
	if !s.used {
		return
	}
	*s = windowSlot[T]{}
	w.live--
	w.chase()
}

// chase moves the base up to the smallest live key; an empty ring is
// restarted by the next Set.
func (w *Window[T]) chase() {
	for w.live > 0 && !w.slots[w.head].used {
		w.head = (w.head + 1) & (len(w.slots) - 1)
		w.base++
	}
}

// Take returns and clears the value stored at k.
func (w *Window[T]) Take(k uint64) (T, bool) {
	v, ok := w.Get(k)
	if ok {
		w.Delete(k)
	}
	return v, ok
}

// Advance raises the floor to to: every key below it is dropped and can
// never be set again. The floor never moves down.
func (w *Window[T]) Advance(to uint64) {
	if to <= w.floor {
		return
	}
	w.floor = to
	for k := range w.overflow {
		if k < to {
			delete(w.overflow, k)
		}
	}
	for w.live > 0 && w.base < to {
		if s := &w.slots[w.head]; s.used {
			*s = windowSlot[T]{}
			w.live--
		}
		w.head = (w.head + 1) & (len(w.slots) - 1)
		w.base++
	}
	w.chase()
}

// Each calls fn for every live entry — ring entries in key order, then
// any overflow entries (unordered; callers iterate for effect, not
// order). The set is snapshotted first, so fn may Get, Set or Delete
// freely.
func (w *Window[T]) Each(fn func(k uint64, v T)) {
	if w.Len() == 0 {
		return
	}
	type kv struct {
		k uint64
		v T
	}
	snap := make([]kv, 0, w.Len())
	if w.live > 0 {
		for k := w.base; k < w.top; k++ {
			if s := w.slot(k); s.used {
				snap = append(snap, kv{k, s.val})
			}
		}
	}
	for k, v := range w.overflow {
		snap = append(snap, kv{k, v})
	}
	for _, e := range snap {
		fn(e.k, e.v)
	}
}

// grow resizes the ring to hold at least need keys, unwrapping the live
// span to the front of the new slice.
func (w *Window[T]) grow(need uint64) {
	newCap := windowMinCap
	for uint64(newCap) < need {
		newCap <<= 1
	}
	slots := make([]windowSlot[T], newCap)
	for i := range w.slots {
		slots[i] = w.slots[(w.head+i)&(len(w.slots)-1)]
	}
	w.slots = slots
	w.head = 0
}
