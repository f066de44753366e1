package transport

// laneStorage reports the queue capacity, in frames, that lane i holds:
// 0 for a lane that has never queued a frame or has drained.
func (t *TCP) laneStorage(i int) int {
	ln := t.lanes[i]
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if ln.buf == nil {
		return 0
	}
	return cap(*ln.buf)
}
