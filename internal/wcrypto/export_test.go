package wcrypto

// ForgetVerified empties r's verified-signature memo, keeping its
// storage, so a loop that checks one fixed signature times a first
// verification every iteration.
func (r *Registry) ForgetVerified() {
	r.mu.Lock()
	defer r.mu.Unlock()
	clear(r.cur)
	clear(r.prev)
}

// MemoLen reports how many verified triples r currently remembers.
func (r *Registry) MemoLen() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.cur) + len(r.prev)
}

// MemoCap is the bound MemoLen never exceeds.
const MemoCap = 2 * memoGen
