package edge

// StoreSyncs reports the fsyncs issued by the persistent store (0 for
// in-memory nodes) — the denominator of group-commit amortization.
func (n *Node) StoreSyncs() uint64 {
	if n.store == nil {
		return 0
	}
	return n.store.Syncs()
}
