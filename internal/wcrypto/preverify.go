package wcrypto

import "wedgechain/internal/wire"

// PreVerify checks the signature a message carries against the registry
// the way its receiving node does on its turn, without touching any node
// state. Structural checks (sender identity matching, digest consistency,
// freshness) are not performed, and kinds outside the switch report false.
//
// No node calls it: every handler verifies what it receives itself. It
// stays as the per-kind price of a signature check that the macro
// benchmark's layer budget times (benchmark/layers.go): it is kept only
// because benchmark/ reads it, and covers the kinds that budget names.
func PreVerify(r *Registry, env wire.Envelope) bool {
	switch m := env.Msg.(type) {
	case *wire.PutRequest:
		// Kept only because benchmark/ reads it: no node sends the kind.
		return VerifyMsg(r, m.Entry.Client, &m.Entry, m.Entry.Sig) == nil
	case *wire.PutBatch, *wire.BlockCertify:
		// Kept only because benchmark/ reads them: a batch and a certify
		// carry a pairwise MAC (VerifyMAC), which a registry of public
		// keys cannot check, so these cases always report false.
		return false
	case *wire.ReplicateBlock:
		return VerifyBlockAck(r, m.Leader, m.Block.ID, m.Block.BodyDigest(), m.LeaderSig) == nil
	default:
		return false
	}
}
