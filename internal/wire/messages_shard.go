package wire

// ShardMap is the cluster's authoritative keyspace partition and replica
// topology at cluster start: shard i of len(Edges) is the chain whose
// initial leader is Edges[i], and Followers[i] (aligned with Edges,
// possibly empty) lists the nodes mirroring that chain's log. A key routes
// to the shard selected by the stable partitioner in internal/shard. The
// cloud signs the map so clients can verify their routing table came from
// the trusted party rather than from an edge steering traffic toward
// itself.
//
// Version identifies the partition itself (shard count and chain
// membership); Epoch is the leadership epoch the map was signed at.
// Leadership changes travel as signed LeadershipTransfers, on which
// clients rebind; the map is not re-issued.
type ShardMap struct {
	Version   uint64
	Epoch     uint64
	Edges     []NodeID
	Followers [][]NodeID // Followers[i] mirror the chain led by Edges[i]
	CloudSig  []byte
}

// MsgKind implements Message.
func (*ShardMap) MsgKind() Kind { return KindShardMap }

// EncodeTo implements Message.
func (m *ShardMap) EncodeTo(e *Encoder) {
	m.AppendBody(e)
	e.Blob(m.CloudSig)
}

// AppendBody appends the bytes the cloud signs.
func (m *ShardMap) AppendBody(e *Encoder) {
	e.U64(m.Version)
	e.U64(m.Epoch)
	e.U32(uint32(len(m.Edges)))
	for _, id := range m.Edges {
		e.ID(id)
	}
	e.U32(uint32(len(m.Followers)))
	for _, fs := range m.Followers {
		e.U32(uint32(len(fs)))
		for _, id := range fs {
			e.ID(id)
		}
	}
}

// DecodeFrom implements Message.
func (m *ShardMap) DecodeFrom(d *Decoder) {
	m.Version = d.U64()
	m.Epoch = d.U64()
	m.Edges = decodeIDs(d)
	m.Followers = decodeSlice(d, minBlobSize, func(fs *[]NodeID, d *Decoder) { *fs = decodeIDs(d) })
	m.CloudSig = d.Blob()
}
