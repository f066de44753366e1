// Package edge implements the WedgeChain edge node: the untrusted,
// potentially byzantine server that ingests client writes, cuts log blocks,
// answers reads and key-value gets with proofs, and coordinates lazily with
// the trusted cloud (Sections IV and V of the paper).
//
// The node is a deterministic state machine (core.Handler): all I/O happens
// through Receive and Tick, so the same code runs under the discrete-event
// simulator and over TCP.
//
// Byzantine behaviour is injected through the Fault hooks — the honest code
// path never lies, but tests and examples use faults to demonstrate that
// every lie the paper considers is eventually detected and punished.
package edge

import (
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"math"
	"slices"
	"time"

	"wedgechain/internal/core"
	"wedgechain/internal/mlsm"
	"wedgechain/internal/obs"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
	"wedgechain/internal/wlog"
)

// Node implements core.Handler so all transports can drive it.
var _ core.Handler = (*Node)(nil)

// Config parameterizes an edge node.
type Config struct {
	// ID is this node's identity; Cloud the trusted cloud's.
	ID    wire.NodeID
	Cloud wire.NodeID
	// Chain is the shard's stable chain identity — the NodeID that blocks,
	// certificates, gossip and signed roots are keyed by, surviving
	// leadership transfers. Defaults to ID (the legacy single-node shard,
	// where node and chain coincide). In a replica group every member
	// shares the chain while keeping its own node identity and key.
	Chain wire.NodeID
	// Followers is the initial view of a node that starts as the chain's
	// leader: the replica nodes mirroring its log. The cloud's signed views
	// replace it as the group changes.
	Followers []wire.NodeID
	// Follower starts the node as a mirroring follower of Chain: it
	// installs replicated blocks, audits their digests against cloud
	// certificates, heartbeats the cloud, and serves no client traffic
	// until a signed view (LeadershipTransfer) promotes it.
	Follower bool
	// HeartbeatEvery is the replica-liveness heartbeat period in
	// nanoseconds. 0 = the layer default in a replica group (Follower set
	// or Followers non-empty), and no heartbeat outside one.
	HeartbeatEvery int64
	// MaxUncertified sheds client writes while more than this many cut
	// blocks await certification — explicit backpressure instead of an
	// unbounded uncertified backlog when the cloud link degrades. 0
	// disables shedding.
	MaxUncertified int
	// BatchSize is the entries per block (the paper's batch size B); 0 =
	// the layer default.
	BatchSize int
	// FlushEvery force-cuts a partial block after this many idle
	// nanoseconds. 0 = the layer default; negative disables flushing.
	FlushEvery int64
	// L0Threshold is the number of certified, uncompacted blocks that
	// triggers an L0 -> L1 merge (the paper's level-0 page threshold);
	// 0 = the layer default.
	L0Threshold int
	// LevelThresholds are the page budgets of levels 1..n; empty = the
	// layer default.
	LevelThresholds []int
	// FullDataCert ships full block bodies with certification requests
	// instead of digests only — the ablation disabling the paper's
	// data-free coordination (used to quantify its savings).
	FullDataCert bool
	// SyncEvery is the group-commit window of a persistent node: it syncs
	// at most once per window, counted from the return of the last
	// successful sync. A block cut when that sync is at least SyncEvery
	// old (or none has run yet) is synced and released in the turn that
	// cut it, by one sync at the end of that turn; blocks cut sooner share
	// the sync that ends the first turn past the window. A block's Phase I
	// acknowledgements, replication and certification request are
	// withheld until a sync covers it, so nothing is acknowledged before
	// it is durable. 0 (or negative) is a zero window: each block's sync
	// runs in the turn that cut it.
	SyncEvery int64
	// CertBatch is read by nothing: every cut block is certified by its
	// own BlockCertify. The field remains only because the macro
	// benchmark's harness still sets it.
	CertBatch int
	// Fault, when non-nil, makes the node byzantine. See Fault.
	Fault *Fault
	// Logger receives operational events; nil disables logging.
	Logger *slog.Logger
	// Metrics is the registry this node's series live in (shared by a
	// process or a sim world); nil keeps them on a private registry.
	Metrics *obs.Registry
}

// reserveTTL bounds how long a reserved log position stays open (ns).
const reserveTTL = int64(5e9)

// Healing periods (ns), the same on every node (tickHealing), and the wait
// an Overloaded signal asks of a shed client.
const (
	stallPeriod  = int64(1e9) // a stuck certified frontier re-certifies; an idle merge's first wait
	catchUpEvery = int64(5e8) // a follower asks for a replication gap at most this often
	retryAfter   = int64(1e8)
)

// fill replaces every zero knob with the layer default. It is the one
// place those defaults are written, and it is idempotent: a negative
// value (a mechanism turned off) passes through untouched.
func (c *Config) fill() {
	if c.Chain == "" {
		c.Chain = c.ID
	}
	if c.HeartbeatEvery == 0 && (c.Follower || len(c.Followers) > 0) {
		c.HeartbeatEvery = int64(2e8)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 100
	}
	if c.FlushEvery == 0 {
		c.FlushEvery = int64(1e8)
	}
	if c.L0Threshold <= 0 {
		c.L0Threshold = 10
	}
	if len(c.LevelThresholds) == 0 {
		c.LevelThresholds = []int{10, 100, 1000}
	}
}

// Defaults returns a zero Config with every knob at its layer default:
// the values a binary's flags start from. The heartbeat, which runs only
// in replica groups, stays 0 here, which New reads as its group default.
func Defaults() (c Config) {
	c.fill()
	return c
}

// Validate rejects configurations that would misbehave silently at
// runtime. It checks the raw (pre-fill) values, so explicit nonsense
// fails loudly while zero values keep their documented defaults.
func (c *Config) Validate() error {
	if c.ID == "" {
		return fmt.Errorf("edge: config: ID must be set")
	}
	if c.Follower && c.ID == c.Chain && c.Chain != "" {
		return fmt.Errorf("edge: config: follower %q cannot follow its own chain identity", c.ID)
	}
	for _, f := range c.Followers {
		if f == c.ID {
			return fmt.Errorf("edge: config: node %q lists itself as a follower", c.ID)
		}
	}
	if c.Follower && len(c.Followers) > 0 {
		return fmt.Errorf("edge: config: a follower cannot have followers of its own")
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("edge: config: BatchSize must be >= 0, got %d", c.BatchSize)
	}
	if c.HeartbeatEvery < 0 {
		return fmt.Errorf("edge: config: HeartbeatEvery must be >= 0, got %d", c.HeartbeatEvery)
	}
	if c.MaxUncertified < 0 {
		return fmt.Errorf("edge: config: MaxUncertified must be >= 0, got %d", c.MaxUncertified)
	}
	return nil
}

// Node is an edge node state machine. Not safe for concurrent use; the
// transport serializes calls.
type Node struct {
	cfg Config
	key wcrypto.KeyPair
	reg *wcrypto.Registry
	log *wlog.Log
	idx *mlsm.Index

	l0From      uint64 // first uncompacted block id
	nextReq     uint64
	lastArrival int64
	store       *wlog.Store // nil = in-memory only

	// lastSync is when the last successful group-commit sync returned
	// (noSync: none yet), and turnStart the wall-clock start of the current
	// turn, which dates that return in the turn's time.
	lastSync  int64
	turnStart time.Time

	// Role state: exactly one of lead and follow is set, for the role the
	// node holds under the view of epoch epoch. Adopting a view is the one
	// place they change (adoptView). killed simulates a crashed process
	// (the node answers nothing).
	lead   *leaderRole
	follow *followerRole
	epoch  uint64
	killed bool
	lastHB int64

	// Log-history state, which outlives a role. replSigs holds the
	// leader's replication signature per mirrored, uncertified block — the
	// convicting evidence if the mirrored digest ever contradicts the
	// cloud's certificate. poisoned marks mirrored blocks whose digest a
	// cloud certificate contradicted (the leader equivocated on the
	// replication stream): their honest content is unrecoverable here, so
	// a promoted successor must never re-certify or vouch for them.
	replSigs map[uint64][]byte
	poisoned map[uint64]bool

	// accused tracks block ids this follower has already filed a
	// conviction dispute for. Certificates and replicated duplicates can
	// be redelivered indefinitely (gossip, leader retries); re-filing on
	// each redelivery would flood the cloud with identical evidence.
	accused map[uint64]bool

	lastShedLog int64

	// lastOverload rate-limits the signed Overloaded shed signal per
	// client: a shed batch triggers one signature, not one per entry.
	// Keyed by registered client identity, so growth is bounded by the
	// registry; cleared wholesale if it ever exceeds overloadMapCap.
	lastOverload map[wire.NodeID]int64

	// m holds the registry-backed counters and histograms; Stats() is a
	// snapshot of its counters.
	m *metrics
}

// Stats is a point-in-time snapshot of the node's operational
// counters, read atomically from the metrics registry — safe to call
// from any goroutine while the node runs.
type Stats struct {
	Writes       uint64
	BlocksCut    uint64
	Certified    uint64
	Reads        uint64
	Gets         uint64
	Scans        uint64
	Merges       uint64
	BytesToCloud uint64
	// Robustness counters: writes shed by the MaxUncertified
	// backpressure cap, stall-gated certification retries, and catch-up
	// requests issued while recovering a replication gap.
	Shed        uint64
	CertRetries uint64
	CatchUps    uint64
	// ShedSignals counts signed Overloaded messages sent to clients —
	// at most one per client per retry-after window, however many
	// entries were shed behind it.
	ShedSignals uint64
	// Truncated counts blocks discarded from the uncertified tail on
	// demotion — divergent or abandoned history replaced by catch-up.
	Truncated uint64
}

// New constructs an in-memory edge node with the given key and registry.
func New(cfg Config, key wcrypto.KeyPair, reg *wcrypto.Registry) *Node {
	cfg.fill()
	return newNode(cfg, key, reg, wlog.New(cfg.Chain, cfg.BatchSize), nil)
}

// NewPersistent constructs an edge node whose log is durably stored under
// dataDir, recovering any previously committed blocks and certificates.
// Recovered state is verified (digests recomputed, certificate signatures
// checked), so a tampered store fails loudly instead of serving divergent
// history. The LSMerkle levels are not persisted: they are rederivable
// from the log via the cloud's merge service, matching the paper's model
// where the cloud is the index's authority.
func NewPersistent(cfg Config, key wcrypto.KeyPair, reg *wcrypto.Registry, dataDir string, durable bool) (*Node, int, error) {
	cfg.fill()
	log, store, blocks, _, err := wlog.Recover(dataDir, cfg.Chain, cfg.BatchSize, reg, cfg.Cloud)
	if err != nil {
		return nil, 0, err
	}
	return newNode(cfg, key, reg, log, store), blocks, nil
}

// newNode builds a node on log (and store, when durable) in the role its
// config names: the initial view.
func newNode(cfg Config, key wcrypto.KeyPair, reg *wcrypto.Registry, log *wlog.Log, store *wlog.Store) *Node {
	n := &Node{
		cfg:      cfg,
		key:      key,
		reg:      reg,
		idx:      mlsm.NewIndex(cfg.LevelThresholds),
		store:    store,
		lastSync: noSync,
		m:        newMetrics(cfg.Metrics, string(cfg.ID)),
	}
	n.setLog(log)
	if cfg.Follower {
		n.follow = newFollowerRole(cfg.Chain, nil)
	} else {
		n.lead = newLeaderRole(cfg.ID, cfg.Followers, log)
	}
	return n
}

// setLog makes l the node's log and points its metrics at the node's.
func (n *Node) setLog(l *wlog.Log) {
	n.log = l
	l.Instrument(n.m.segmentReads, n.m.residentLog)
}

// CloseStore flushes and closes the persistent store, if any. A final
// group-commit sync covers records still inside the flush window.
func (n *Node) CloseStore() error {
	if n.store == nil {
		return nil
	}
	if err := n.store.Sync(); err != nil {
		n.store.Close()
		return err
	}
	return n.store.Close()
}

// ID implements core.Handler.
func (n *Node) ID() wire.NodeID { return n.cfg.ID }

// Log exposes the underlying log for tests and local measurement.
func (n *Node) Log() *wlog.Log { return n.log }

// Index exposes the LSMerkle index for tests and local measurement.
func (n *Node) Index() *mlsm.Index { return n.idx }

// Stats returns a consistent-enough snapshot of the node's counters.
// Each field is an atomic load, so polling mid-run from another
// goroutine (benches, scrapers) is race-free.
func (n *Node) Stats() Stats {
	return Stats{
		Writes:       n.m.writes.Value(),
		BlocksCut:    n.m.blocksCut.Value(),
		Certified:    n.m.certified.Value(),
		Reads:        n.m.reads.Value(),
		Gets:         n.m.gets.Value(),
		Scans:        n.m.scans.Value(),
		Merges:       n.m.merges.Value(),
		BytesToCloud: n.m.bytesToCloud.Value(),
		Shed:         n.m.shed.Value(),
		CertRetries:  n.m.certRetries.Value(),
		CatchUps:     n.m.catchUps.Value(),
		ShedSignals:  n.m.shedSignals.Value(),
		Truncated:    n.m.truncated.Value(),
	}
}

// L0From returns the first uncompacted block id.
func (n *Node) L0From() uint64 { return n.l0From }

// SetL0Threshold changes the L0 merge trigger at runtime — a bench/test
// hook (the E1 evidence experiment compacts a preload with a normal
// threshold, then raises it so a controlled uncompacted window can
// accumulate). Must be called on the node's transport goroutine.
func (n *Node) SetL0Threshold(v int) {
	if v > 0 {
		n.cfg.L0Threshold = v
	}
}

func (n *Node) logf(msg string, args ...any) {
	if n.cfg.Logger != nil {
		n.cfg.Logger.Info(msg, args...)
	}
}

// Receive implements core.Handler. Every handler checks the signatures of
// what it receives itself, on the node's own turn.
func (n *Node) Receive(now int64, env wire.Envelope) []wire.Envelope {
	if n.killed {
		return nil
	}
	n.turnStart = time.Now()
	return n.endTurn(now, n.receive(now, env))
}

// receive dispatches env to its handler.
func (n *Node) receive(now int64, env wire.Envelope) []wire.Envelope {
	switch env.Msg.(type) {
	case *wire.PutBatch, *wire.ReadRequest, *wire.ScanRequest, *wire.ReserveRequest:
		if n.follow != nil {
			return n.announceLeader(env)
		}
	}
	switch m := env.Msg.(type) {
	case *wire.PutBatch:
		// The one write message, and its one admission rule. The batch
		// author must BE the sender: entries are accepted on the batch MAC
		// alone, so binding m.Client to the envelope sender (plus the
		// per-entry e.Client == from check in handleWrite) is what stops a
		// registered client from forging writes attributed to another
		// identity.
		if m.Client != env.From {
			n.logf("rejecting batch authored by a different identity", "from", env.From, "author", m.Client)
			return nil
		}
		// The MAC is under the key m.Client shares with this node: a batch
		// MACed for another edge, signed instead of MACed, or without a MAC
		// fails here, and entry signatures admit nothing.
		if err := wcrypto.VerifyMAC(n.reg, n.key, m.Client, n.cfg.ID, m, m.MAC); err != nil {
			n.logf("rejecting batch with bad MAC", "client", env.From, "err", err)
			return nil
		}
		var out []wire.Envelope
		for i := range m.Entries {
			out = append(out, n.handleWrite(now, env.From, m.Entries[i])...)
		}
		return out
	case *wire.ReadRequest:
		t0 := time.Now()
		out := n.handleRead(now, env.From, m)
		n.m.serveRead.Observe(time.Since(t0).Seconds())
		return out
	case *wire.ScanRequest:
		// A point range is a get, and counts as one.
		count, serve := n.m.scans, n.m.serveScan
		if wire.IsPointRange(m.Start, m.End) {
			count, serve = n.m.gets, n.m.serveGet
		}
		count.Inc()
		t0 := time.Now()
		out := n.handleScan(now, env.From, m)
		serve.Observe(time.Since(t0).Seconds())
		return out
	case *wire.ReserveRequest:
		return n.handleReserve(now, env.From, m)
	case *wire.BlockProof:
		return n.handleProof(now, env.From, m)
	case *wire.MergeResponse:
		return n.handleMergeResponse(now, env.From, m)
	case *wire.ReplicateBlock:
		return n.handleReplicate(now, env.From, m)
	case *wire.LeadershipTransfer:
		return n.adoptView(now, env.From, m)
	case *wire.CatchUpRequest:
		return n.handleCatchUpRequest(now, env.From, m)
	case *wire.Gossip:
		// Client-facing freshness gossip; a follower additionally reads
		// it as a trusted statement of the chain's certified frontier and
		// starts catching up when its mirror has fallen behind.
		return n.handleGossip(now, env.From, m)
	default:
		return nil
	}
}

// Tick implements core.Handler: flush partial blocks that have waited
// past FlushEvery, release group-commit acknowledgements whose sync
// window elapsed, and send the certificate pushes queued in earlier turns.
func (n *Node) Tick(now int64) []wire.Envelope {
	if n.killed {
		return nil
	}
	n.turnStart = time.Now()
	var out []wire.Envelope
	if n.cfg.FlushEvery > 0 && n.log.BufferLen() > 0 && now-n.lastArrival >= n.cfg.FlushEvery {
		if blk := n.log.TryCut(now, true); blk != nil {
			out = append(out, n.emitBlock(now, blk)...)
		}
	}
	if n.cfg.HeartbeatEvery > 0 && now-n.lastHB >= n.cfg.HeartbeatEvery {
		n.lastHB = now
		out = append(out, n.heartbeat(now))
	}
	return n.endTurn(now, append(out, n.tickHealing(now)...))
}

// tickHealing runs the self-healing timers: the leader's stall-gated
// certification retry and idle-link merge retry, and the follower's
// gap-driven catch-up.
func (n *Node) tickHealing(now int64) []wire.Envelope {
	var out []wire.Envelope
	if f := n.follow; f != nil {
		if f.leader != "" && (len(f.pendingRepl) > 0 || len(f.pendingCerts) > 0) &&
			now-f.lastCatchUp >= catchUpEvery {
			out = append(out, n.requestCatchUp(now, n.log.NumBlocks()))
		}
		return out
	}
	l := n.lead
	if n.cfg.Fault == nil || !n.cfg.Fault.DropCertify {
		var frontier uint64
		if ct, ok := n.log.CertifiedThrough(); ok {
			frontier = ct + 1
		}
		if frontier >= n.log.NumBlocks() || frontier != l.lastCertFrontier {
			// No backlog, or the frontier moved: (re)arm the stall timer.
			l.lastCertFrontier = frontier
			l.certStallSince = now
		} else if now-l.certStallSince >= stallPeriod {
			// The backlog is stuck: the certify request or its proof was
			// lost. Re-submit the whole uncertified tail — the cloud
			// answers already-certified digests with the cached proof, so
			// duplicates heal lost proofs instead of causing conflicts.
			l.certStallSince = now
			if retry := n.certifyTail(now); len(retry) > 0 {
				n.m.certRetries.Inc()
				n.logf("certification stalled; retrying uncertified tail",
					"frontier", frontier, "blocks", n.log.NumBlocks())
				out = append(out, retry...)
			}
		}
	}
	if l.merging != nil {
		if n.log.CertifiedBlocks() < n.log.NumBlocks() {
			// A cut block awaits its certificate: a proof may yet bring the
			// evidence of loss (handleProof), so the idle wait restarts.
			l.mergeQuiet = now
		} else if now-l.mergeQuiet >= l.mergeWait {
			// No proof can show the loss. Doubling the wait re-sends a merge
			// slower than it to cross the link a few times, not every period.
			l.mergeWait *= 2
			out = append(out, n.sendMerge(now, "merge unanswered on an idle link; re-sending request"))
		}
	}
	return out
}

// handleWrite appends one entry of a batch whose MAC receive has
// checked — a put, or a log add when it has no key (the index skips keyless
// entries; the log treats both alike). Entries attributed to another client
// and invalid or replayed entries are dropped (the client's timeout
// machinery owns retries, mirroring the paper's idempotence discussion).
func (n *Node) handleWrite(now int64, from wire.NodeID, e wire.Entry) []wire.Envelope {
	if e.Client != from {
		return nil
	}
	if n.cfg.MaxUncertified > 0 {
		var frontier uint64
		if ct, ok := n.log.CertifiedThrough(); ok {
			frontier = ct + 1
		}
		if n.log.NumBlocks()-frontier >= uint64(n.cfg.MaxUncertified) {
			// Backpressure: the uncertified backlog says the cloud link is
			// degraded. Shedding (not buffering) keeps the Phase I promise
			// honest — nothing is acknowledged that certification cannot
			// chase — and the client's retry/ErrUnavailable machinery turns
			// the silence into a typed, bounded failure.
			n.m.shed.Inc()
			if now-n.lastShedLog >= int64(1e9) {
				n.lastShedLog = now
				n.logf("shedding writes: uncertified backlog at cap",
					"backlog", n.log.NumBlocks()-frontier, "cap", n.cfg.MaxUncertified, "shed", n.m.shed.Value())
			}
			return n.shedSignal(now, from, e.Seq, n.log.NumBlocks()-frontier)
		}
	}
	pos, err := n.log.Append(e, now)
	if err != nil {
		if errors.Is(err, wlog.ErrDuplicateEntry) {
			// Post-failover resend (or a plain client retry): the entry is
			// already in the log — committed by this node or inherited from
			// the previous leader — so re-acknowledge from the block that
			// holds it instead of leaving the client to time out.
			return n.reackDuplicate(from, e)
		}
		n.logf("rejecting write", "client", from, "err", err)
		return nil
	}
	n.m.writes.Inc()
	n.lastArrival = now
	n.lead.reqs.Set(pos, e.Client)
	blk := n.log.TryCut(now, false)
	if blk == nil {
		return nil
	}
	return n.emitBlock(now, blk)
}

// overloadMapCap bounds the per-client shed rate-limit map; exceeding it
// clears the map wholesale (the cost is one extra signal per client).
const overloadMapCap = 4096

// shedSignal turns a silent write drop into an explicit, signed admission
// signal: the client learns which operation was shed (Seq echo), how deep
// the uncertified backlog is, and when certification progress should
// reopen admission, and paces its retries by the hint instead of probing
// blind. At most one signal is signed per client per retry-after window —
// a shed 1000-entry batch costs one signature — and the client applies the
// backoff to every write it has in flight here, so per-entry signals would
// be redundant.
func (n *Node) shedSignal(now int64, client wire.NodeID, seq, backlog uint64) []wire.Envelope {
	if n.lastOverload == nil {
		n.lastOverload = make(map[wire.NodeID]int64)
	} else if len(n.lastOverload) > overloadMapCap {
		n.lastOverload = make(map[wire.NodeID]int64)
	}
	if last, ok := n.lastOverload[client]; ok && now-last < retryAfter {
		return nil
	}
	n.lastOverload[client] = now
	n.m.shedSignals.Inc()
	m := &wire.Overloaded{Seq: seq, RetryAfter: retryAfter, Backlog: backlog}
	m.EdgeSig = wcrypto.SignMsg(n.key, m)
	return []wire.Envelope{{From: n.cfg.ID, To: client, Msg: m}}
}

// emitBlock persists a freshly cut block and produces its Phase I
// responses plus the data-free certification request. A persistent node
// withholds the outputs until a group-commit fsync covers the block: the
// one that ends this turn when the window has elapsed, else the one that
// ends the first turn past it (endTurn). Nothing reaches a client, a
// follower or the cloud before durability.
func (n *Node) emitBlock(now int64, blk *wire.Block) []wire.Envelope {
	n.m.blocksCut.Inc()
	n.m.markCut(blk.ID, now, len(blk.Entries))
	if f := n.cfg.Fault; f != nil && f.KillMidBatch && blk.ID >= f.KillAtBID {
		// Crash fault: the block was cut but the node dies before
		// persisting, acknowledging, replicating or certifying it.
		n.killed = true
		return nil
	}
	if n.store == nil {
		return n.blockOutputs(now, blk)
	}
	if err := n.store.AppendBlockBuffered(blk); err != nil {
		// Durability failed: acknowledge nothing. Clients' timeout
		// machinery owns retries; an unacknowledged block is safe.
		n.logf("persist failed; withholding acknowledgements", "bid", blk.ID, "err", err)
		return nil
	}
	n.lead.pendingAcks = append(n.lead.pendingAcks, n.blockOutputs(now, blk)...)
	n.lead.heldCuts = append(n.lead.heldCuts, now)
	return nil
}

// noSync is lastSync before a node's first successful group-commit sync.
const noSync = math.MinInt64

// syncDue reports whether a group-commit sync may run at now: the window
// since the last successful sync returned has elapsed, or none has run.
func (n *Node) syncDue(now int64) bool {
	return n.cfg.SyncEvery <= 0 || n.lastSync == noSync || now-n.lastSync >= n.cfg.SyncEvery
}

// endTurn ends a turn: when outputs are withheld and the group-commit
// window has elapsed, it syncs and puts them ahead of the turn's own out.
// The certificate pushes queued in the previous turn follow out, and this
// turn's wait for the next, so a reader's check of a certificate never
// contends with its writers' own. A node that died in this turn releases
// nothing more.
func (n *Node) endTurn(now int64, out []wire.Envelope) []wire.Envelope {
	l := n.lead
	if n.killed || l == nil {
		return out
	}
	if len(l.pendingAcks)+len(l.heldCuts) > 0 && n.syncDue(now) {
		out = append(n.flushPending(now), out...)
	}
	for _, cp := range l.duePushes {
		out = n.pushCert(out, cp)
	}
	l.duePushes, l.pushes = l.pushes, nil
	return out
}

// flushPending issues the shared group-commit fsync and releases every
// output it covers. On sync failure the outputs are dropped — exactly the
// per-block failure semantics, batched — and no window starts. The next
// window starts when the fsync returns, dated as now plus the wall time
// the turn has taken: a window no longer than a turn and its fsync would
// otherwise have elapsed before the next turn begins, giving every block
// of a burst an fsync of its own.
func (n *Node) flushPending(now int64) []wire.Envelope {
	l := n.lead
	out := l.pendingAcks
	l.pendingAcks = nil
	if err := n.store.Sync(); err != nil {
		n.logf("group-commit sync failed; withholding acknowledgements", "err", err)
		l.heldCuts = l.heldCuts[:0]
		return nil
	}
	n.lastSync = now + time.Since(n.turnStart).Nanoseconds()
	for _, at := range l.heldCuts {
		n.m.ackHold.Observe(float64(now-at) / 1e9)
	}
	l.heldCuts = l.heldCuts[:0]
	return out
}

// blockOutputs builds the Phase I responses and certification request for
// a cut (and persisted) block.
func (n *Node) blockOutputs(now int64, blk *wire.Block) []wire.Envelope {
	// One response per client. Distinct clients are few (bounded by the
	// active sessions), so a linear scan dedups without a per-cut map.
	responders := make([]wire.NodeID, 0, 8)
	for i := range blk.Entries {
		client, ok := n.lead.reqs.Take(blk.StartPos + uint64(i))
		if ok && !slices.Contains(responders, client) { // !ok: reservation no-op
			responders = append(responders, client)
		}
	}
	// Positions whose acknowledgements were dropped (a block whose persist
	// failed) must not leak into later blocks.
	n.lead.reqs.Advance(blk.StartPos + uint64(len(blk.Entries)))
	n.lead.waiters.Set(blk.ID, responders)

	digest, err := n.log.Digest(blk.ID)
	if err != nil {
		panic(fmt.Sprintf("edge: freshly cut block has no digest: %v", err))
	}

	// Amortized, size-independent signing: the honest path signs the
	// 44-byte acknowledgement body (BID + block digest) once — over the
	// digest already cached at block cut — and every responder carries the
	// same signature regardless of block size. Faulty nodes tamper per
	// victim and therefore sign per responder (the generic path recomputes
	// the tampered digest).
	var sharedSig []byte
	if n.cfg.Fault == nil && len(responders) > 0 {
		sharedSig = wcrypto.SignBlockAck(n.key, blk.ID, digest)
	}

	var out []wire.Envelope
	for _, client := range responders {
		resp := &wire.PutResponse{BID: blk.ID, Block: *blk, EdgeSig: sharedSig}
		if n.cfg.Fault != nil {
			resp.Block = n.cfg.Fault.maybeTamperAdd(client, resp.Block)
			resp.EdgeSig = wcrypto.SignMsg(n.key, resp)
		}
		out = append(out, wire.Envelope{From: n.cfg.ID, To: client, Msg: resp})
	}

	// Replica-group mirroring: every cut block streams to the followers,
	// signed with the same size-independent block-ack body the client
	// acknowledgements carry — so the stream doubles as convicting
	// evidence if this leader ever equivocates.
	out = append(out, n.replicate(blk, digest, sharedSig)...)

	// Data-free certification: only the digest travels to the cloud.
	if n.cfg.Fault == nil || !n.cfg.Fault.DropCertify {
		cert := &wire.BlockCertify{Edge: n.cfg.Chain, BID: blk.ID, Digest: digest}
		if n.cfg.FullDataCert {
			cert.Body = blk.Canonical()
		}
		cert.EdgeSig = wcrypto.SignMsg(n.key, cert)
		env := wire.Envelope{From: n.cfg.ID, To: n.cfg.Cloud, Msg: cert}
		n.m.bytesToCloud.Add(uint64(wire.EncodedSize(env)))
		out = append(out, env)
		if n.cfg.Fault != nil && n.cfg.Fault.DoubleCertify {
			// Equivocation at certify time: a second, conflicting digest.
			forged := &wire.BlockCertify{Edge: n.cfg.Chain, BID: blk.ID, Digest: wcrypto.Digest(digest)}
			forged.EdgeSig = wcrypto.SignMsg(n.key, forged)
			out = append(out, wire.Envelope{From: n.cfg.ID, To: n.cfg.Cloud, Msg: forged})
		}
	}
	return out
}

// handleProof installs the cloud's block-proof (Phase II) and forwards it
// to every client that contributed to or read the block. A proof that
// leaves no cut block uncertified is also queued for the leader's readers
// (pushCert): with a backlog, writes are waiting on the cloud, the
// pushed checks would compete with them for the processor, and a push
// only moves a check that a later read would make anyway.
func (n *Node) handleProof(now int64, from wire.NodeID, p *wire.BlockProof) []wire.Envelope {
	if from != n.cfg.Cloud {
		return nil
	}
	if err := wcrypto.VerifyMsg(n.reg, n.cfg.Cloud, p, p.CloudSig); err != nil {
		n.logf("dropping block-proof with bad cloud signature", "err", err)
		return nil
	}
	if n.follow != nil {
		// Follower path: the certificate audits the mirrored log instead of
		// upgrading acknowledged blocks — a digest mismatch convicts the
		// leader with its own replication stream.
		return n.followerApplyCert(*p)
	}
	fresh, err := n.log.SetCert(*p)
	if err != nil {
		n.logf("block-proof does not match local block", "bid", p.BID, "err", err)
		return nil
	}
	if !fresh {
		// A second proof (a re-sent certify's answer): the first one
		// counted, stored and delivered the certificate already.
		return nil
	}
	if n.store != nil {
		// Certificates are re-obtainable from the cloud, so they ride the
		// next shared sync instead of forcing one.
		if err := n.store.AppendCertBuffered(p); err != nil {
			n.logf("persisting certificate failed", "bid", p.BID, "err", err)
		}
	}
	n.m.certified.Inc()
	n.m.markCertified(p.BID, now)
	var out []wire.Envelope
	if n.lead.merging != nil && p.BID >= n.lead.mergeCut {
		// The cloud answers a link's frames in order, and this block's
		// certify left after the merge request: the request or its answer
		// was lost.
		out = append(out, n.sendMerge(now, "merge answer overtaken by a later proof; re-sending request"))
	}
	waiting, _ := n.lead.waiters.Take(p.BID)
	for _, c := range waiting {
		out = append(out, wire.Envelope{From: n.cfg.ID, To: c, Msg: cloneProof(p)})
	}
	if n.log.CertifiedBlocks() == n.log.NumBlocks() {
		n.lead.pushes = append(n.lead.pushes, certPush{cloneProof(p), waiting})
	}
	// The table's floor chases the certified frontier, so its live window
	// stays as small as the uncertified suffix.
	n.lead.waiters.Advance(n.CertifiedBlocks())
	out = append(out, n.maybeStartMerge(now)...)
	return out
}

// pushCert appends to out a copy of a certificate queued in the previous
// turn for every reader that can still cite it and has not checked it: not
// one of its waiters, and not one whose last answer carried it. A block
// the L0 merge in flight ships goes to nobody: it leaves the window when
// the merge installs, within a cloud round trip. Readers are served in
// name order, so a simulated run stays deterministic.
func (n *Node) pushCert(out []wire.Envelope, cp certPush) []wire.Envelope {
	l, bid := n.lead, cp.proof.BID
	if m := l.merging; bid < n.l0From || m != nil && len(m.L0Blocks) > 0 && bid <= m.L0Blocks[len(m.L0Blocks)-1].ID {
		return out
	}
	var to []wire.NodeID
	for r, seen := range l.readers {
		if seen <= bid && !slices.Contains(cp.waiting, r) {
			to = append(to, r)
		}
	}
	slices.Sort(to)
	for _, r := range to {
		out = append(out, wire.Envelope{From: n.cfg.ID, To: r, Msg: cloneProof(cp.proof)})
	}
	n.m.certPushes.Add(uint64(len(to)))
	return out
}

// awaitProof registers client for the forwarded certificate of block bid,
// once however often it asks. A bid behind the table's floor is certified
// already and registers nothing.
func (n *Node) awaitProof(bid uint64, client wire.NodeID) {
	if ws, _ := n.lead.waiters.Get(bid); !slices.Contains(ws, client) {
		n.lead.waiters.Set(bid, append(ws, client))
	}
}

// handleRead serves read(bid) with the paper's three cases: not available
// (signed denial), Phase II read (block + proof, unsigned: the proof binds
// the block), Phase I read (signed block, no proof yet; the proof is
// forwarded when it arrives). On a persistent node
// a block no successful sync covers yet is not durable, so its response
// joins the held outputs and leaves with the next sync.
func (n *Node) handleRead(now int64, from wire.NodeID, m *wire.ReadRequest) []wire.Envelope {
	n.m.reads.Inc()
	resp := &wire.ReadResponse{ReqID: m.ReqID, BID: m.BID, Ts: now}
	blk, err := n.log.Block(m.BID)
	if err != nil && !errors.Is(err, wlog.ErrNoSuchBlock) {
		// The block exists but cannot be read back intact: a denial would
		// be a signed omission and the bytes contradict the certificate,
		// so nothing is signed.
		n.logf("cannot serve block", "bid", m.BID, "err", err)
		return nil
	}
	omit := n.cfg.Fault != nil && n.cfg.Fault.OmitBlocks[m.BID]
	if err != nil || omit {
		resp.OK = false
	} else {
		resp.OK = true
		resp.Block = *blk
		if n.cfg.Fault != nil {
			resp.Block = n.cfg.Fault.maybeTamperRead(from, resp.Block)
		}
		if cert, ok := n.log.Cert(m.BID); ok && !tampered(n.cfg.Fault, from) {
			resp.HasProof = true
			resp.Proof = cert
		} else {
			// Phase I read: remember the reader for proof forwarding.
			n.awaitProof(m.BID, from)
		}
	}
	switch {
	case resp.HasProof && n.cfg.Fault == nil:
		// Phase II read: the proof binds the block, so nothing is signed
		// (a faulty node signs every answer).
	case resp.OK && !tampered(n.cfg.Fault, from):
		// Honest serve: sign with the digest cached at block cut instead
		// of re-hashing the block per read (same O(1) signing the write
		// acks use). Tampered and denial responses go through the
		// generic path so the signature matches what actually ships.
		digest, derr := n.log.Digest(m.BID)
		if derr != nil {
			panic(fmt.Sprintf("edge: served block has no digest: %v", derr))
		}
		resp.EdgeSig = wcrypto.SignReadResponse(n.key, resp, digest)
		n.m.readSigs.Inc()
	default:
		resp.EdgeSig = wcrypto.SignMsg(n.key, resp)
		n.m.readSigs.Inc()
	}
	out := []wire.Envelope{{From: n.cfg.ID, To: from, Msg: resp}}
	if resp.OK && n.store != nil && !n.store.Covers(m.BID) {
		n.lead.pendingAcks = append(n.lead.pendingAcks, out...)
		return nil
	}
	return out
}

// handleReserve grants log positions for the idempotence extension.
func (n *Node) handleReserve(now int64, from wire.NodeID, m *wire.ReserveRequest) []wire.Envelope {
	if m.Client != from {
		return nil
	}
	if m.Count > wire.MaxReserve {
		n.logf("rejecting oversized reservation", "client", from, "count", m.Count)
		return nil
	}
	if err := wcrypto.VerifyMsg(n.reg, m.Client, m, m.ClientSig); err != nil {
		return nil
	}
	start := n.log.Reserve(m.Client, int(m.Count), now+reserveTTL)
	resp := &wire.ReserveResponse{ReqID: m.ReqID, Start: start, Count: m.Count}
	resp.EdgeSig = wcrypto.SignMsg(n.key, resp)
	return []wire.Envelope{{From: n.cfg.ID, To: from, Msg: resp}}
}

// maybeStartMerge initiates at most one compaction: L0 into L1 when enough
// certified blocks accumulated, else the shallowest over-threshold level
// into its successor. The merge runs asynchronously at the cloud and does
// not block reads or writes (Section V-B). An L0 merge ships the certified
// blocks, signed over the digests cached at their cut; a level merge ships
// only its header, since the cloud merges what it kept of both levels. So
// starting a merge hashes no block or page.
func (n *Node) maybeStartMerge(now int64) []wire.Envelope {
	if n.lead == nil || n.lead.merging != nil {
		return nil
	}
	if n.cfg.Fault != nil && n.cfg.Fault.FreezeIndex {
		return nil
	}
	req := &wire.MergeRequest{Edge: n.cfg.Chain}
	var l0Digests [][]byte
	// L0 -> L1.
	certThrough, ok := n.log.CertifiedThrough()
	if ok && certThrough+1 >= n.l0From+uint64(n.cfg.L0Threshold) {
		for bid := n.l0From; bid <= certThrough; bid++ {
			blk, err := n.log.Block(bid)
			if err != nil {
				panic(fmt.Sprintf("edge: certified block missing: %v", err))
			}
			digest, err := n.log.Digest(bid)
			if err != nil {
				panic(fmt.Sprintf("edge: certified block has no digest: %v", err))
			}
			req.L0Blocks = append(req.L0Blocks, *blk)
			l0Digests = append(l0Digests, digest)
		}
	} else {
		// Level i -> i+1.
		lvl := 1
		for lvl < n.idx.Levels() && !n.idx.OverThreshold(lvl) {
			lvl++
		}
		if lvl >= n.idx.Levels() {
			return nil
		}
		req.FromLevel = uint32(lvl)
	}
	req.ReqID = n.nextReqID()
	req.EdgeSig = wcrypto.SignMergeRequest(n.key, req, l0Digests)
	n.lead.merging, n.lead.mergeWait = req, stallPeriod
	n.m.merges.Inc()
	return []wire.Envelope{n.sendMerge(now, "")}
}

// sendMerge ships the merge request in flight and notes what its re-send
// rules count from: the blocks cut so far, and now. A re-send says why. If
// the cloud never saw the request it merges now; if it did, it replays the
// response it already signed — a repeat never merges twice.
func (n *Node) sendMerge(now int64, resend string) wire.Envelope {
	l := n.lead
	if resend != "" {
		n.m.mergeRetries.Inc()
		n.logf(resend, "req", l.merging.ReqID)
	}
	l.mergeCut, l.mergeQuiet = n.log.NumBlocks(), now
	env := wire.Envelope{From: n.cfg.ID, To: n.cfg.Cloud, Msg: l.merging}
	n.m.bytesToCloud.Add(uint64(wire.EncodedSize(env)))
	return env
}

func (n *Node) nextReqID() uint64 {
	n.nextReq++
	return n.nextReq
}

// handleMergeResponse installs the level a merge produced and adopts the
// cloud-signed roots, then cascades to the next over-threshold level if
// any. The cloud's response carries no pages: the leader re-runs the merge
// with the three values the cloud signed over its request's blocks or its
// own levels (one merge is in flight, so they are the ones the cloud
// merged), and mirrors the response to its followers with the derived
// pages attached (a follower's log may lag the inputs). Either way the
// pages are outside CloudSig and InstallLevel binds them to it through the
// signed root.
func (n *Node) handleMergeResponse(now int64, from wire.NodeID, m *wire.MergeResponse) []wire.Envelope {
	// Followers accept merge responses forwarded by their leader; the
	// cloud's signature keeps the leader from forging an install.
	if from != n.cfg.Cloud && (n.follow == nil || from != n.follow.leader) {
		return nil
	}
	if err := wcrypto.VerifyMsg(n.reg, n.cfg.Cloud, m, m.CloudSig); err != nil {
		n.logf("dropping merge response with bad signature", "err", err)
		return nil
	}
	var req *wire.MergeRequest
	if l := n.lead; l != nil {
		// Only the answer to the request in flight counts: a duplicate (the
		// request was re-sent and both answers arrived) or a replay of an
		// older response finds nothing to derive from.
		req = l.merging
		if req == nil || m.Edge != req.Edge || m.ReqID != req.ReqID || m.FromLevel != req.FromLevel {
			return nil
		}
		l.merging = nil
	}
	if !m.OK {
		n.logf("cloud rejected merge", "reason", m.Reason)
		return nil
	}
	if n.cfg.Fault != nil && n.cfg.Fault.FreezeIndex {
		return nil // stale-snapshot attack: refuse to advance
	}
	target := int(m.FromLevel) + 1
	pages := m.NewPages
	if req != nil {
		var srcKVs []wire.KV
		if m.FromLevel > 0 {
			srcKVs = mlsm.PagesKVs(n.idx.Pages(int(m.FromLevel)))
		}
		for i := range req.L0Blocks {
			srcKVs = append(srcKVs, mlsm.BlockKVs(&req.L0Blocks[i])...)
		}
		pages = mlsm.Merge(srcKVs, n.idx.Pages(target), uint32(target), int(m.PageCap), m.PageSeq, m.Global.Ts)
	}
	if err := n.idx.InstallLevel(target, pages, m.Roots, m.Global); err != nil {
		n.logf("merge install failed", "err", err)
		return nil
	}
	if m.FromLevel == 0 {
		if l := n.lead; l != nil {
			// A reader that has not read since the previous L0 merge
			// started reads too seldom to cite a pushed certificate before
			// its block leaves the window.
			maps.DeleteFunc(l.readers, func(_ wire.NodeID, seen uint64) bool { return seen < n.l0From })
		}
		n.l0From = m.ConsumedTo + 1
		n.log.Release(n.l0From)
	} else if err := n.idx.ClearLevel(int(m.FromLevel)); err != nil {
		n.logf("clearing merged level failed", "err", err)
		return nil
	}
	var out []wire.Envelope
	if n.lead != nil && len(n.lead.followers) > 0 {
		// Mirror the install: followers run the same path off the same
		// cloud-signed response, so a promoted follower starts with the
		// chain's current LSMerkle instead of an empty index.
		mirror := *m
		mirror.NewPages = pages
		for _, f := range n.lead.followers {
			out = append(out, wire.Envelope{From: n.cfg.ID, To: f, Msg: &mirror})
		}
	}
	return append(out, n.maybeStartMerge(now)...)
}

// cloneProof copies a proof for independent delivery.
func cloneProof(p *wire.BlockProof) *wire.BlockProof {
	cp := *p
	cp.Digest = append([]byte(nil), p.Digest...)
	cp.CloudSig = append([]byte(nil), p.CloudSig...)
	return &cp
}

func tampered(f *Fault, client wire.NodeID) bool {
	return f != nil && f.TamperReadVictim == client
}
