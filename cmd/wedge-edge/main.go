// Command wedge-edge runs an (untrusted) WedgeChain edge node over TCP:
// block ingestion, lazy certification against the cloud, LSMerkle serving,
// and — for demonstrations — optional byzantine behaviour.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"wedgechain/cmd/internal/cli"
	"wedgechain/internal/edge"
	"wedgechain/internal/wire"
)

func main() {
	node := cli.RegisterNode("edge-1", ":9002", true)
	cfg := edge.Defaults()
	flag.StringVar((*string)(&cfg.Cloud), "cloud", "cloud", "cloud node identity")
	flag.IntVar(&cfg.BatchSize, "batch", cfg.BatchSize, "entries per block")
	cli.DurationVar(&cfg.FlushEvery, "flush", "force-cut a partial block after this idle `duration`, and one holding a run ack ten of them after that ack (negative disables both, and run acks)")
	flag.IntVar(&cfg.L0Threshold, "l0", cfg.L0Threshold, "L0 blocks before compaction")
	cli.IntsVar(&cfg.LevelThresholds, "levels", "comma-separated `list` of level page thresholds")
	evil := flag.String("evil", "", "byzantine mode: tamper-add=<victim>|omit=<bid>|double-certify|drop-certify|false-exclude=<key>|tamper-slice=<key>|equivocate-repl|promote-stale=<bid>")
	dataDir := flag.String("data", "", "directory for the durable log segment (empty = in-memory)")
	cli.DurationVar(&cfg.SyncEvery, "group-commit", "group-commit fsync window, a `duration`: at most one fsync per window, counted from the return of the last one; a block cut past it is synced and acknowledged in its own turn, blocks cut sooner share the next fsync (0 = every block synced in the turn that cut it)")

	// Replica-group role (see docs/RUNBOOK.md "Replication & failover").
	flag.StringVar((*string)(&cfg.Chain), "chain", "", "chain identity this node serves (defaults to -id; set together with -follower)")
	flag.BoolVar(&cfg.Follower, "follower", false, "start as a mirroring follower of -chain's leader instead of serving clients")
	followers := flag.String("followers", "", "comma-separated follower ids this leader replicates cut blocks to")
	cli.DurationVar(&cfg.HeartbeatEvery, "heartbeat", "replica liveness heartbeat period, a `duration` (0 = the replica-group default)")

	// Write shedding under a certification backlog.
	flag.IntVar(&cfg.MaxUncertified, "max-uncertified", 0, "shed writes while more than this many blocks await certification (0 = no cap)")
	flag.Parse()

	key, reg, err := node.Keys()
	if err != nil {
		log.Fatal(err)
	}
	fault, err := parseFault(*evil)
	if err != nil {
		log.Fatal(err)
	}
	cfg.ID = wire.NodeID(node.ID)
	cfg.Fault, cfg.Logger, cfg.Metrics = fault, node.Log, node.Metrics
	for _, f := range strings.Split(*followers, ",") {
		if f = strings.TrimSpace(f); f != "" {
			cfg.Followers = append(cfg.Followers, wire.NodeID(f))
		}
	}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	var n *edge.Node
	if *dataDir != "" {
		var recovered int
		n, recovered, err = edge.NewPersistent(cfg, key, reg, *dataDir, true)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("recovered %d blocks from %s", recovered, *dataDir)
	} else {
		n = edge.New(cfg, key, reg)
	}

	mode := "honest"
	if fault != nil {
		mode = "BYZANTINE(" + *evil + ")"
	}
	role := "leader"
	if cfg.Follower {
		role = fmt.Sprintf("follower of chain %s", n.Chain())
	} else if len(cfg.Followers) > 0 {
		role = fmt.Sprintf("leader replicating to %d followers", len(cfg.Followers))
	}
	if err := node.Serve("wedge-edge", fmt.Sprintf(" (%s, %s)", mode, role), n, reg); err != nil {
		n.CloseStore()
		log.Fatal(err)
	}
	// Graceful shutdown (SIGINT/SIGTERM): Serve has closed the accepted
	// conns; flush the group-commit wlog buffer so every block the node
	// holds is durable, then exit 0 — an orderly restart, distinguishable
	// in the logs (and by exit status) from a chaos kill.
	if err := n.CloseStore(); err != nil {
		log.Fatalf("wedge-edge %s: flushing durable log on shutdown: %v", node.ID, err)
	}
	log.Printf("wedge-edge %s: graceful shutdown (wlog flushed, conns closed)", node.ID)
}

func parseFault(s string) (*edge.Fault, error) {
	if s == "" {
		return nil, nil
	}
	f := &edge.Fault{}
	switch {
	case strings.HasPrefix(s, "tamper-add="):
		f.TamperAddVictim = wire.NodeID(strings.TrimPrefix(s, "tamper-add="))
	case strings.HasPrefix(s, "omit="):
		bid, err := strconv.ParseUint(strings.TrimPrefix(s, "omit="), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -evil value %q: %v", s, err)
		}
		f.OmitBlocks = map[uint64]bool{bid: true}
	case s == "double-certify":
		f.DoubleCertify = true
	case s == "drop-certify":
		f.DropCertify = true
	case strings.HasPrefix(s, "false-exclude="):
		f.SliceFalseExclude = []byte(strings.TrimPrefix(s, "false-exclude="))
	case strings.HasPrefix(s, "tamper-slice="):
		f.SliceTamperKey = []byte(strings.TrimPrefix(s, "tamper-slice="))
	case s == "equivocate-repl":
		f.EquivocateReplication = true
	case strings.HasPrefix(s, "promote-stale="):
		bid, err := strconv.ParseUint(strings.TrimPrefix(s, "promote-stale="), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -evil value %q: %v", s, err)
		}
		f.PromoteStale = true
		f.PromoteStaleFrom = bid
	default:
		return nil, fmt.Errorf("bad -evil value %q", s)
	}
	return f, nil
}
