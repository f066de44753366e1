// Command wedge-edge runs an (untrusted) WedgeChain edge node over TCP:
// block ingestion, lazy certification against the cloud, LSMerkle serving,
// and — for demonstrations — optional byzantine behaviour.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wedgechain/cmd/internal/cli"
	"wedgechain/internal/edge"
	"wedgechain/internal/obs"
	"wedgechain/internal/transport"
	"wedgechain/internal/wire"
)

func main() {
	var (
		id      = flag.String("id", "edge-1", "node identity")
		listen  = flag.String("listen", ":9002", "listen address")
		peers   = flag.String("peers", "", "peer map: id=host:port,...")
		cloudID = flag.String("cloud", "cloud", "cloud node identity")
		batch   = flag.Int("batch", 100, "entries per block")
		flush   = flag.Duration("flush", 100*time.Millisecond, "partial block flush interval")
		l0      = flag.Int("l0", 10, "L0 blocks before compaction")
		levels  = flag.String("levels", "10,100,1000", "level page thresholds")
		evil    = flag.String("evil", "", "byzantine mode: tamper-add=<victim>|omit=<bid>|double-certify|drop-certify|false-exclude=<key>|tamper-slice=<key>|equivocate-repl|promote-stale=<bid>")
		dataDir = flag.String("data", "", "directory for the durable log segment (empty = in-memory)")
		syncWin = flag.Duration("group-commit", 0, "group-commit fsync window: blocks persisted within it share one fsync (0 = fsync per block)")

		// Replica-group role (see docs/RUNBOOK.md "Replication & failover").
		chain     = flag.String("chain", "", "chain identity this node serves (defaults to -id; set together with -follower)")
		follower  = flag.Bool("follower", false, "start as a mirroring follower of -chain's leader instead of serving clients")
		followers = flag.String("followers", "", "comma-separated follower ids this leader replicates cut blocks to")
		heartbeat = flag.Duration("heartbeat", 0, "replica liveness heartbeat period (0 = 200ms default when part of a group)")

		// Robustness knobs (see docs/RUNBOOK.md "Chaos recipes").
		maxUncert = flag.Int("max-uncertified", 0, "shed writes while more than this many blocks await certification (0 = no cap)")

		// Frame scheduler (see docs/RUNBOOK.md "Front door"): outbound
		// frames share a bounded pool of writer lanes instead of one
		// goroutine per peer.
		schedLanes  = flag.Int("sched-lanes", 0, "writer lanes in the shared frame scheduler (0 = default 4)")
		maxInflight = flag.Int("max-inflight", 0, "max frames queued per writer lane before shedding (0 = default 4096)")
		certRetry   = flag.Duration("cert-retry", 0, "re-submit certification after the frontier stalls this long, and a merge request unanswered this long (0 = 1s default in groups, negative disables)")
		catchUp     = flag.Duration("catchup-every", 0, "follower gap-driven catch-up period (0 = 500ms default in groups, negative disables)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = disabled)")
		chaos       = cli.RegisterChaos()
	)
	flag.Parse()

	peerMap, err := cli.ParsePeers(*peers)
	if err != nil {
		log.Fatal(err)
	}
	key, reg := cli.Registry(wire.NodeID(*id), peerMap)
	thresholds, err := cli.ParseInts(*levels)
	if err != nil {
		log.Fatal(err)
	}

	fault, err := parseFault(*evil)
	if err != nil {
		log.Fatal(err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	metrics := obs.Default()
	cfg := edge.Config{
		ID:              wire.NodeID(*id),
		Chain:           wire.NodeID(*chain),
		Cloud:           wire.NodeID(*cloudID),
		BatchSize:       *batch,
		FlushEvery:      flush.Nanoseconds(),
		L0Threshold:     *l0,
		LevelThresholds: thresholds,
		SyncEvery:       syncWin.Nanoseconds(),
		Follower:        *follower,
		HeartbeatEvery:  heartbeat.Nanoseconds(),
		MaxUncertified:  *maxUncert,
		CertRetryEvery:  certRetry.Nanoseconds(),
		CatchUpEvery:    catchUp.Nanoseconds(),
		Fault:           fault,
		Logger:          logger,
		Metrics:         metrics,
	}
	for _, f := range strings.Split(*followers, ",") {
		if f = strings.TrimSpace(f); f != "" {
			cfg.Followers = append(cfg.Followers, wire.NodeID(f))
		}
	}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	var node *edge.Node
	if *dataDir != "" {
		var recovered int
		node, recovered, err = edge.NewPersistent(cfg, key, reg, *dataDir, true)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("recovered %d blocks from %s", recovered, *dataDir)
	} else {
		node = edge.New(cfg, key, reg)
	}

	faultNet, err := chaos.Net()
	if err != nil {
		log.Fatal(err)
	}
	faultNet.AttachMetrics(metrics, *id)
	reg.AttachMetrics(metrics, *id)
	t := transport.NewTCP(node, transport.TCPConfig{
		Listen: *listen, Peers: peerMap, Fault: faultNet,
		Lanes: *schedLanes, LaneDepth: *maxInflight,
		Registry: reg, VerifyWorkers: -1, // negative = GOMAXPROCS
		Obs: metrics, Log: logger,
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *metricsAddr != "" {
		ms, err := obs.StartServer(*metricsAddr, metrics)
		if err != nil {
			log.Fatal(err)
		}
		defer ms.Close()
		log.Printf("wedge-edge %s metrics on http://%s/metrics (pprof at /debug/pprof/)", *id, ms.Addr)
	}
	mode := "honest"
	if fault != nil {
		mode = "BYZANTINE(" + *evil + ")"
	}
	role := "leader"
	if *follower {
		role = fmt.Sprintf("follower of chain %s", node.Chain())
	} else if len(cfg.Followers) > 0 {
		role = fmt.Sprintf("leader replicating to %d followers", len(cfg.Followers))
	}
	log.Printf("wedge-edge %s listening on %s (%s, %s)", *id, *listen, mode, role)
	if err := t.Serve(ctx); err != nil {
		node.CloseStore()
		log.Fatal(err)
	}
	// Graceful shutdown (SIGINT/SIGTERM): Serve has closed the accepted
	// conns; flush the group-commit wlog buffer so every block the node
	// holds is durable, then exit 0 — an orderly restart, distinguishable
	// in the logs (and by exit status) from a chaos kill.
	if err := node.CloseStore(); err != nil {
		log.Fatalf("wedge-edge %s: flushing durable log on shutdown: %v", *id, err)
	}
	log.Printf("wedge-edge %s: graceful shutdown (wlog flushed, conns closed)", *id)
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
