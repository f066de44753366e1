// Command wedge-cloud runs the trusted WedgeChain cloud node over TCP:
// digest certification, LSMerkle merge service, gossip, and dispute
// adjudication.
//
// Example (three terminals):
//
//	wedge-cloud  -listen :9001 -peers edge-1=localhost:9002,c1=localhost:9003
//	wedge-edge   -id edge-1 -listen :9002 -peers cloud=localhost:9001,c1=localhost:9003
//	wedge-client -id c1 -listen :9003 -peers cloud=localhost:9001,edge-1=localhost:9002 \
//	             -edge edge-1 put mykey myvalue
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wedgechain/cmd/internal/cli"
	"wedgechain/internal/cloud"
	"wedgechain/internal/obs"
	"wedgechain/internal/transport"
	"wedgechain/internal/wire"
)

func main() {
	var (
		id      = flag.String("id", "cloud", "node identity")
		listen  = flag.String("listen", ":9001", "listen address")
		peers   = flag.String("peers", "", "peer map: id=host:port,...")
		levels  = flag.Int("levels", 3, "LSMerkle levels (excluding L0)")
		pageCap = flag.Int("pagecap", 100, "records per merged page")
		gossip  = flag.Duration("gossip", time.Second, "gossip period (0 disables)")

		// Replica-group failover (see docs/RUNBOOK.md "Replication & failover").
		groups = flag.String("groups", "", "replica groups: leader=f1,f2[;leader2=...] (chain id = initial leader id)")
		lease  = flag.Duration("lease", time.Second, "leader lease: heartbeat silence beyond this transfers leadership")
		certTO = flag.Duration("cert-timeout", 3*time.Second, "certification-stall bound before leadership transfer")

		schedLanes  = flag.Int("sched-lanes", 0, "writer lanes in the shared frame scheduler (0 = default 4)")
		maxInflight = flag.Int("max-inflight", 0, "max frames queued per writer lane before shedding (0 = default 4096)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = disabled)")

		// Outbound chaos injection (see docs/RUNBOOK.md "Chaos recipes").
		chaos = cli.RegisterChaos()
	)
	flag.Parse()

	peerMap, err := cli.ParsePeers(*peers)
	if err != nil {
		log.Fatal(err)
	}
	key, reg := cli.Registry(wire.NodeID(*id), peerMap)

	var gossipTo []wire.NodeID
	for p := range peerMap {
		gossipTo = append(gossipTo, p)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	metrics := obs.Default()
	ccfg := cloud.Config{
		ID:           wire.NodeID(*id),
		Levels:       *levels,
		PageCap:      *pageCap,
		GossipEvery:  gossip.Nanoseconds(),
		GossipTo:     gossipTo,
		LeaseTimeout: lease.Nanoseconds(),
		CertTimeout:  certTO.Nanoseconds(),
		Logger:       logger,
		Metrics:      metrics,
	}
	if err := ccfg.Validate(); err != nil {
		log.Fatal(err)
	}
	node := cloud.New(ccfg, key, reg)
	if err := registerGroups(node, *groups); err != nil {
		log.Fatal(err)
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
		log.Printf("wedge-cloud %s metrics on http://%s/metrics (pprof at /debug/pprof/)", *id, ms.Addr)
	}
	log.Printf("wedge-cloud %s listening on %s", *id, *listen)
	if err := t.Serve(ctx); err != nil {
		log.Fatal(err)
	}
	// Graceful shutdown (SIGINT/SIGTERM): accepted conns are closed by
	// Serve's exit path; an exit status of 0 marks an orderly stop.
	log.Printf("wedge-cloud %s: graceful shutdown (conns closed)", *id)
}

// registerGroups parses "leader=f1,f2[;leader2=...]" and declares each
// replica group before the transport starts. The chain identity is the
// initial leader's id, matching the façade's convention.
func registerGroups(node *cloud.Node, spec string) error {
	if spec == "" {
		return nil
	}
	for _, g := range strings.Split(spec, ";") {
		leader, rest, ok := strings.Cut(strings.TrimSpace(g), "=")
		if !ok || leader == "" {
			return fmt.Errorf("bad -groups entry %q (want leader=f1,f2)", g)
		}
		var fs []wire.NodeID
		for _, f := range strings.Split(rest, ",") {
			if f = strings.TrimSpace(f); f != "" {
				fs = append(fs, wire.NodeID(f))
			}
		}
		if len(fs) == 0 {
			return fmt.Errorf("bad -groups entry %q: no followers", g)
		}
		node.RegisterGroup(wire.NodeID(leader), wire.NodeID(leader), fs)
	}
	return nil
}
