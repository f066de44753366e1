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
	"flag"
	"fmt"
	"log"
	"strings"

	"wedgechain/cmd/internal/cli"
	"wedgechain/internal/cloud"
	"wedgechain/internal/edge"
	"wedgechain/internal/wire"
)

func main() {
	node := cli.RegisterNode("cloud", ":9001", true)
	ccfg := cloud.Defaults()
	thresholds := edge.Defaults().LevelThresholds
	cli.IntsVar(&thresholds, "levels", "comma-separated `list` of level page thresholds, as given to wedge-edge -levels (one cloud level per entry)")
	flag.IntVar(&ccfg.PageCap, "pagecap", ccfg.PageCap, "records per merged page")
	cli.DurationVar(&ccfg.GossipEvery, "gossip", "gossip period, a `duration` (negative disables)")
	// Replica-group failover (see docs/RUNBOOK.md "Replication & failover").
	groups := flag.String("groups", "", "replica groups: leader=f1,f2[;leader2=...] (chain id = initial leader id)")
	cli.DurationVar(&ccfg.LeaseTimeout, "lease", "leader lease: heartbeat silence beyond this `duration` transfers leadership, and so does a mirrored backlog left uncertified for three of them")
	flag.Parse()

	key, reg, err := node.Keys()
	if err != nil {
		log.Fatal(err)
	}
	for p := range node.TCP.Peers {
		ccfg.GossipTo = append(ccfg.GossipTo, p)
	}
	ccfg.ID = wire.NodeID(node.ID)
	ccfg.Levels = len(thresholds)
	ccfg.Logger, ccfg.Metrics = node.Log, node.Metrics
	if err := ccfg.Validate(); err != nil {
		log.Fatal(err)
	}
	n := cloud.New(ccfg, key, reg)
	if err := registerGroups(n, *groups); err != nil {
		log.Fatal(err)
	}
	if err := node.Serve("wedge-cloud", "", n, reg); err != nil {
		log.Fatal(err)
	}
	// Graceful shutdown (SIGINT/SIGTERM): accepted conns are closed by
	// Serve's exit path; an exit status of 0 marks an orderly stop.
	log.Printf("wedge-cloud %s: graceful shutdown (conns closed)", node.ID)
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
