// Command wedge-client performs WedgeChain operations against a TCP
// cluster: add, read, put, get. It runs a full verifying protocol client —
// a returned value is a verified value; a detected lie is reported with
// the cloud's verdict.
//
// Usage:
//
//	wedge-client -id c1 -listen :9003 \
//	  -peers cloud=localhost:9001,edge-1=localhost:9002 \
//	  -edge edge-1 [-chain edge-1] [-wait2] <op> [args]
//
// -chain names the chain identity when -edge is a promoted follower
// serving another chain's log (see docs/RUNBOOK.md).
//
// Operations: add <payload> | read <bid> | put <key> <value> | get <key> |
// scan <start> <end> [limit] ("-" = unbounded). Scans verify a Merkle
// completeness proof: the printed rows are provably every certified entry
// in the range.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"wedgechain/cmd/internal/cli"
	"wedgechain/internal/client"
	"wedgechain/internal/core"
	"wedgechain/internal/transport"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

func main() {
	node := cli.RegisterNode("c1", ":9003", false)
	ccfg := client.Defaults()
	flag.StringVar((*string)(&ccfg.Edge), "edge", "edge-1", "edge node owning this client's partition")
	flag.StringVar((*string)(&ccfg.Chain), "chain", "", "chain identity the edge serves (defaults to -edge; set when -edge names a promoted follower)")
	flag.StringVar((*string)(&ccfg.Cloud), "cloud", "cloud", "cloud node identity")
	wait2 := flag.Bool("wait2", false, "also wait for Phase II certification")
	timeout := flag.Duration("timeout", time.Duration(ccfg.ProofTimeout), "proof timeout: an op unanswered this long fails as unavailable, a Phase I write uncertified this long is disputed")

	// Front door (see docs/RUNBOOK.md "Front door"): session multiplexing.
	sessions := flag.Int("sessions-per-conn", 1, "run a get from this many sessions multiplexed over one connection (session ids <id>.s2.. must appear in every node's -peers, mapped to this client's address)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		log.Fatal("missing operation: add|read|put|get|scan")
	}
	if *sessions < 1 {
		log.Fatal("-sessions-per-conn must be >= 1")
	}
	if *sessions > 1 && args[0] != "get" {
		log.Fatal("-sessions-per-conn > 1 supports only get: other operations sign as the session identity, which must be provisioned at the edge")
	}

	key, reg, err := node.Keys()
	if err != nil {
		log.Fatal(err)
	}
	ccfg.ID = wire.NodeID(node.ID)
	ccfg.ProofTimeout = timeout.Nanoseconds()
	cc := client.New(ccfg, key, reg)
	t := transport.NewTCP(cc, node.TCP)

	// Extra sessions share the primary's socket: the transport routes
	// inbound frames to them by envelope address, and every remote node
	// dials them at this client's address, so N sessions ride one
	// connection end to end.
	extras := make([]*client.Core, 0, *sessions-1)
	for i := 2; i <= *sessions; i++ {
		scfg := ccfg
		scfg.ID = wire.NodeID(fmt.Sprintf("%s.s%d", node.ID, i))
		skey := wcrypto.DeterministicKey(scfg.ID)
		reg.Register(scfg.ID, skey.Pub)
		sc := client.New(scfg, skey, reg)
		t.AddSession(sc)
		extras = append(extras, sc)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		if err := t.Serve(ctx); err != nil {
			log.Fatal(err)
		}
	}()
	time.Sleep(100 * time.Millisecond) // let the listener come up

	var op *client.Op
	launch := func(fn func(now int64) (*client.Op, []wire.Envelope)) {
		t.Do(func(now int64) []wire.Envelope {
			var envs []wire.Envelope
			op, envs = fn(now)
			return envs
		})
	}

	switch args[0] {
	case "add":
		if len(args) != 2 {
			log.Fatal("usage: add <payload>")
		}
		launch(func(now int64) (*client.Op, []wire.Envelope) { return cc.Add(now, []byte(args[1])) })
	case "put":
		if len(args) != 3 {
			log.Fatal("usage: put <key> <value>")
		}
		launch(func(now int64) (*client.Op, []wire.Envelope) {
			return cc.Put(now, []byte(args[1]), []byte(args[2]))
		})
	case "read":
		if len(args) != 2 {
			log.Fatal("usage: read <bid>")
		}
		bid, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			log.Fatal(err)
		}
		launch(func(now int64) (*client.Op, []wire.Envelope) { return cc.Read(now, bid) })
	case "get":
		if len(args) != 2 {
			log.Fatal("usage: get <key>")
		}
		launch(func(now int64) (*client.Op, []wire.Envelope) { return cc.Get(now, []byte(args[1])) })
	case "scan":
		if len(args) != 3 && len(args) != 4 {
			log.Fatal(`usage: scan <start> <end> [limit]  ("-" = unbounded)`)
		}
		var start, end []byte
		if args[1] != "-" {
			start = []byte(args[1])
		}
		if args[2] != "-" {
			end = []byte(args[2])
		}
		limit := 0
		if len(args) == 4 {
			n, err := strconv.Atoi(args[3])
			if err != nil {
				log.Fatal(err)
			}
			limit = n
		}
		launch(func(now int64) (*client.Op, []wire.Envelope) { return cc.Scan(now, start, end, limit) })
	default:
		log.Fatalf("unknown operation %q", args[0])
	}

	// Launch the same get from every extra multiplexed session.
	extraOps := make([]*client.Op, len(extras))
	for i, sc := range extras {
		i, sc := i, sc
		t.DoSession(sc.ID(), func(now int64) []wire.Envelope {
			var envs []wire.Envelope
			extraOps[i], envs = sc.Get(now, []byte(args[1]))
			return envs
		})
	}

	// Poll the op under the transport mutex until it reaches the desired
	// state. The core settles it within the proof timeout of its start, or
	// of its Phase I when -wait2 waits for the certificate; the deadline is
	// only a backstop.
	deadline := time.Now().Add(2 * *timeout)
	for {
		var phase core.Phase
		var done bool
		var errOp error
		t.Do(func(now int64) []wire.Envelope {
			phase, done, errOp = op.Phase, op.Done, op.Err
			return nil
		})
		if errOp != nil {
			// Verification failures that accuse the edge (get and scan
			// evidence defects) settle before the cloud's verdict arrives;
			// wait briefly for it so the conviction is reported, not just
			// "operation failed".
			var disputed bool
			var verdict *wire.Verdict
			t.Do(func(now int64) []wire.Envelope {
				disputed, verdict = op.DisputeFiled(), op.Verdict
				return nil
			})
			verdictWait := time.Now().Add(5 * time.Second)
			for disputed && verdict == nil && time.Now().Before(verdictWait) {
				time.Sleep(10 * time.Millisecond)
				t.Do(func(now int64) []wire.Envelope {
					verdict = op.Verdict
					return nil
				})
			}
			if verdict != nil {
				status := "NOT GUILTY"
				if verdict.Guilty {
					status = "EDGE CONVICTED"
				}
				fmt.Printf("%s (%s dispute, block %d): %s\n", status, args[0], verdict.BID, verdict.Reason)
			}
			log.Fatalf("operation failed: %v", errOp)
		}
		target := core.PhaseI
		if *wait2 {
			target = core.PhaseII
		}
		if phase >= target || done {
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("operation timed out")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Wait for the extra sessions' gets — all multiplexed over the same
	// connection as the primary — before reporting.
	for waiting := len(extras) > 0; waiting; {
		done := 0
		for i, sc := range extras {
			i := i
			t.DoSession(sc.ID(), func(now int64) []wire.Envelope {
				if op := extraOps[i]; op != nil && op.Done {
					if op.Err != nil {
						log.Fatalf("session %s: %v", sc.ID(), op.Err)
					}
					done++
				}
				return nil
			})
		}
		if done == len(extras) {
			fmt.Printf("%d sessions settled over one multiplexed connection\n", len(extras)+1)
			waiting = false
		} else if time.Now().After(deadline) {
			log.Fatal("multiplexed sessions timed out")
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	t.Do(func(now int64) []wire.Envelope {
		switch args[0] {
		case "add", "put":
			fmt.Printf("%s committed: block=%d phase=%s\n", args[0], op.BID, op.Phase)
		case "read":
			if op.Block != nil {
				fmt.Printf("block %d: %d entries, phase=%s\n", op.BID, len(op.Block.Entries), op.Phase)
				for i := range op.Block.Entries {
					e := &op.Block.Entries[i]
					fmt.Printf("  [%d] client=%s key=%q value=%q\n", i, e.Client, e.Key, e.Value)
				}
			} else {
				fmt.Println("block not available")
			}
		case "get":
			if op.Found {
				fmt.Printf("%q = %q (ver %d, phase=%s, proof verified)\n", args[1], op.GotValue, op.GotVer, op.Phase)
			} else {
				fmt.Printf("%q not found (verified absence)\n", args[1])
			}
		case "scan":
			fmt.Printf("scan [%s, %s): %d rows (phase=%s, completeness proof verified)\n",
				args[1], args[2], len(op.ScanKVs), op.Phase)
			for _, kv := range op.ScanKVs {
				fmt.Printf("  %q = %q (ver %d)\n", kv.Key, kv.Value, kv.Ver)
			}
		}
		return nil
	})
	_ = os.Stdout.Sync()
}
