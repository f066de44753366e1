// Package cli holds shared helpers for the wedge-* binaries: the node
// flags they share, flag types binding layer config fields, and the demo
// key scheme.
//
// Keying: the binaries derive each node's Ed25519 key deterministically
// from its identity so that a multi-process demo cluster needs no key
// exchange. A production deployment would generate keys with
// wcrypto.GenerateKey and distribute the registry out of band; everything
// else is unchanged.
package cli

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

	"wedgechain/internal/core"
	"wedgechain/internal/obs"
	"wedgechain/internal/transport"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// NodeFlags are the flags every wedge binary shares, bound into the
// transport config they set: -id, -listen, -peers and, on a serving
// node, -metrics-addr.
type NodeFlags struct {
	ID          string
	MetricsAddr string
	TCP         transport.TCPConfig
	// Log and Metrics are a serving node's logger and registry, shared by
	// the node and its endpoint.
	Log     *slog.Logger
	Metrics *obs.Registry
	peers   string
}

// RegisterNode installs the node flags on the default flag set. id and
// listen are the binary's own defaults. A serving node is the cloud or an
// edge.
func RegisterNode(id, listen string, serving bool) *NodeFlags {
	n := &NodeFlags{}
	flag.StringVar(&n.ID, "id", id, "node identity")
	flag.StringVar(&n.TCP.Listen, "listen", listen, "listen address")
	flag.StringVar(&n.peers, "peers", "", "peer map: id=host:port,...")
	if serving {
		flag.StringVar(&n.MetricsAddr, "metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = disabled)")
		n.Log = slog.New(slog.NewTextHandler(os.Stderr, nil))
		n.Metrics = obs.Default()
	}
	return n
}

// Keys parses -peers ("id=host:port,id2=host:port") into the transport
// config and returns the node's key and a registry holding every peer's
// key under the demo scheme.
func (n *NodeFlags) Keys() (wcrypto.KeyPair, *wcrypto.Registry, error) {
	n.TCP.Peers = make(map[wire.NodeID]string)
	for _, part := range strings.Split(n.peers, ",") {
		if part == "" {
			continue
		}
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return wcrypto.KeyPair{}, nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		n.TCP.Peers[wire.NodeID(kv[0])] = kv[1]
	}
	key, reg := Registry(wire.NodeID(n.ID), n.TCP.Peers)
	return key, reg, nil
}

// Serve runs a serving node's h on its endpoint until SIGINT or SIGTERM,
// an orderly stop (nil). reg's signature-check counters join the node's
// metrics, and metrics are served on -metrics-addr when it is set. role
// completes the log line.
func (n *NodeFlags) Serve(bin, role string, h core.Handler, reg *wcrypto.Registry) error {
	reg.AttachMetrics(n.Metrics, n.ID)
	cfg := n.TCP
	cfg.Obs, cfg.Log = n.Metrics, n.Log
	t := transport.NewTCP(h, cfg)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if n.MetricsAddr != "" {
		ms, err := obs.StartServer(n.MetricsAddr, n.Metrics)
		if err != nil {
			return err
		}
		defer ms.Close()
		log.Printf("%s %s metrics on http://%s/metrics (pprof at /debug/pprof/)", bin, n.ID, ms.Addr)
	}
	log.Printf("%s %s listening on %s%s", bin, n.ID, cfg.Listen, role)
	return t.Serve(ctx)
}

// nanos is an int64-nanosecond config field bound as a duration flag.
type nanos int64

func (d *nanos) String() string { return time.Duration(*d).String() }

func (d *nanos) Set(s string) error {
	v, err := time.ParseDuration(s)
	*d = nanos(v)
	return err
}

// DurationVar binds an int64-nanosecond config field as a duration flag
// whose default is the field's current value. A back-quoted word in usage
// names the flag's argument in -help.
func DurationVar(p *int64, name, usage string) { flag.Var((*nanos)(p), name, usage) }

// ints is a config field of thresholds bound as a comma-separated flag.
type ints []int

func (v *ints) String() string {
	return strings.ReplaceAll(strings.Trim(fmt.Sprint([]int(*v)), "[]"), " ", ",")
}

func (v *ints) Set(s string) error {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var x int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &x); err != nil {
			return fmt.Errorf("bad threshold %q", part)
		}
		out = append(out, x)
	}
	*v = out
	return nil
}

// IntsVar binds a threshold-list config field as a comma-separated flag
// ("10,100,1000") whose default is the field's current value.
func IntsVar(p *[]int, name, usage string) { flag.Var((*ints)(p), name, usage) }

// Registry builds a key registry covering self plus all peers using the
// demo key scheme, returning self's key pair.
func Registry(self wire.NodeID, peers map[wire.NodeID]string) (wcrypto.KeyPair, *wcrypto.Registry) {
	reg := wcrypto.NewRegistry()
	selfKey := wcrypto.DeterministicKey(self)
	reg.Register(self, selfKey.Pub)
	for id := range peers {
		k := wcrypto.DeterministicKey(id)
		reg.Register(id, k.Pub)
	}
	return selfKey, reg
}
