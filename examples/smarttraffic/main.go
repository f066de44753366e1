// Smart-traffic scenario from the paper's introduction: a state government
// monitors city traffic through sensors (clients) that stream readings to
// third-party edge nodes it does not trust, while its own trusted data
// center (the cloud) certifies lazily. Multiple edge partitions serve
// different districts; a control application reads verified recent state.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"wedgechain"
)

const (
	districts      = 2 // one edge partition per district
	sensorsPerEdge = 3
	readingsPerMin = 20
)

func main() {
	// Edge nodes are next to the sensors; the government data center is
	// 80ms away — exactly the asymmetry WedgeChain exploits.
	wan := wedgechain.NewChaos(1)
	oneWay := wedgechain.LinkFaults{DelayMin: int64(40 * time.Millisecond), DelayMax: int64(40 * time.Millisecond)}
	wan.Add(wedgechain.ChaosRule{From: wedgechain.CloudID, Faults: oneWay})
	wan.Add(wedgechain.ChaosRule{To: wedgechain.CloudID, Faults: oneWay})
	cluster, err := wedgechain.NewCluster(wedgechain.Config{
		Edges:      districts,
		BatchSize:  10,
		FlushEvery: 50 * time.Millisecond,
		Chaos:      wan,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var phase1Lat, phase2Lat []time.Duration

	// Sensors stream speed readings into their district's partition.
	for d := 1; d <= districts; d++ {
		for s := 0; s < sensorsPerEdge; s++ {
			name := fmt.Sprintf("sensor-d%d-%d", d, s)
			client, err := cluster.NewClient(name, wedgechain.EdgeID(d))
			if err != nil {
				log.Fatal(err)
			}
			wg.Add(1)
			go func(d, s int, c *wedgechain.Client) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(d*100 + s)))
				for i := 0; i < readingsPerMin; i++ {
					road := fmt.Sprintf("district-%d/road-%d", d, rng.Intn(4))
					speed := fmt.Sprintf("%d km/h", 20+rng.Intn(80))
					start := time.Now()
					r, err := c.Put([]byte(road), []byte(speed))
					if err != nil {
						log.Printf("%s: put failed: %v", c.ID(), err)
						continue
					}
					p1 := time.Since(start)
					if err := r.WaitPhaseII(15 * time.Second); err != nil {
						log.Printf("%s: certification failed: %v", c.ID(), err)
						continue
					}
					p2 := time.Since(start)
					mu.Lock()
					phase1Lat = append(phase1Lat, p1)
					phase2Lat = append(phase2Lat, p2)
					mu.Unlock()
				}
			}(d, s, client)
		}
	}
	wg.Wait()

	fmt.Printf("ingested %d readings across %d districts\n", len(phase1Lat), districts)
	fmt.Printf("  Phase I  (actionable at the edge): mean %v\n", mean(phase1Lat))
	fmt.Printf("  Phase II (certified by the cloud): mean %v\n", mean(phase2Lat))

	// The traffic-control application reads verified current state from
	// each district — from the untrusted edge, without asking the cloud.
	for d := 1; d <= districts; d++ {
		controller, err := cluster.NewClient(fmt.Sprintf("controller-%d", d), wedgechain.EdgeID(d))
		if err != nil {
			log.Fatal(err)
		}
		for road := 0; road < 4; road++ {
			key := fmt.Sprintf("district-%d/road-%d", d, road)
			val, found, phase, err := controller.Get([]byte(key))
			if err != nil {
				log.Fatalf("controller get %s: %v", key, err)
			}
			if found {
				fmt.Printf("  %s = %s (%s, proof verified)\n", key, val, phase)
			}
		}
	}
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return (sum / time.Duration(len(ds))).Round(time.Millisecond)
}
