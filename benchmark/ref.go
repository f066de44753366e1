package main

import (
	"crypto/ed25519"
	"runtime/metrics"
	"time"
)

// The host's processors are shared: the same code costs 10 % more or less
// processor time from one quarter of an hour to the next, and half as much
// again for minutes at a time, and every latency that is processor time
// follows. The sampler holds the yardstick that makes two runs comparable
// all the same: for the length of the measured interval it times one fixed
// computation, the verification of one Ed25519 signature — what the store
// itself spends most of its processor time on — every sampleEvery, and the
// run's processor-bound metrics are reported as they would read on a host
// that takes refNominalUS for it (scaleToRef). It calls the standard
// library, not wcrypto, so that no change to the store moves the yardstick.
//
// On the same tick it reads how many bytes the Go heap holds, live or not
// yet swept. Their mean over the interval is the run's memory metric: the
// process's peak resident set, which it replaces, is an extreme value of
// the collector's sawtooth and of what earlier set-ups left mapped, and read
// 9,250 to 12,990 B per put over ten runs of mixed_cluster.
const (
	sampleEvery  = 10 * time.Millisecond
	refNominalUS = 50.0
)

type sampler struct {
	stop  chan struct{}
	done  chan struct{}
	refUS []float64
	heap  []float64
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	pub := priv.Public().(ed25519.PublicKey)
	msg := make([]byte, 32)
	sig := ed25519.Sign(priv, msg)
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			began := time.Now()
			ed25519.Verify(pub, msg, sig)
			s.refUS = append(s.refUS, float64(time.Since(began).Nanoseconds())/1e3)
			metrics.Read(heap)
			s.heap = append(s.heap, float64(heap[0].Value.Uint64()))
		}
	}()
	return s
}

// finish stops the sampling and returns the median time of the reference
// computation in microseconds (refNominalUS if it never ran) and the mean
// heap in bytes.
func (s *sampler) finish() (refUS, heapBytes float64) {
	close(s.stop)
	<-s.done
	if len(s.refUS) == 0 {
		return refNominalUS, 0
	}
	for _, b := range s.heap {
		heapBytes += b
	}
	return median(s.refUS), heapBytes / float64(len(s.heap))
}

// scaleToRef converts a time measured while the reference computation took
// refUS to what it would read on the nominal host. A rate divides by it.
func scaleToRef(refUS float64) float64 { return refNominalUS / refUS }
