package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"wedgechain/internal/merkle"
	"wedgechain/internal/mlsm"
	"wedgechain/internal/scan"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
	"wedgechain/internal/wlog"
)

// counters is a reading of the counts the layers keep themselves
// (edge.Node.Stats, cloud.Node.Stats, client.Sharded.StatsByEdge,
// transport.TCP.Stats) plus the wrappers' own.
type counters struct {
	writes, blocksCut, edgeMerges, certRetries, shed uint64
	shardWrites                                      []uint64
	certifies, certMsgs, cloudMerges, mergedKVs      uint64
	cloudDisputes, guilty, conflicts                 uint64
	disputes, retries, resends                       uint64
	framesSent, laneDrops, redials                   uint64
	emitted, signed, bytes                           uint64
	l0Blocks, l0Gets                                 uint64
	certBytes, mergeBytes                            uint64
	bytesByKind                                      [maxKinds]uint64
	emittedByKind                                    [maxKinds]uint64
	edgeBusy, edgeTick, cloudBusy                    int64
}

func (c *cluster) counters() counters {
	var k counters
	for _, n := range c.leaders {
		st := n.Stats()
		k.writes += st.Writes
		k.blocksCut += st.BlocksCut
		k.edgeMerges += st.Merges
		k.certRetries += st.CertRetries
		k.shed += st.Shed
		k.shardWrites = append(k.shardWrites, st.Writes)
	}
	cs := c.cloud.Stats()
	k.certifies, k.cloudMerges = cs.Certifies, cs.Merges
	k.cloudDisputes, k.guilty, k.conflicts = cs.Disputes, cs.GuiltyEdges, cs.Conflicts
	k.certMsgs = c.cloudWrap.certMsgs.Load()
	k.mergedKVs = c.cloudWrap.mergedKVs.Load()
	k.cloudBusy = c.cloudWrap.busyNS.Load()
	for _, s := range c.sessions {
		for _, st := range s.sh.StatsByEdge() {
			k.disputes += st.Disputes
			k.retries += st.Retries
			k.resends += st.Resends
		}
		k.signed += s.signed.Load()
		k.l0Blocks += s.l0Blocks.Load()
		k.l0Gets += s.l0Gets.Load()
	}
	for _, t := range c.tcps {
		st := t.Stats()
		k.framesSent += st.FramesSent
		k.laneDrops += st.LaneDrops
		k.redials += st.Redials
	}
	for i, w := range append([]*nodeWrap{c.cloudWrap}, c.edgeWraps...) {
		k.signed += sumKinds(&w.emitted) // every kind a node emits in these workloads is signed
		k.certBytes += sumKinds(&w.linkBytes, certKinds...)
		k.mergeBytes += sumKinds(&w.linkBytes, mergeKinds...)
		for kind := range w.bytes {
			k.bytesByKind[kind] += w.bytes[kind].Load()
			k.emittedByKind[kind] += w.emitted[kind].Load()
			k.bytes += w.bytes[kind].Load()
		}
		if i > 0 && w.role == roleEdge {
			k.edgeBusy += w.busyNS.Load()
			k.edgeTick += w.tickNS.Load()
		}
	}
	return k
}

func (a counters) minus(b counters) counters {
	d := a
	sub := func(x *uint64, y uint64) { *x -= y }
	sub(&d.writes, b.writes)
	sub(&d.blocksCut, b.blocksCut)
	sub(&d.edgeMerges, b.edgeMerges)
	sub(&d.certRetries, b.certRetries)
	sub(&d.shed, b.shed)
	d.shardWrites = append([]uint64(nil), a.shardWrites...)
	for i := range b.shardWrites {
		d.shardWrites[i] -= b.shardWrites[i]
	}
	sub(&d.certifies, b.certifies)
	sub(&d.certMsgs, b.certMsgs)
	sub(&d.cloudMerges, b.cloudMerges)
	sub(&d.mergedKVs, b.mergedKVs)
	sub(&d.cloudDisputes, b.cloudDisputes)
	sub(&d.guilty, b.guilty)
	sub(&d.conflicts, b.conflicts)
	sub(&d.disputes, b.disputes)
	sub(&d.retries, b.retries)
	sub(&d.resends, b.resends)
	sub(&d.framesSent, b.framesSent)
	sub(&d.laneDrops, b.laneDrops)
	sub(&d.redials, b.redials)
	sub(&d.signed, b.signed)
	sub(&d.bytes, b.bytes)
	sub(&d.l0Blocks, b.l0Blocks)
	sub(&d.l0Gets, b.l0Gets)
	sub(&d.certBytes, b.certBytes)
	sub(&d.mergeBytes, b.mergeBytes)
	for i := range d.bytesByKind {
		d.bytesByKind[i] -= b.bytesByKind[i]
		d.emittedByKind[i] -= b.emittedByKind[i]
	}
	d.edgeBusy -= b.edgeBusy
	d.edgeTick -= b.edgeTick
	d.cloudBusy -= b.cloudBusy
	return d
}

// recoverStats is the outcome of recovering the leaders' logs from disk.
type recoverStats struct {
	seconds float64
	blocks  int
}

// checkRecovery is the durability check: after the endpoints have stopped
// and the stores are flushed, each leader's log directory must recover
// (wlog.Recover re-verifies every digest and certificate) to exactly the
// blocks that leader cut.
func (c *cluster) checkRecovery() (recoverStats, error) {
	var rs recoverStats
	for i, dir := range c.dirs {
		began := time.Now()
		_, store, blocks, _, err := wlog.Recover(dir, c.leaderIDs[i], burstSize, c.newRegistry(), cloudID)
		if err != nil {
			return rs, fmt.Errorf("recovering %s: %w", c.leaderIDs[i], err)
		}
		rs.seconds += time.Since(began).Seconds()
		store.Close()
		rs.blocks += blocks
		if cut := c.leaders[i].Stats().BlocksCut; uint64(blocks) != cut {
			return rs, fmt.Errorf("%s cut %d blocks but %d recovered", c.leaderIDs[i], cut, blocks)
		}
	}
	return rs, nil
}

var kindByName = func() map[string]wire.Kind {
	m := make(map[string]wire.Kind)
	for k := wire.Kind(1); k < maxKinds; k++ {
		m[k.String()] = k
	}
	return m
}()

const replayMin = 200 // measurements per replayed kind

// timeEach calls f(i) for i over n samples, at least replayMin times in
// all, and returns the mean time per call in microseconds.
func timeEach(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	calls := max(n, replayMin)
	began := time.Now()
	for i := 0; i < calls; i++ {
		f(i % n)
	}
	return float64(time.Since(began).Nanoseconds()) / float64(calls) / 1e3
}

// layerMetrics fills the traced run's metrics: span aggregates, counter
// deltas, and the costs of wire, wcrypto, merkle, scan and wlog measured
// by replaying sampled envelopes through those packages' public functions.
func (c *cluster) layerMetrics(res *result, st spanStats, ops *opSummary, d counters, snaps []snapshot, rec recoverStats) {
	tr := c.tr
	first, last := snaps[0], snaps[len(snaps)-1]
	wall := float64(last.at - first.at)
	set := func(name string, v float64) {
		for _, def := range perLayer {
			if def.Name == name {
				res.Metrics[name] = metricValue{Value: v, Unit: def.Unit}
				return
			}
		}
		panic("benchmark: metric " + name + " is not declared in perLayer")
	}
	per := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	opsDone := float64(ops.completed)
	puts := float64(d.writes)

	for _, k := range submitKinds {
		set("client.submit_us."+k, st.get("client.submit."+k).meanUS())
	}
	for _, k := range clientRecvKinds {
		set("client.recv_us."+k, st.get("client.recv."+k).meanUS())
	}
	set("client.put_phase1_p99_ms", percentile(ops.phase1, 0.99))
	set("client.put_phase2_p99_ms", percentile(ops.phase2, 0.99))
	set("client.get_p99_ms", percentile(ops.get, 0.99))
	set("client.scan_p95_ms", percentile(ops.scan, 0.95))
	set("client.trust_lag_p50_ms", percentile(ops.lag, 0.5))
	set("client.trust_lag_p99_ms", percentile(ops.lag, 0.99))
	set("client.retries", float64(d.retries))
	set("client.resends", float64(d.resends))
	set("client.disputes", float64(d.disputes))

	for _, l := range hopLinks {
		set("transport.hop_wait_us."+l, tr.hop(l).medianUS())
	}
	set("transport.frames_per_op", per(float64(d.framesSent), opsDone))
	set("transport.bytes_per_op", per(float64(d.bytes), opsDone))
	set("transport.lane_drops", float64(d.laneDrops))
	set("transport.redials", float64(d.redials))

	sample := func(kind string) []wire.Envelope {
		if r := tr.samples[kindByName[kind]]; r != nil {
			return r.envs
		}
		return nil
	}
	for _, k := range wireCodecKinds {
		envs := sample(k)
		frames := make([][]byte, len(envs))
		set("wire.encode_us."+k, timeEach(len(envs), func(i int) {
			e := wire.GetEncoder()
			wire.AppendEnvelope(e, envs[i])
			if frames[i] == nil {
				frames[i] = append([]byte(nil), e.Bytes()...)
			}
			wire.PutEncoder(e)
		}))
		set("wire.decode_us."+k, timeEach(len(envs), func(i int) {
			if _, err := wire.DecodeEnvelopeOwned(frames[i]); err != nil {
				res.Problems = append(res.Problems, "replay: decoding "+k+": "+err.Error())
			}
		}))
	}
	for _, k := range wireBytesKinds {
		kind := kindByName[k]
		set("wire.bytes."+k, per(float64(d.bytesByKind[kind]), float64(d.emittedByKind[kind])))
	}

	reg := c.newRegistry()
	for _, k := range preverifyKinds {
		envs := sample(k)
		set("wcrypto.preverify_us."+k, timeEach(len(envs), func(i int) {
			if !wcrypto.PreVerify(reg, envs[i]) {
				res.Problems = append(res.Problems, "replay: "+k+" failed signature pre-verification")
			}
		}))
	}
	key := wcrypto.DeterministicKey(cloudID)
	digest := wcrypto.Digest([]byte("benchmark"))
	set("wcrypto.sign_us", timeEach(replayMin, func(int) { key.Sign(digest) }))
	set("wcrypto.sigs_per_op", per(float64(d.signed), opsDone))

	for _, k := range edgeRecvKinds {
		set("edge.recv_us."+k, st.get("edge.recv."+k).meanUS())
	}
	for _, k := range followerRecvKinds {
		set("edge.follower_recv_us."+k, st.get("edge.follower_recv."+k).meanUS())
	}
	leaders := float64(len(c.leaders))
	set("edge.tick_us_per_s", per(float64(d.edgeTick)/1e3, wall/1e9*leaders))
	set("edge.busy_share", per(float64(d.edgeBusy), wall*leaders))
	set("edge.entries_per_block", per(puts, float64(d.blocksCut)))
	set("edge.merges_per_kput", per(float64(d.edgeMerges)*1000, puts))
	set("edge.cert_retries", float64(d.certRetries))
	set("edge.shed", float64(d.shed))

	for _, k := range cloudRecvKinds {
		set("cloud.recv_us."+k, st.get("cloud.recv."+k).meanUS())
	}
	set("cloud.busy_share", per(float64(d.cloudBusy), wall))
	set("cloud.certs_per_sign", per(float64(d.certifies), float64(d.certMsgs)))
	set("cloud.cert_bytes_per_put", per(float64(d.certBytes), puts))
	set("cloud.merge_bytes_per_put", per(float64(d.mergeBytes), puts))
	set("cloud.merges", float64(d.cloudMerges))

	merge := st.get("cloud.recv.MergeRequest")
	set("mlsm.merge_us_per_kkv", per(float64(merge.sum())/1e3*1000, float64(d.mergedKVs)))
	set("mlsm.l0_window_blocks_mean", per(float64(d.l0Blocks), float64(d.l0Gets)))

	// merkle: every level proof of the sampled get responses, every level
	// range proof of the sampled scan responses, leaves hashed beforehand.
	type pointProof struct {
		root, leaf []byte
		lp         *wire.LevelProof
	}
	var points []pointProof
	for _, env := range sample("GetResponse") {
		m := env.Msg.(*wire.GetResponse)
		for i := range m.Proof.Levels {
			lp := &m.Proof.Levels[i]
			if lvl := int(lp.Level); lvl >= 1 && lvl <= len(m.Proof.Roots) {
				points = append(points, pointProof{m.Proof.Roots[lvl-1], mlsm.PageLeaf(&lp.Page), lp})
			}
		}
	}
	set("merkle.verify_us", timeEach(len(points), func(i int) {
		p := points[i]
		if err := merkle.Verify(p.root, p.leaf, int(p.lp.Index), int(p.lp.Width), p.lp.Path); err != nil {
			res.Problems = append(res.Problems, "replay: merkle.Verify: "+err.Error())
		}
	}))
	type rangeProof struct {
		root   []byte
		leaves [][]byte
		lp     *wire.LevelRangeProof
	}
	var ranges []rangeProof
	scans := sample("ScanResponse")
	for _, env := range scans {
		m := env.Msg.(*wire.ScanResponse)
		for i := range m.Proof.Levels {
			lp := &m.Proof.Levels[i]
			if lvl := int(lp.Level); lvl >= 1 && lvl <= len(m.Proof.Roots) {
				leaves := make([][]byte, len(lp.Pages))
				for j := range lp.Pages {
					leaves[j] = mlsm.PageLeaf(&lp.Pages[j])
				}
				ranges = append(ranges, rangeProof{m.Proof.Roots[lvl-1], leaves, lp})
			}
		}
	}
	set("merkle.range_verify_us", timeEach(len(ranges), func(i int) {
		p := ranges[i]
		if err := merkle.VerifyRange(p.root, p.leaves, int(p.lp.First), int(p.lp.Width), p.lp.Left, p.lp.Right); err != nil {
			res.Problems = append(res.Problems, "replay: merkle.VerifyRange: "+err.Error())
		}
	}))

	// scan: the whole client-side verification, cold (no leaf cache).
	rows, bytes := 0, 0
	for _, env := range scans {
		bytes += wire.EncodedSize(env)
	}
	scanUS := timeEach(len(scans), func(i int) {
		r, err := scan.Verify(scan.Params{Reg: reg, Edge: scans[i].From, Cloud: cloudID, Now: time.Now().UnixNano()},
			scans[i].Msg.(*wire.ScanResponse))
		if err != nil {
			res.Problems = append(res.Problems, "replay: scan.Verify: "+err.Error())
		}
		rows += len(r.KVs)
	})
	calls := max(len(scans), replayMin)
	set("scan.verify_us_per_row", per(scanUS*float64(calls), float64(rows)))
	set("scan.rows_per_scan", per(float64(rows), float64(calls)))
	set("scan.response_bytes", per(float64(bytes), float64(len(scans))))

	// wlog: append + sync of sampled blocks into a scratch store, and the
	// recovery of the leaders' own logs; 0 on in-memory workloads.
	appendUS := 0.0
	if c.sp.Durable {
		var blocks []*wire.Block
		for _, env := range sample("PutResponse") {
			blocks = append(blocks, &env.Msg.(*wire.PutResponse).Block)
		}
		if dir, err := os.MkdirTemp(c.tmp, "replay-"); err == nil {
			if store, err := wlog.OpenStore(dir, true); err == nil {
				appendUS = timeEach(len(blocks), func(i int) {
					if err := store.AppendBlockBuffered(blocks[i]); err == nil {
						err = store.Sync()
					}
				})
				store.Close()
			}
		}
	}
	set("wlog.append_us_per_block", appendUS)
	set("wlog.recover_s", rec.seconds)
	set("wlog.recovered_blocks", float64(rec.blocks))

	var maxW, sumW float64
	for _, w := range d.shardWrites {
		maxW, sumW = max(maxW, float64(w)), sumW+float64(w)
	}
	set("shard.skew", per(maxW*float64(len(d.shardWrites)), sumW))

	set("load.late_p99_ms", percentile(append([]float64(nil), ops.late...), 0.99))
	set("load.late_max_ms", percentile(append([]float64(nil), ops.late...), 1))
	set("load.cpu_utilisation", per(float64(last.cpu-first.cpu), wall*float64(runtime.GOMAXPROCS(0))))
	set("load.inflight_mean", per(float64(ops.busyNS), wall))
	set("load.ref_verify_us", res.RefUS)
	set("load.peak_rss_mb", res.PeakRSSMB)

	// budget: the blocking steps of a write's Phase I, of its Phase II,
	// and of a get, each step at its median so that the sum is comparable
	// with the latency medians (a few merges dominate every mean).
	putKind, submit := "PutRequest", "client.submit.put"
	if ops.mainPut == opBurst {
		putKind, submit = "PutBatch", "client.submit.put_batch"
	}
	certReq, certAns := "BlockCertify", "BlockProof"
	if c.sp.CertBatch > 1 && !c.sp.Durable {
		certReq, certAns = "BlockCertifyBatch", "BlockCertBatch"
	}
	hop := func(link, kind string) float64 { return tr.hop(link + "." + kind).medianUS() }
	step := func(name string) float64 { return st.get(name).medianUS() }
	late := median(ops.late) * 1e3
	toEdge := late + step(submit) + hop("client_edge", putKind) + step("edge.recv."+putKind)
	phase1 := toEdge + hop("edge_client", "PutResponse") + step("client.recv.PutResponse")
	phase2 := toEdge + hop("edge_cloud", certReq) + step("cloud.recv."+certReq) +
		hop("cloud_edge", certAns) + step("edge.recv."+certAns) +
		hop("edge_client", certAns) + step("client.recv."+certAns)
	getPath := late + step("client.submit.get") + hop("client_edge", "GetRequest") +
		step("edge.recv.GetRequest") + hop("edge_client", "GetResponse") + step("client.recv.GetResponse")
	set("budget.put_phase1_path_us", phase1)
	set("budget.put_phase2_path_us", phase2)
	set("budget.get_path_us", getPath)
	set("budget.residual_us_per_op", percentile(ops.phase1, 0.5)*1e3-phase1)
}
