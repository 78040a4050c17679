package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"hermes/internal/engine"
	"hermes/internal/fusion"
	"hermes/internal/network"
	"hermes/internal/tx"
)

// drainTimeout bounds each quiesce; a cluster that cannot drain in it is
// reported as stuck.
const drainTimeout = 10 * time.Second

// passResult is one pass over the stream on a fresh cluster.
type passResult struct {
	setups []time.Duration
	timed  loop
	// failed counts transactions of the stream that did not commit.
	failed int
	// problem describes a correctness violation ("" when none).
	problem  string
	netBytes int64 // over the timed part
	liveHeap uint64
	// layer holds the per-layer metrics of a traced pass.
	layer map[string]metric
}

// snapshot is the state of every counter a pass reads, at a quiescent
// point.
type snapshot struct {
	msgs, bytes   int64
	cpu           time.Duration
	alloc         float64
	gcCPU, anyCPU float64
	committed     int64
	sched, lock   float64 // breakdown sums, ns
	remote, othr  float64
	rel           network.ReliableStats
	fus           fusion.Stats
	journal       int64
}

func takeSnapshot(b *bench, pr *probes) snapshot {
	var s snapshot
	s.msgs, s.bytes = b.c.NetStats().Totals()
	s.cpu = processCPU()
	samples := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(samples)
	s.alloc = sampleValue(samples[0])
	s.gcCPU = sampleValue(samples[1])
	s.anyCPU = sampleValue(samples[2])
	col := b.c.Collector()
	s.committed = col.Committed()
	bd := col.AvgBreakdown()
	n := float64(s.committed)
	s.sched = float64(bd.Scheduling) * n
	s.lock = float64(bd.LockWait) * n
	s.remote = float64(bd.RemoteWait) * n
	s.othr = float64(bd.Other) * n
	s.rel = b.c.ReliableStats()
	if pr != nil && len(pr.replicas) > 0 {
		if f := pr.replicas[0].Placement().Fusion; f != nil {
			s.fus = f.Stats()
		}
	}
	s.journal = b.journalBytes()
	return s
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sampleValue(s rtmetrics.Sample) float64 {
	switch s.Value.Kind() {
	case rtmetrics.KindUint64:
		return float64(s.Value.Uint64())
	case rtmetrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// runPass sets up a cluster `setups` times (keeping the last), runs the
// warm-up prefix, quiesces, times the rest of the stream, quiesces again,
// and checks every row. With probes it is the traced pass and also derives
// the per-layer metrics.
func runPass(cfg config, stream []*tx.CounterProc, want []uint32, pr *probes, setups int) (*passResult, error) {
	res := &passResult{}
	var b *bench
	for i := 0; i < setups; i++ {
		if b != nil {
			b.close()
		}
		var err error
		if b, err = newBench(cfg.wl, cfg.rows, cfg.workdir, pr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, b.setup)
	}
	defer b.close()

	if w := drive(b.c, procedures(stream[:cfg.warmup]), nil); w.failed > 0 {
		res.failed = w.failed + cfg.timed
		res.problem = stalled(b.c, "warm-up", w.failed)
		return res, nil
	}
	if err := b.c.DrainDetail(drainTimeout); err != nil {
		res.problem = fmt.Sprintf("warm-up did not quiesce: %v", err)
		return res, nil
	}

	timed := stream[cfg.warmup:]
	var procs []tx.Procedure
	if pr != nil {
		procs = pr.wrap(timed, !cfg.wl.reliable)
	} else {
		procs = procedures(timed)
	}
	// Every timed run starts from a fresh GC cycle, so the cycles it pays
	// for depend on its own allocations, not on where warm-up left off.
	runtime.GC()
	s0 := takeSnapshot(b, pr)
	if pr != nil {
		pr.on.Store(true)
		pr.startDepths(b.c)
	}
	res.timed = drive(b.c, procs, pr)
	if pr != nil {
		pr.stopDepths()
	}
	if res.timed.failed > 0 {
		res.failed = res.timed.failed
		res.problem = stalled(b.c, "timed run", res.timed.failed)
		return res, nil
	}
	if err := b.c.DrainDetail(drainTimeout); err != nil {
		res.problem = fmt.Sprintf("run did not quiesce: %v", err)
		return res, nil
	}
	if pr != nil {
		pr.on.Store(false)
	}
	s1 := takeSnapshot(b, pr)
	res.netBytes = s1.bytes - s0.bytes

	runtime.GC()
	if h := liveHeap(); h > b.heapBase {
		res.liveHeap = h - b.heapBase
	}
	res.problem = checkCounters(b.c, want)
	if pr != nil {
		res.layer = layerMetrics(pr, s0, s1, len(procs))
		if res.problem == "" {
			res.problem = checkNetTable(pr, s0, s1)
		}
	}
	return res, nil
}

func procedures(ps []*tx.CounterProc) []tx.Procedure {
	out := make([]tx.Procedure, len(ps))
	for i, p := range ps {
		out[i] = p
	}
	return out
}

// stalled describes a stalled closed loop with the cluster's own
// diagnosis of what it is stuck behind.
func stalled(c *engine.Cluster, phase string, n int) string {
	why := "the cluster then drained on a forced flush"
	if err := c.DrainDetail(time.Second); err != nil {
		why = err.Error()
	}
	return fmt.Sprintf("%s stalled: %d transactions uncommitted after %v without progress; %s", phase, n, stallAfter, why)
}

// checkNetTable verifies that the per-type table explains every message
// and byte the transport counted.
func checkNetTable(pr *probes, s0, s1 snapshot) string {
	var msgs, bytes int64
	for t := range pr.net.msgs {
		msgs += pr.net.msgs[t].Load()
		bytes += pr.net.bytes[t].Load()
	}
	if msgs != s1.msgs-s0.msgs || bytes != s1.bytes-s0.bytes {
		return fmt.Sprintf("per-type table holds %d msgs / %d B, transport counted %d / %d",
			msgs, bytes, s1.msgs-s0.msgs, s1.bytes-s0.bytes)
	}
	return ""
}

// tableTypes are the message types reported one by one; the rest are
// summed into Other.
var tableTypes = []network.MsgType{
	network.MsgRecordPush, network.MsgSeqForward, network.MsgSeqDeliver,
	network.MsgSeqAck, network.MsgLinkAck,
}

// layerMetrics derives the per-layer metrics of a traced pass over n
// timed transactions.
func layerMetrics(pr *probes, s0, s1 snapshot, n int) map[string]metric {
	N := float64(n)
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// sequencer
	var submitNs float64
	for i := range pr.submitStart {
		submitNs += float64(pr.submitEnd[i] - pr.submitStart[i])
	}
	put("sequencer.submit_us", ratio(submitNs, N)/1e3, "us")
	p50, p99 := spanQuantiles(pr.submitStart, pr.routed)
	put("sequencer.submit_to_route_ms.p50", p50, "ms")
	put("sequencer.submit_to_route_ms.p99", p99, "ms")

	// core (routing)
	var busy, calls float64
	for _, r := range pr.replicas {
		busy += float64(r.busyNs)
		calls += float64(r.calls)
	}
	r0 := pr.replicas[0]
	routes := float64(r0.routes)
	var maxMaster int64
	for _, c := range r0.masters {
		maxMaster = max(maxMaster, c)
	}
	put("core.route_us_per_batch", ratio(busy, calls)/1e3, "us")
	put("core.route_cpu_share", ratio(busy, float64(s1.cpu-s0.cpu)), "ratio")
	put("core.remote_reads_per_txn", ratio(float64(r0.remoteReads), N), "count")
	put("core.migrations_per_txn", ratio(float64(r0.migrations), N), "count")
	put("core.distributed_frac", ratio(float64(r0.distributed), routes), "ratio")
	put("core.max_master_share", ratio(float64(maxMaster), routes), "ratio")

	// fusion
	put("fusion.size", float64(s1.fus.Size), "count")
	put("fusion.inserts_per_ktxn", ratio(float64(s1.fus.Inserts-s0.fus.Inserts)*1000, N), "count")
	put("fusion.evictions_per_ktxn", ratio(float64(s1.fus.Evictions-s0.fus.Evictions)*1000, N), "count")

	// network
	var allMsgs float64
	var otherMsgs, otherBytes int64
	reported := map[network.MsgType]bool{}
	for _, t := range tableTypes {
		reported[t] = true
		put("network.msgs_per_txn."+t.String(), ratio(float64(pr.net.msgs[t].Load()), N), "count")
		put("network.bytes_per_txn."+t.String(), ratio(float64(pr.net.bytes[t].Load()), N), "B")
	}
	for t := range pr.net.msgs {
		c := pr.net.msgs[t].Load()
		allMsgs += float64(c)
		if !reported[network.MsgType(t)] {
			otherMsgs += c
			otherBytes += pr.net.bytes[t].Load()
		}
	}
	put("network.msgs_per_txn.Other", ratio(float64(otherMsgs), N), "count")
	put("network.bytes_per_txn.Other", ratio(float64(otherBytes), N), "B")
	put("network.msgs_per_txn", ratio(allMsgs, N), "count")
	put("network.send_us", ratio(float64(pr.net.sendNs.Load()), float64(pr.net.sends.Load()))/1e3, "us")

	// network.reliable
	put("network.reliable.retransmits_per_ktxn", ratio(float64(s1.rel.Retransmits-s0.rel.Retransmits)*1000, N), "count")
	put("network.reliable.dups_per_ktxn", ratio(float64(s1.rel.DupsDropped-s0.rel.DupsDropped)*1000, N), "count")
	put("network.reliable.acks_per_txn", ratio(float64(s1.rel.Acks-s0.rel.Acks), N), "count")
	put("network.reliable.unacked_mean", ratio(float64(pr.unackedSum), float64(pr.depthN)), "count")
	put("network.reliable.backlog_mean", ratio(float64(pr.backlogSum), float64(pr.depthN)), "count")

	// network.journal
	jr := &pr.journal
	put("network.journal.append_us", ratio(float64(jr.appendNs.Load()), float64(jr.appends.Load()))/1e3, "us")
	put("network.journal.frames_per_txn", ratio(float64(jr.appends.Load()), N), "count")
	put("network.journal.bytes_per_txn", ratio(float64(s1.journal-s0.journal), N), "B")
	put("network.journal.ack_gate_ms", ratio(float64(jr.gateNs.Load()), float64(jr.gates.Load()))/1e6, "ms")

	// lock / engine: the collector's mean breakdown over the timed commits
	commits := float64(s1.committed - s0.committed)
	put("lock.wait_ms", ratio(s1.lock-s0.lock, commits)/1e6, "ms")
	put("engine.scheduling_ms", ratio(s1.sched-s0.sched, commits)/1e6, "ms")
	put("engine.remote_wait_ms", ratio(s1.remote-s0.remote, commits)/1e6, "ms")
	put("engine.other_ms", ratio(s1.othr-s0.othr, commits)/1e6, "ms")
	put("engine.execute_us", ratio(float64(pr.execNs.Load()), float64(pr.execs.Load()))/1e3, "us")

	// runtime
	put("runtime.cpu_us_per_txn", ratio(float64(s1.cpu-s0.cpu)/1e3, N), "us")
	put("runtime.alloc_bytes_per_txn", ratio(s1.alloc-s0.alloc, N), "B")
	put("runtime.gc_cpu_frac", ratio(s1.gcCPU-s0.gcCPU, s1.anyCPU-s0.anyCPU), "ratio")
	return m
}
