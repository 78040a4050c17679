package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"hermes/internal/engine"
	"hermes/internal/network"
	"hermes/internal/router"
	"hermes/internal/tx"
)

// probes measures the layers from outside the engine, at the injection
// points engine.Config exports: the routing-policy factory, the transport
// wrapper, the journal hooks, and the submitted procedures. Every counter
// accumulates only while on is set, which is exactly the timed phase; the
// cluster is quiescent when it flips, so each count covers whole batches.
type probes struct {
	on   atomic.Bool
	base time.Time

	// idx maps each timed procedure, as submitted, to its stream position.
	// It is filled before the timed phase and only read during it.
	idx map[tx.Procedure]int32
	// Per-transaction span edges in ns since base (0 = not seen).
	// submitStart/submitEnd are written by the single submitter.
	submitStart, submitEnd     []int64
	routed, execStart, execEnd []atomic.Int64
	execNs, execs              atomic.Int64

	// replicas holds one probe per node, in node order; engine.New fills
	// it from the goroutine that reads it.
	replicas []*routeProbe

	net     netProbe
	journal struct {
		appendNs, appends atomic.Int64
		gateNs, gates     atomic.Int64
	}

	depthStop  chan struct{}
	depthDone  chan struct{}
	depthN     int64
	unackedSum int64
	backlogSum int64
}

func newProbes(timed int) *probes {
	pr := &probes{
		base:        time.Now(),
		idx:         make(map[tx.Procedure]int32, timed),
		submitStart: make([]int64, timed),
		submitEnd:   make([]int64, timed),
		routed:      make([]atomic.Int64, timed),
		execStart:   make([]atomic.Int64, timed),
		execEnd:     make([]atomic.Int64, timed),
	}
	pr.net.pr = pr
	return pr
}

// now is ns since base, never 0 so that 0 can mean "not seen".
func (pr *probes) now() int64 { return int64(time.Since(pr.base)) + 1 }

// install threads the policy and transport probes into cfg.
func (pr *probes) install(cfg *engine.Config) {
	inner := cfg.Policy
	cfg.Policy = func(active []tx.NodeID) router.Policy {
		rp := &routeProbe{Policy: inner(active), pr: pr, counting: len(pr.replicas) == 0}
		pr.replicas = append(pr.replicas, rp)
		return rp
	}
	cfg.WrapTransport = func(t network.Transport) network.Transport {
		pr.net.Transport = t
		return &pr.net
	}
}

// wrap returns the procedures to submit for the timed stream. Wrapping
// times Execute; the journaled workload submits plain procedures, because
// its journal gob-encodes every delivered batch and only knows
// tx.CounterProc.
func (pr *probes) wrap(procs []*tx.CounterProc, timeExec bool) []tx.Procedure {
	out := make([]tx.Procedure, len(procs))
	for i, p := range procs {
		out[i] = p
		if timeExec {
			out[i] = &timedProc{CounterProc: p, i: int32(i), pr: pr}
		}
		pr.idx[out[i]] = int32(i)
	}
	return out
}

// timedProc times one transaction's Execute at its master.
type timedProc struct {
	*tx.CounterProc
	i  int32
	pr *probes
}

func (p *timedProc) Execute(ctx tx.ExecCtx) {
	t0 := p.pr.now()
	p.CounterProc.Execute(ctx)
	t1 := p.pr.now()
	if p.pr.execStart[p.i].CompareAndSwap(0, t0) {
		p.pr.execEnd[p.i].Store(t1)
	}
	p.pr.execNs.Add(t1 - t0)
	p.pr.execs.Add(1)
}

// routeSpan is one RouteUser call on one replica; its parent is the
// timed batch with the same index on every replica.
type routeSpan struct {
	batch      int32
	txns       int32
	start, end int64
}

// routeProbe wraps one node's routing replica. Replicas route every batch
// identically, so only the first one counts routes; all of them time.
// Each replica is called only from its node's scheduler goroutine, and the
// fields are read after the cluster drains.
type routeProbe struct {
	router.Policy
	pr       *probes
	counting bool

	calls  int32
	spans  []routeSpan
	busyNs int64

	routes, remoteReads, migrations, distributed int64
	masters                                      [nodes]int64
}

func (r *routeProbe) RouteUser(txns []*tx.Request) []*router.Route {
	if !r.pr.on.Load() {
		return r.Policy.RouteUser(txns)
	}
	t0 := r.pr.now()
	out := r.Policy.RouteUser(txns)
	t1 := r.pr.now()
	r.spans = append(r.spans, routeSpan{batch: r.calls, txns: int32(len(txns)), start: t0, end: t1})
	r.calls++
	r.busyNs += t1 - t0
	for _, req := range txns {
		if i, ok := r.pr.idx[req.Proc]; ok {
			r.pr.routed[i].CompareAndSwap(0, t0)
		}
	}
	if r.counting {
		for _, rt := range out {
			r.count(rt)
		}
	}
	return out
}

func (r *routeProbe) count(rt *router.Route) {
	if rt.Mode != router.SingleMaster {
		return
	}
	r.routes++
	if m := int(rt.Master); m >= 0 && m < nodes {
		r.masters[m]++
	}
	remote := 0
	countKey := func(k tx.Key) {
		if owner, ok := rt.Owners.Lookup(k); ok && owner != rt.Master {
			remote++
		}
	}
	for _, k := range rt.Txn.ReadSet() {
		countKey(k)
	}
	for _, k := range rt.Txn.WriteSet() {
		if !tx.ContainsKey(rt.Txn.ReadSet(), k) {
			countKey(k)
		}
	}
	moved := false
	for _, m := range rt.Migrations {
		if m.From != m.To {
			r.migrations++
			moved = true
		}
	}
	r.remoteReads += int64(remote)
	if remote > 0 || moved {
		r.distributed++
	}
}

// numMsgTypes covers every network.MsgType with room to spare.
const numMsgTypes = 32

// netProbe counts messages and bytes per type exactly as the channel
// transport's own Stats do (successful sends between distinct nodes,
// sized by WireSize), so its table adds up to NetStats().Totals().
type netProbe struct {
	network.Transport
	pr            *probes
	msgs, bytes   [numMsgTypes]atomic.Int64
	sendNs, sends atomic.Int64
}

func (t *netProbe) Send(m network.Message) error {
	if !t.pr.on.Load() {
		return t.Transport.Send(m)
	}
	size := m.WireSize()
	t0 := time.Now()
	err := t.Transport.Send(m)
	t.sendNs.Add(int64(time.Since(t0)))
	t.sends.Add(1)
	if err == nil && m.From != m.To && int(m.Type) < numMsgTypes {
		t.msgs[m.Type].Add(1)
		t.bytes[m.Type].Add(int64(size))
	}
	return err
}

// journalSink is engine.Config.JournalFor's per-node sink, timing Append.
func (pr *probes) journalSink(j *network.Journal) func(network.Message) {
	if pr == nil {
		return j.Append
	}
	return func(m network.Message) {
		if !pr.on.Load() {
			j.Append(m)
			return
		}
		t0 := time.Now()
		j.Append(m)
		pr.journal.appendNs.Add(int64(time.Since(t0)))
		pr.journal.appends.Add(1)
	}
}

// ackGate is engine.Config.AckGateFor's per-node gate, timing how long an
// ack waits for the journal's durability promise.
func (pr *probes) ackGate(j *network.Journal) func(func()) {
	if pr == nil {
		return j.AfterDurable
	}
	return func(fn func()) {
		if !pr.on.Load() {
			j.AfterDurable(fn)
			return
		}
		t0 := time.Now()
		j.AfterDurable(func() {
			pr.journal.gateNs.Add(int64(time.Since(t0)))
			pr.journal.gates.Add(1)
			fn()
		})
	}
}

// startDepths samples the reliable layer's queue depths until stopDepths.
func (pr *probes) startDepths(c *engine.Cluster) {
	pr.depthStop = make(chan struct{})
	pr.depthDone = make(chan struct{})
	go func() {
		defer close(pr.depthDone)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-pr.depthStop:
				return
			case <-tick.C:
				u, b := c.ReliableDepths()
				pr.unackedSum += u
				pr.backlogSum += b
				pr.depthN++
			}
		}
	}()
}

func (pr *probes) stopDepths() {
	close(pr.depthStop)
	<-pr.depthDone
}

// writeSpans writes the timed phase's spans as tab-separated lines
// "span id parent node start_ns end_ns", times relative to the run's
// start: one batch span per timed batch (covering its route spans), one
// route span per batch per replica node with that batch as parent, and
// per transaction its submit, submit_to_route and execute spans, all
// carrying the transaction's stream position as id.
func (pr *probes) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	emit := func(name string, id int, parent string, node int, start, end int64) {
		if start != 0 && end >= start {
			fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%d\n", name, id, parent, node, start, end)
		}
	}
	fmt.Fprintln(w, "span\tid\tparent\tnode\tstart_ns\tend_ns")
	type cover struct{ start, end int64 }
	var batches []cover
	for _, r := range pr.replicas {
		for _, s := range r.spans {
			for int(s.batch) >= len(batches) {
				batches = append(batches, cover{})
			}
			b := &batches[s.batch]
			if b.start == 0 || s.start < b.start {
				b.start = s.start
			}
			b.end = max(b.end, s.end)
		}
	}
	for i, b := range batches {
		emit("batch", i, "-", -1, b.start, b.end)
	}
	for n, r := range pr.replicas {
		for _, s := range r.spans {
			emit("route", int(s.batch), fmt.Sprintf("batch/%d", s.batch), n, s.start, s.end)
		}
	}
	for i := range pr.submitStart {
		emit("submit", i, "-", 0, pr.submitStart[i], pr.submitEnd[i])
		emit("submit_to_route", i, "-", 0, pr.submitStart[i], pr.routed[i].Load())
		emit("execute", i, "-", -1, pr.execStart[i].Load(), pr.execEnd[i].Load())
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// spanQuantiles returns the exact p50 and p99 of end-start over every
// transaction whose both edges were seen, in ms.
func spanQuantiles(start []int64, end []atomic.Int64) (p50, p99 float64) {
	d := make([]int64, 0, len(start))
	for i, s := range start {
		if e := end[i].Load(); s != 0 && e >= s {
			d = append(d, e-s)
		}
	}
	return quantiles(d)
}
