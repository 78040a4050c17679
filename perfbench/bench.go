package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hermes"
	"hermes/internal/engine"
	"hermes/internal/network"
	"hermes/internal/partition"
	"hermes/internal/sequencer"
	"hermes/internal/tx"
)

// stallAfter is how long a closed loop may go without a single completion
// before the run is declared stalled: far beyond any healthy latency
// (tens of ms), far below the run's time limit.
const stallAfter = 10 * time.Second

// bench is one cluster under test plus the journals it owns.
type bench struct {
	c        *engine.Cluster
	journals []*network.Journal
	dir      string
	// heapBase is the live heap just before engine.New.
	heapBase uint64
	setup    time.Duration
}

// newBench builds the in-process cluster the way harness.RunTwin does —
// hermes.PolicyFactoryFor plus engine.New, size-only sealing — and loads
// the table. setup times engine.New through the last loaded row.
func newBench(wl workload, nRows uint64, workdir string, pr *probes) (*bench, error) {
	pf, err := hermes.PolicyFactoryFor(hermes.PolicyHermes,
		partition.NewUniformRange(0, nRows, nodes), alpha, int(nRows/40))
	if err != nil {
		return nil, err
	}
	ids := make([]tx.NodeID, nodes)
	for i := range ids {
		ids[i] = tx.NodeID(i)
	}
	cfg := engine.Config{
		Nodes:  ids,
		Policy: pf,
		// Size-only batches; drive flushes the tail once the leader
		// holds every submission, so batch composition is seed-determined.
		Seq:      sequencer.Config{BatchSize: batchSize, Interval: time.Hour},
		ExecMode: engine.ExecModeLock,
	}
	b := &bench{}
	if wl.reliable {
		if b.dir, err = os.MkdirTemp(workdir, "journal-"); err != nil {
			return nil, fmt.Errorf("journal dir: %w", err)
		}
		for i := 0; i < nodes; i++ {
			j, err := network.OpenJournalWith(b.journalDir(i), network.JournalOpts{Policy: network.SyncNone})
			if err != nil {
				b.close()
				return nil, err
			}
			b.journals = append(b.journals, j)
		}
		cfg.Reliable = true
		cfg.JournalFor = func(n tx.NodeID) func(network.Message) {
			if n < 0 || int(n) >= nodes {
				return nil // sequencer pseudo-nodes keep no journal
			}
			return pr.journalSink(b.journals[n])
		}
		cfg.AckGateFor = func(n tx.NodeID) func(func()) {
			if n < 0 || int(n) >= nodes {
				return nil
			}
			return pr.ackGate(b.journals[n])
		}
	}
	if pr != nil {
		pr.install(&cfg)
	}
	runtime.GC()
	b.heapBase = liveHeap()
	t0 := time.Now()
	if b.c, err = engine.New(cfg); err != nil {
		b.close()
		return nil, err
	}
	for r := uint64(0); r < nRows; r++ {
		b.c.LoadRecord(tx.MakeKey(0, r), make([]byte, payload))
	}
	b.setup = time.Since(t0)
	return b, nil
}

func (b *bench) close() {
	if b.c != nil {
		b.c.Stop()
	}
	for _, j := range b.journals {
		j.Close()
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

func (b *bench) journalDir(node int) string {
	return filepath.Join(b.dir, fmt.Sprintf("node%d", node))
}

// journalBytes sums the on-disk size of every node's journal.
func (b *bench) journalBytes() int64 {
	var n int64
	for i := range b.journals {
		if st, err := os.Stat(filepath.Join(b.journalDir(i), "journal.log")); err == nil {
			n += st.Size()
		}
	}
	return n
}

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// loop is the outcome of one closed-loop drive.
type loop struct {
	n       int
	failed  int
	elapsed time.Duration
	cpu     time.Duration // process CPU time over the drive
	// tps is committed txn/s over the whole drive; p50 and p99 are exact
	// latency quantiles in ms, from all of its sorted samples.
	tps, p50, p99 float64
}

// drive sends procs through node 0's front-end as a closed loop with
// `window` transactions in flight from a single submitter, flushes the
// tail batch only once the leader provably holds every submission (as
// harness/driver.go does), and waits for every completion. Latency is
// from the Submit call until the done channel closes. A run with no
// completion for stallAfter is aborted; its unfinished transactions count
// as failed.
func drive(c *engine.Cluster, procs []tx.Procedure, pr *probes) loop {
	res := loop{n: len(procs)}
	lat := make([]int64, len(procs)) // ns; 0 = did not complete
	var completed atomic.Int64
	abort := make(chan struct{})
	watchDone := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		last, lastAt := int64(-1), time.Now()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-watchDone:
				return
			case <-tick.C:
				if n := completed.Load(); n != last {
					last, lastAt = n, time.Now()
				} else if time.Since(lastAt) > stallAfter {
					close(abort)
					return
				}
			}
		}
	}()
	defer func() {
		close(watchDone)
		watch.Wait()
	}()

	sealedBase := c.SeqStats().Txns
	sem := make(chan struct{}, window)
	var wg sync.WaitGroup
	cpu0 := processCPU()
	start := time.Now()
	submitted := 0
submit:
	for i, p := range procs {
		select {
		case sem <- struct{}{}:
		case <-abort:
			break submit
		}
		if pr != nil {
			pr.submitStart[pr.idx[p]] = pr.now()
		}
		t0 := time.Now()
		ch, err := c.Submit(0, p)
		if pr != nil {
			pr.submitEnd[pr.idx[p]] = pr.now()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: submit %d: %v\n", i, err)
			<-sem
			break
		}
		submitted++
		wg.Add(1)
		go func(i int, t0 time.Time, ch <-chan struct{}) {
			defer wg.Done()
			select {
			case <-ch:
				lat[i] = int64(time.Since(t0))
				completed.Add(1)
			case <-abort:
			}
			<-sem
		}(i, t0, ch)
	}
	// Flushing before the leader holds every submission would split the
	// tail wherever arrivals happened to stand.
tail:
	for {
		st := c.SeqStats()
		if st.Txns-sealedBase+int64(st.Pending) >= int64(submitted) {
			if st.Pending == 0 {
				break
			}
			c.SeqFlush()
		}
		select {
		case <-abort:
			break tail
		case <-time.After(200 * time.Microsecond):
		}
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = processCPU() - cpu0
	res.failed = len(procs) - int(completed.Load())
	done := make([]int64, 0, len(lat))
	for _, l := range lat {
		if l > 0 {
			done = append(done, l)
		}
	}
	res.tps = float64(len(done)) / res.elapsed.Seconds()
	res.p50, res.p99 = quantiles(done)
	return res
}

// quantiles sorts samples (ns) and returns their exact p50 and p99 in ms.
func quantiles(samples []int64) (p50, p99 float64) {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return float64(quantile(samples, 0.50)) / 1e6, float64(quantile(samples, 0.99)) / 1e6
}

// quantile is the nearest-rank q-quantile of sorted samples (0 if none).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// checkCounters reads every row back and compares its counter with the
// number of writes the stream made to it; it also checks that migration
// conserved the row count. It returns a description of the first
// violations, or "" when the state is correct.
func checkCounters(c *engine.Cluster, want []uint32) string {
	bad := 0
	first := ""
	for r, w := range want {
		v, ok := c.ReadRecord(tx.MakeKey(0, uint64(r)))
		var got uint64
		if ok && len(v) >= 8 {
			got = binary.LittleEndian.Uint64(v)
		}
		if !ok || len(v) != payload || got != uint64(w) {
			if bad == 0 {
				first = fmt.Sprintf("row %d: present=%v len=%d counter=%d, want %d", r, ok, len(v), got, w)
			}
			bad++
		}
	}
	if n := c.TotalRecords(); n != len(want) {
		return fmt.Sprintf("cluster holds %d records, loaded %d", n, len(want))
	}
	if bad > 0 {
		return fmt.Sprintf("%d rows with a wrong counter, first %s", bad, first)
	}
	return ""
}
