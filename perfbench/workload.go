package main

import (
	"fmt"
	"math/rand"

	"hermes/internal/harness"
	"hermes/internal/tx"
)

// Shared shape of every workload (see NOTES.md for the reasons).
const (
	nodes      = 4
	rows       = 1_000_000
	payload    = 64
	batchSize  = 100
	window     = 256
	alpha      = 0.25
	fusionCap  = rows / 40 // 2.5% of the rows, hermes.Open's default
	keysPerTxn = 2
	theta      = 0.9
)

// workload is one traffic mix.
type workload struct {
	name string
	// reliable runs the cluster with the reliable layer and one on-disk
	// journal per node.
	reliable bool
	// rate is the committed txn/s the workload sustains on a 2-core box;
	// a run of s seconds times s*rate transactions, so the stream length —
	// and with it every count — is a function of the arguments alone.
	rate int
	gen  func(seed int64, rows uint64, n int) ([]*tx.CounterProc, error)
}

var workloads = []workload{
	{name: "ycsb", rate: 34000, gen: ycsbStream},
	{name: "local_reads", rate: 75000, gen: localReadsStream},
	{name: "journaled", reliable: true, rate: 10000, gen: ycsbStream},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// ycsbStream is the paper's core traffic: scrambled Zipf θ=0.9 over all
// rows, two distinct keys per transaction, every transaction a
// read-modify-write. It is the stream the multi-process harness drives.
func ycsbStream(seed int64, rows uint64, n int) ([]*tx.CounterProc, error) {
	spec := harness.WorkloadSpec{
		Kind:       harness.WorkloadYCSB,
		Seed:       seed,
		Txns:       n,
		Rows:       rows,
		KeysPerTxn: keysPerTxn,
		Payload:    payload,
		Theta:      theta,
		Window:     window,
	}
	return spec.Procs()
}

// localReadsStream keeps both keys of a transaction inside one uniformly
// chosen home partition, uniform within it, so no transaction needs a
// remote record; 90% are read-only and 10% read-modify-write.
func localReadsStream(seed int64, rows uint64, n int) ([]*tx.CounterProc, error) {
	rng := rand.New(rand.NewSource(seed))
	span := rows / nodes
	if span < keysPerTxn {
		return nil, fmt.Errorf("local_reads: %d rows leave fewer than %d keys per partition", rows, keysPerTxn)
	}
	procs := make([]*tx.CounterProc, n)
	for i := range procs {
		// The same bounds as partition.NewUniformRange(0, rows, nodes).
		p := uint64(rng.Intn(nodes))
		lo := rows * p / nodes
		hi := rows * (p + 1) / nodes
		a := lo + uint64(rng.Int63n(int64(hi-lo)))
		b := a
		for b == a {
			b = lo + uint64(rng.Int63n(int64(hi-lo)))
		}
		keys := []tx.Key{tx.MakeKey(0, a), tx.MakeKey(0, b)}
		p0 := &tx.CounterProc{Reads: keys, Payload: payload}
		if rng.Intn(10) == 0 {
			p0.Writes = keys
		}
		procs[i] = p0
	}
	return procs, nil
}

// expectedCounters is the value every row's counter must hold after the
// stream commits: the number of transactions that wrote it.
func expectedCounters(procs []*tx.CounterProc, rows uint64) []uint32 {
	want := make([]uint32, rows)
	for _, p := range procs {
		for _, k := range p.Writes {
			want[k.Row()]++
		}
	}
	return want
}
