package main

import (
	"io"
	"strings"
	"testing"
)

// isCount reports whether a metric is a count fixed by the stream alone
// (as opposed to a time, a rate, or a figure the scheduler's timing moves).
func isCount(name string) bool {
	switch {
	case name == "net_bytes_per_txn",
		strings.HasPrefix(name, "fusion."),
		strings.HasPrefix(name, "network.bytes_per_txn."),
		strings.HasPrefix(name, "network.msgs_per_txn"):
		return true
	case strings.HasPrefix(name, "core."):
		return name != "core.route_us_per_batch" && name != "core.route_cpu_share"
	}
	return false
}

// counts runs a small untraced and a small traced run of wl and returns
// their count-type metrics.
func counts(t *testing.T, wl string, seed int64) map[string]float64 {
	t.Helper()
	w, err := lookupWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, trace := range []bool{false, true} {
		cfg := config{
			wl: w, seed: seed, trace: trace, workdir: t.TempDir(),
			rows: 20_000, warmup: 600, timed: 3000, setups: 1,
		}
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != cfg.warmup+cfg.timed {
			t.Fatalf("%s seed %d trace %v: correct=%v failed=%d attempted=%d",
				wl, seed, trace, res.Correct, res.Failed, res.Attempted)
		}
		for name, m := range res.Metrics {
			if isCount(name) {
				out[name] = m.Value
			}
		}
	}
	return out
}

func TestCountsRepeatPerSeed(t *testing.T) {
	for _, wl := range []string{"ycsb", "local_reads"} {
		t.Run(wl, func(t *testing.T) {
			a, b, other := counts(t, wl, 7), counts(t, wl, 7), counts(t, wl, 8)
			if len(a) < 20 {
				t.Fatalf("only %d count metrics: %v", len(a), a)
			}
			differ := 0
			for name, v := range a {
				if b[name] != v {
					t.Errorf("%s: seed 7 gave %v then %v", name, v, b[name])
				}
				if other[name] != v {
					differ++
				}
			}
			if a["net_bytes_per_txn"] == other["net_bytes_per_txn"] || differ == 0 {
				t.Errorf("seed 8 repeated seed 7's counts (%d of %d differ)", differ, len(a))
			}
		})
	}
}
