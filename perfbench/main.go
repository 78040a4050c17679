// Command perfbench is the repository benchmark: a seeded closed-loop run
// of one workload on the in-process Hermes cluster, printing every
// end-to-end metric (or, with --trace 1, every per-layer metric) by name
// and unit, after a correctness gate. See NOTES.md.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload ycsb --seed 1 --seconds 6 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// config is one benchmark invocation.
type config struct {
	wl      workload
	seed    int64
	trace   bool
	workdir string
	rows    uint64
	warmup  int // transactions run before timing starts
	timed   int // transactions timed
	setups  int // set-ups per untraced run; setup_s is their median
	// spans, when non-empty, is where a traced run writes its spans.
	spans string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: ycsb, local_reads or journaled")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 6, "run length; the timed stream is seconds × the workload's nominal rate")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for journals and span files")
	flag.Parse()
	wl, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := config{
		wl: wl, seed: *seed, trace: *trace == 1, workdir: *workdir, rows: rows,
		// Twice the fusion capacity: ycsb inserts about 0.5 fusion entries
		// per transaction, so the table is full before timing starts.
		warmup: 2 * fusionCap,
		timed:  *seconds * wl.rate,
		setups: 3,
	}
	if cfg.trace {
		cfg.spans = filepath.Join(*workdir, "spans-"+wl.name+".tsv")
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run generates the stream from the seed, then runs one untraced pass
// (end-to-end metrics) or an untraced and a traced pass (per-layer
// metrics plus tracing overhead). Report lines go to log; the result is
// returned for the caller to print last.
func run(cfg config, log io.Writer) (*result, error) {
	stream, err := cfg.wl.gen(cfg.seed, cfg.rows, cfg.warmup+cfg.timed)
	if err != nil {
		return nil, err
	}
	want := expectedCounters(stream, cfg.rows)
	printJSON(log, "env", environment(cfg))

	res := &result{Correct: true, Attempted: len(stream), Metrics: map[string]metric{}}
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	plain, err := runPass(cfg, stream, want, nil, setups)
	if err != nil {
		return nil, err
	}
	report(log, "untraced", plain)
	res.Failed = plain.failed
	if plain.problem != "" {
		res.Correct = false
		fmt.Fprintln(log, "correctness:", plain.problem)
	}
	if !cfg.trace {
		res.Metrics = plain.endToEnd(cfg)
		printMetrics(log, res.Metrics)
		return res, nil
	}
	if !res.Correct {
		return res, nil
	}

	pr := newProbes(cfg.timed)
	traced, err := runPass(cfg, stream, want, pr, 1)
	if err != nil {
		return nil, err
	}
	report(log, "traced", traced)
	res.Failed = traced.failed
	if traced.problem != "" {
		res.Correct = false
		fmt.Fprintln(log, "correctness (traced):", traced.problem)
		return res, nil
	}
	res.Metrics = traced.layer
	res.Metrics["trace.overhead_frac"] = metric{1 - traced.timed.tps/plain.timed.tps, "ratio"}
	printMetrics(log, res.Metrics)
	if cfg.spans != "" {
		if err := pr.writeSpans(cfg.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintln(log, "spans:", cfg.spans)
	}
	return res, nil
}

// endToEnd derives the untraced metrics over the timed stream; setup_s
// is the median over the set-ups.
func (p *passResult) endToEnd(cfg config) map[string]metric {
	return map[string]metric{
		"tps":               {p.timed.tps, "1/s"},
		"p50_ms":            {p.timed.p50, "ms"},
		"p99_ms":            {p.timed.p99, "ms"},
		"net_bytes_per_txn": {ratio(float64(p.netBytes), float64(cfg.timed)), "B"},
		"live_heap_mb":      {float64(p.liveHeap) / (1 << 20), "MiB"},
		"setup_s":           {median(p.setupSeconds()), "s"},
	}
}

func (p *passResult) setupSeconds() []float64 {
	s := make([]float64, len(p.setups))
	for i, d := range p.setups {
		s[i] = d.Seconds()
	}
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report prints one pass's raw figures: the timed run with its sample
// count, and every set-up.
func report(log io.Writer, name string, p *passResult) {
	t := p.timed
	printJSON(log, name, map[string]any{
		"samples": t.n - t.failed, "failed": p.failed, "seconds": t.elapsed.Seconds(),
		"tps": t.tps, "p50_ms": t.p50, "p99_ms": t.p99,
		"cpu_us_per_txn": ratio(float64(t.cpu.Microseconds()), float64(t.n)),
		"setup_s":        p.setupSeconds(),
	})
}

func printMetrics(log io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "  %-44s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func printJSON(log io.Writer, key string, v any) {
	b, _ := json.Marshal(map[string]any{key: v})
	fmt.Fprintln(log, string(b))
}

// environment records what a result depends on besides the code.
func environment(cfg config) map[string]any {
	fsync := "n/a"
	if cfg.wl.reliable {
		fsync = "none"
	}
	return map[string]any{
		"workload":   cfg.wl.name,
		"seed":       cfg.seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
		"fsync":      fsync,
		"rows":       cfg.rows,
		"warmup":     cfg.warmup,
		"timed":      cfg.timed,
		"window":     window,
		"batch":      batchSize,
		"nodes":      nodes,
		"alpha":      alpha,
		"fusion_cap": cfg.rows / 40,
		"exec_mode":  "lock",
	}
}

// commit is the checked-out git commit, when the working directory is a
// git checkout; only its own .git is consulted.
func commit() string {
	out, err := exec.Command("git", "--git-dir=.git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under the working
// directory, so a result names the code it measured even without git.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
