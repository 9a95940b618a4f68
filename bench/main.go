// Command bench is the repository's benchmark: six workloads, measured end
// to end with tracing off and layer by layer in a separate traced pass.
// README.md in this directory defines the vocabulary; BENCHMARK.json at the
// repository root is the contract later changes are checked against.
//
//	go run ./bench -seed 42                      every workload, end to end
//	go run ./bench -seed 42 -trace 1             every workload, traced pass
//	go run ./bench -workload cold_fd -seed 7     one workload; last line is the driver's JSON
//	go run ./bench -compare old.json new.json    verdict per workload × metric
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeconds is the timed-phase budget per workload; BENCHMARK.json's
// run_seconds repeats it.
const defaultSeconds = 8

type config struct {
	seed    int64
	seconds float64
	trace   bool
	sc      scale
	tmp     string // durable sessions live under it; removed afterwards
	results string // trace files go here; "" keeps them in memory only
}

func main() {
	workload := flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all six)")
	seed := flag.Int64("seed", 42, "every input is generated from it")
	seconds := flag.Float64("seconds", defaultSeconds, "timed-phase budget per workload of the end-to-end pass")
	trace := flag.Int("trace", 0, "1: run the traced pass (per-layer metrics) in place of the end-to-end pass")
	scaleName := flag.String("scale", "full", "input sizes: full or tiny")
	out := flag.String("out", "", "result file to append the runs to (default with all workloads: <results>/latest.json)")
	results := flag.String("results", filepath.Join("bench", "results"), "directory for trace_<workload>.json and latest.json")
	tmp := flag.String("tmp", ".bench_tmp", "directory for durable sessions, inside the checkout")
	compare := flag.Bool("compare", false, "compare two result files: [-out ledger.json] -compare old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench [-out ledger.json] -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), *out))
	}
	sc, ok := scales[*scaleName]
	if !ok || flag.NArg() != 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-scale full|tiny] [-out file]")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, sc: sc, tmp: *tmp, results: *results}

	names := workloadNames()
	if *workload != "" {
		if _, ok := findWorkload(*workload); !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (have %v)\n", *workload, names)
			os.Exit(2)
		}
		names = []string{*workload}
	} else if *out == "" {
		*out = filepath.Join(cfg.results, "latest.json")
	}

	// The driver allows a run 180 s; stop well short of it rather than be
	// killed mid-write.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second*time.Duration(len(names)))
	defer cancel()
	var runs []runRecord
	failed := false
	for _, name := range names {
		rec, err := runWorkload(ctx, cfg, name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		printRun(os.Stdout, rec)
		failed = failed || !rec.Correct
		runs = append(runs, *rec)
	}
	if *out != "" {
		if err := appendRuns(*out, runs); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("appended %d run(s) to %s\n", len(runs), *out)
	}
	if *workload != "" {
		fmt.Println(contractLine(&runs[0]))
	}
	if failed {
		os.Exit(1)
	}
}

// runWorkload generates one workload's inputs from the seed and measures it:
// the end-to-end pass, or the traced pass when cfg.trace is set.
func runWorkload(ctx context.Context, cfg config, name string) (*runRecord, error) {
	w, _ := findWorkload(name)
	start := time.Now()
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	in, err := genInputs(name, cfg.sc, cfg.seed)
	if err != nil {
		return nil, err
	}
	e := &env{sc: cfg.sc, seconds: cfg.seconds, tmp: cfg.tmp, clients: min(2, runtime.NumCPU())}
	rec := &runRecord{Workload: name, Trace: cfg.trace, Seconds: cfg.seconds, Clients: 1, Metrics: map[string]metric{}}
	if name == "serve_warm" {
		rec.Clients = e.clients
	}
	m := newMeter()
	if cfg.trace {
		layers, file := tracedPass(ctx, e, name, cfg.seed, in, m)
		rec.Layers = layers
		for _, d := range perLayer {
			rec.Metrics[d.Name] = layers[d.Name]
		}
		rec.Samples = len(file.Queries)
		rec.Notes = findings(name, layers)
		if cfg.results != "" {
			if err := writeJSON(filepath.Join(cfg.results, "trace_"+name+".json"), file); err != nil {
				return nil, err
			}
		}
	} else {
		w.run(ctx, e, in, m)
		rec.Samples = len(m.latMS)
		rec.Metrics = m.endToEnd()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("out of time: %w", err)
	}
	rec.Attempted, rec.Failed = max(m.attempted, 1), m.failed
	rec.FailedOps = float64(rec.Failed) / float64(rec.Attempted)
	rec.Correct = rec.Failed == 0
	rec.Notes = append(rec.Notes, m.notes...)
	for name, v := range rec.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit == "" {
			return nil, fmt.Errorf("metric %s was not measured (%d of %d operations failed: %v)", name, m.failed, m.attempted, m.notes)
		}
	}
	rec.Provenance = newProvenance(cfg.seed, cfg.sc, cfg.tmp, start)
	rec.Provenance.WallS = time.Since(start).Seconds()
	return rec, nil
}

// endToEnd turns the meter's series into the end-to-end metrics: pooled
// latencies give the percentiles, every other series reports its median.
// Series a workload never fed are absent, not zero.
func (m *meter) endToEnd() map[string]metric {
	series := map[string][]float64{
		"queries_per_s":      m.qps,
		"setup_s":            m.setupS,
		"alloc_kb_per_query": m.allocKB,
		"heap_bytes_per_row": m.heapB,
		"sweep_rows_per_s":   m.sweep,
		"reopen_s":           m.reopenS,
	}
	out := map[string]metric{}
	for _, d := range endToEnd {
		switch s := series[d.Name]; {
		case d.Name == "query_p50_ms":
			out[d.Name] = metric{percentile(m.latMS, 0.50), d.Unit}
		case d.Name == "query_p95_ms":
			out[d.Name] = metric{percentile(m.latMS, 0.95), d.Unit}
		case d.Everywhere || len(s) > 0:
			out[d.Name] = metric{median(s), d.Unit}
		}
	}
	return out
}
