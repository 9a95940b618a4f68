package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance says where and on what a run was measured.
type provenance struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"options_workers"` // Options.Workers left 0: resolves to GOMAXPROCS
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Dirty      bool    `json:"git_dirty"`
	Seed       int64   `json:"seed"`
	Scale      string  `json:"scale"`
	TempFS     string  `json:"temp_fs"`
	Start      string  `json:"start"`
	WallS      float64 `json:"wall_s"`
}

// runRecord is one workload measured once: an end-to-end pass (Trace false)
// or a traced pass.
type runRecord struct {
	Workload   string            `json:"workload"`
	Trace      bool              `json:"trace"`
	Seconds    float64           `json:"seconds"`
	Clients    int               `json:"clients"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	FailedOps  float64           `json:"failed_ops"` // failed ÷ attempted
	Samples    int               `json:"timed_queries"`
	Metrics    map[string]metric `json:"metrics"`          // the vocabulary of metrics.go
	Layers     map[string]metric `json:"layers,omitempty"` // traced pass: every layer metric measured
	Notes      []string          `json:"notes,omitempty"`  // verification failures and findings
	Provenance provenance        `json:"provenance"`
}

// resultSet is a result file: the runs of one commit on one machine, usually
// every workload under several seeds. -compare takes two of them.
type resultSet struct {
	Runs []runRecord `json:"runs"`
}

func loadSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// appendRuns adds runs to the result file at path, creating it if absent.
func appendRuns(path string, runs []runRecord) error {
	set, err := loadSet(path)
	if errors.Is(err, fs.ErrNotExist) {
		set, err = &resultSet{}, nil
	}
	if err != nil {
		return err
	}
	set.Runs = append(set.Runs, runs...)
	return writeJSON(path, set)
}

func newProvenance(seed int64, sc scale, tmp string, start time.Time) provenance {
	p := provenance{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
		Scale:      sc.Name,
		TempFS:     fsType(tmp),
		Start:      start.UTC().Format(time.RFC3339),
	}
	// Outside a git checkout (the driver's copy is none) the commit stays
	// unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			p.Dirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}

// fsType names the filesystem holding dir: the type of the longest mount
// point in /proc/mounts that prefixes it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, kind := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		if (abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > len(best) {
			best, kind = mount, f[2]
		}
	}
	return kind
}

// printRun writes every metric of a run by name with its unit, one per line.
func printRun(w io.Writer, r *runRecord) {
	pass := "end-to-end"
	if r.Trace {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, scale %s, %d client(s), %d timed queries)\n",
		r.Workload, pass, r.Provenance.Seed, r.Provenance.Scale, r.Clients, r.Samples)
	printMetrics(w, r.Workload, r.Metrics)
	if len(r.Layers) > 0 {
		fmt.Fprintf(w, "-- %s: all layer metrics\n", r.Workload)
		printMetrics(w, r.Workload, r.Layers)
	}
	fmt.Fprintf(w, "%-12s %-32s %14.6g %s   (%d failed of %d attempted)\n",
		r.Workload, "failed_ops", r.FailedOps, "ratio", r.Failed, r.Attempted)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%-12s note: %s\n", r.Workload, n)
	}
}

func printMetrics(w io.Writer, workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-12s %-32s %14.6g %s\n", workload, name, ms[name].Value, ms[name].Unit)
	}
}

// contractLine is the last line of standard output in single-workload mode:
// exactly the keys the driver reads, and exactly the metrics BENCHMARK.json
// lists for the pass.
func contractLine(r *runRecord) string {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	for _, d := range defs {
		if d.Everywhere {
			out.Metrics[d.Name] = r.Metrics[d.Name]
		}
	}
	raw, _ := json.Marshal(out)
	return string(raw)
}
