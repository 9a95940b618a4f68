package main

import (
	"fmt"
	"io"
	"sort"
)

// compareRow is the verdict on one workload × end-to-end metric.
type compareRow struct {
	Workload string `json:"workload"`
	Metric   string `json:"metric"`
	Unit     string `json:"unit"`
	Better   string `json:"better"`
	// OldMedian and NewMedian are medians over each file's runs of the
	// workload (one value per run, i.e. per seed).
	OldMedian float64 `json:"old_median"`
	NewMedian float64 `json:"new_median"`
	// Worse is the change in the metric's worse direction as a share of the
	// old median; negative means better.
	Worse float64 `json:"worse"`
	// OldSpread and NewSpread are the interquartile distance of the runs as
	// a share of their median; -1 when a file holds a single run.
	OldSpread float64 `json:"old_spread"`
	NewSpread float64 `json:"new_spread"`
	Bound     float64 `json:"bound"`
	Runs      [2]int  `json:"runs"`
	Verdict   string  `json:"verdict"` // improved, unchanged, regressed or unresolved
}

// ledger is what -compare -out writes: both run sets and the verdict table,
// whose spread columns are the spread-vs-bound record of the baseline.
type ledger struct {
	Old     string       `json:"old_file"`
	New     string       `json:"new_file"`
	Rows    []compareRow `json:"compare"`
	Notes   []string     `json:"notes,omitempty"`
	OldRuns []runRecord  `json:"old_runs"`
	NewRuns []runRecord  `json:"new_runs"`
}

// series collects, per workload and metric, one value per end-to-end run,
// and per workload the failed and attempted operation totals.
type series struct {
	values  map[string]map[string][]float64
	failed  map[string]int
	tried   map[string]int
	commits map[string]bool
}

func collect(set *resultSet) series {
	s := series{map[string]map[string][]float64{}, map[string]int{}, map[string]int{}, map[string]bool{}}
	for _, r := range set.Runs {
		if r.Trace {
			continue
		}
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], v.Value)
		}
		s.failed[r.Workload] += r.Failed
		s.tried[r.Workload] += r.Attempted
		s.commits[r.Provenance.Commit] = true
	}
	return s
}

func (s series) failedOps(workload string) float64 {
	if s.tried[workload] == 0 {
		return 0
	}
	return float64(s.failed[workload]) / float64(s.tried[workload])
}

// judge compares two sets of runs of one metric.
func judge(d metricDef, workload string, olds, news []float64) compareRow {
	row := compareRow{
		Workload: workload, Metric: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound,
		OldMedian: median(olds), NewMedian: median(news),
		OldSpread: -1, NewSpread: -1, Runs: [2]int{len(olds), len(news)},
	}
	if sp, ok := spread(olds); ok {
		row.OldSpread = sp
	}
	if sp, ok := spread(news); ok {
		row.NewSpread = sp
	}
	row.Worse = (row.NewMedian - row.OldMedian) / row.OldMedian
	if d.Better == "higher" {
		row.Worse = -row.Worse
	}
	switch {
	case max(row.OldSpread, row.NewSpread) > d.Bound:
		// The runs of one commit disagree by more than the bound: a change of
		// that size cannot be told from noise.
		row.Verdict = "unresolved"
	case row.Worse > d.Bound:
		row.Verdict = "regressed"
	case row.Worse < -d.Bound:
		row.Verdict = "improved"
	default:
		row.Verdict = "unchanged"
	}
	return row
}

// runCompare prints one row per workload × end-to-end metric and returns the
// exit code: 1 on any regression or any rise in failed_ops.
func runCompare(w io.Writer, oldPath, newPath, ledgerPath string) int {
	oldSet, err := loadSet(oldPath)
	if err != nil {
		fmt.Fprintf(w, "bench: %v\n", err)
		return 2
	}
	newSet, err := loadSet(newPath)
	if err != nil {
		fmt.Fprintf(w, "bench: %v\n", err)
		return 2
	}
	return compareSets(w, oldPath, newPath, oldSet, newSet, ledgerPath)
}

func compareSets(w io.Writer, oldPath, newPath string, oldSet, newSet *resultSet, ledgerPath string) int {
	olds, news := collect(oldSet), collect(newSet)
	led := ledger{Old: oldPath, New: newPath, OldRuns: oldSet.Runs, NewRuns: newSet.Runs}
	for name, s := range map[string]series{oldPath: olds, newPath: news} {
		if len(s.commits) > 1 {
			led.Notes = append(led.Notes, fmt.Sprintf("%s mixes runs of %d commits", name, len(s.commits)))
		}
	}
	code := 0
	fmt.Fprintf(w, "%-12s %-20s %-7s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "old median", "new median", "worse", "spread", "bound", "runs", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			o, n := olds.values[wl.Name][d.Name], news.values[wl.Name][d.Name]
			if len(o) == 0 && len(n) == 0 {
				continue // the metric does not apply to this workload
			}
			if len(o) == 0 || len(n) == 0 {
				led.Notes = append(led.Notes, fmt.Sprintf("%s %s: measured in one file only", wl.Name, d.Name))
				code = 1
				continue
			}
			row := judge(d, wl.Name, o, n)
			led.Rows = append(led.Rows, row)
			if row.Verdict == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-12s %-20s %-7s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %3d/%-3d %s\n",
				row.Workload, row.Metric, row.Unit, row.OldMedian, row.NewMedian, 100*row.Worse,
				100*max(row.OldSpread, row.NewSpread), 100*row.Bound, row.Runs[0], row.Runs[1], row.Verdict)
		}
		if of, nf := olds.failedOps(wl.Name), news.failedOps(wl.Name); nf > of {
			led.Notes = append(led.Notes, fmt.Sprintf("%s failed_ops rose from %g to %g", wl.Name, of, nf))
			code = 1
		}
	}
	sort.Strings(led.Notes)
	for _, n := range led.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	if ledgerPath != "" {
		if err := writeJSON(ledgerPath, led); err != nil {
			fmt.Fprintf(w, "bench: %v\n", err)
			return 2
		}
		fmt.Fprintf(w, "wrote %s\n", ledgerPath)
	}
	return code
}
