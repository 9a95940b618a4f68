// Package experiments reproduces every table and figure of the paper's
// evaluation (§7). Each runner builds its synthetic workload, executes Daisy
// and the relevant baselines, and reports the same rows/series the paper
// plots. Absolute numbers are in-process milliseconds rather than Spark
// cluster minutes; the shapes — who wins, by what factor, where strategy
// switches happen — are the reproduction target (see EXPERIMENTS.md).
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"daisy/internal/core"
	"daisy/internal/dc"
	"daisy/internal/engine"
	"daisy/internal/offline"
	"daisy/internal/plan"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/sql"
	"daisy/internal/table"
)

// Config scales the experiments. Scale 1.0 is the laptop-sized full
// reproduction; benches use smaller scales.
type Config struct {
	Scale float64
	Seed  int64
}

func (c Config) n(base int) int {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	v := int(float64(base) * c.Scale)
	if v < 60 {
		v = 60
	}
	return v
}

func (c Config) q(base int) int {
	if c.Scale >= 0.5 {
		return base
	}
	v := base / 2
	if v < 5 {
		v = 5
	}
	return v
}

// Report is one reproduced table or figure.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(r.Header)
	for _, row := range r.Rows {
		writeRow(row)
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "-- %s\n", r.Notes)
	}
	return b.String()
}

// runResult captures one system's run over a workload.
type runResult struct {
	Elapsed    time.Duration
	PerQuery   []time.Duration // cumulative after each query
	Metrics    string
	Decisions  []core.Decision
	ResultRows int
}

// runDaisy executes the query workload through a Daisy session.
func runDaisy(tables []*table.Table, rules []*dc.Constraint, queries []string, strategy core.Strategy) (runResult, error) {
	return runDaisyOpts(tables, rules, queries, core.Options{Strategy: strategy})
}

// runDaisyOpts is runDaisy with full session options. Experiments measure
// the paper's inline §5.2.3 switch, so the asynchronous background sweep is
// disabled: the triggering query pays the full clean, exactly as Fig 7/12
// account it. The async sweep is measured by the sweep_bg workload of
// ./bench and pinned to the inline state by
// TestBackgroundFullCleanConvergesToSynchronous.
func runDaisyOpts(tables []*table.Table, rules []*dc.Constraint, queries []string, opts core.Options) (runResult, error) {
	opts.DisableBackgroundClean = true
	s := core.NewSession(opts)
	for _, t := range tables {
		if err := s.Register(t); err != nil {
			return runResult{}, err
		}
	}
	for _, r := range rules {
		if err := s.AddRule(r); err != nil {
			return runResult{}, err
		}
	}
	var res runResult
	start := time.Now()
	for _, q := range queries {
		out, err := s.Query(q)
		if err != nil {
			return runResult{}, fmt.Errorf("query %q: %w", q, err)
		}
		res.ResultRows += out.Rows.Len()
		res.Decisions = append(res.Decisions, out.Decisions...)
		res.PerQuery = append(res.PerQuery, time.Since(start))
	}
	res.Elapsed = time.Since(start)
	res.Metrics = fmt.Sprintf("cmp=%d scan=%d relax=%d repair=%d",
		s.Metrics.Comparisons, s.Metrics.Scanned, s.Metrics.Relaxed, s.Metrics.Repairs)
	return res, nil
}

// runOffline cleans everything up front (the Full Cleaning baseline), then
// executes the queries over the cleaned data.
func runOffline(tables []*table.Table, rules []*dc.Constraint, queries []string, budget int) (runResult, bool, error) {
	var res runResult
	start := time.Now()
	cleaner := &offline.Cleaner{MaxGroupScans: budget}
	pts := make(map[string]*ptable.PTable, len(tables))
	for _, t := range tables {
		pts[t.Name] = ptable.FromTable(t)
	}
	timedOut := false
	for _, t := range tables {
		var bound []*dc.Constraint
		for _, r := range rules {
			if r.Table == t.Name || r.Table == "" {
				ok := true
				for _, col := range r.Columns() {
					if !t.Schema.Has(col) {
						ok = false
						break
					}
				}
				if ok {
					bound = append(bound, r)
				}
			}
		}
		if len(bound) == 0 {
			continue
		}
		if _, err := cleaner.CleanAll(context.TODO(), pts[t.Name], bound); err != nil {
			if err == offline.ErrTimeout {
				timedOut = true
				break
			}
			return res, false, err
		}
	}
	if timedOut {
		res.Elapsed = time.Since(start)
		return res, true, nil
	}
	// Execute queries over the cleaned probabilistic data: plan with no
	// rules and run without a cleaner, so no further cleaning work happens.
	ex := &engine.Executor{Tables: pts, Workers: runtime.GOMAXPROCS(0)}
	for _, text := range queries {
		fr, err := runPlain(ex, text)
		if err != nil {
			return res, false, fmt.Errorf("offline query %q: %w", text, err)
		}
		res.ResultRows += fr.Len()
		res.PerQuery = append(res.PerQuery, time.Since(start))
	}
	res.Elapsed = time.Since(start)
	return res, false, nil
}

// runPlain parses, plans and executes one query over ex's relations with no
// cleaning operators.
func runPlain(ex *engine.Executor, text string) (*engine.Frame, error) {
	q, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	node, err := plan.Build(q, catalog(ex.Tables), nil)
	if err != nil {
		return nil, err
	}
	return ex.Run(node)
}

// catalog resolves relation schemas from a set of probabilistic relations.
type catalog map[string]*ptable.PTable

// Schema implements plan.Catalog.
func (c catalog) Schema(name string) (*schema.Schema, bool) {
	pt, ok := c[name]
	if !ok {
		return nil, false
	}
	return pt.Schema, true
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}

func ratio(slow, fast time.Duration) string {
	if fast <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(slow)/float64(fast))
}
