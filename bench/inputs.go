package main

import (
	"bytes"
	"fmt"
	"strings"

	"daisy"
	"daisy/internal/workload"
)

const (
	tableName = "lineorder"
	fdRule    = "phi"
	// Rules are kept as text, the form the HTTP rules endpoint takes, and
	// parsed for the in-process sessions.
	fdRuleText = "phi@lineorder: !(t1.orderkey=t2.orderkey & t1.suppkey!=t2.suppkey)"
	dcRuleText = "psi@lineorder: !(t1.extended_price<t2.extended_price & t1.discount>t2.discount)"
)

// scale fixes every input size. Numbers are comparable only between runs of
// one scale; "tiny" exists so the package test can run all six workloads.
type scale struct {
	Name string

	WarmRows    int // warm_select table
	WarmQueries int // selective ranges the steady reads cycle through; together they cover the table
	ColdRows    int // cold_fd and durable_fd table
	ColdQueries int // per shape: this many orderkey ranges and as many suppkey ranges
	DCRows      int // cold_dc table
	DCQueries   int
	ServeRows   int // serve_warm table
	ServeRanges int // serve_warm result = rows/ranges
	SweepRows   int // sweep_bg table
	ProbeRows   int // thetajoin full-matrix probe of the traced pass

	Setups  int // set-ups every run samples at least: setup_s is their median
	Reopens int // reopen cycles per durable_fd repetition
	MinReps int // fresh-session repetitions run even when -seconds is spent
}

var scales = map[string]scale{
	"full": {
		Name:     "full",
		WarmRows: 200_000, WarmQueries: 200,
		ColdRows: 100_000, ColdQueries: 20,
		DCRows: 20_000, DCQueries: 60,
		ServeRows: 50_000, ServeRanges: 25,
		SweepRows: 200_000,
		ProbeRows: 5_000,
		Setups:    7, Reopens: 2, MinReps: 3,
	},
	"tiny": {
		Name:     "tiny",
		WarmRows: 3_000, WarmQueries: 20,
		ColdRows: 2_400, ColdQueries: 4,
		DCRows: 400, DCQueries: 6,
		ServeRows: 1_500, ServeRanges: 10,
		SweepRows: 4_096,
		ProbeRows: 300,
		Setups:    1, Reopens: 1, MinReps: 2,
	},
}

// inputs is everything one workload hands the system under test: a table,
// one rule and SQL text. The session or server never sees the seed.
type inputs struct {
	table    *daisy.Table
	csv      []byte // serve_warm seeds the table over HTTP
	ruleText string
	rule     *daisy.Rule // ruleText parsed
	queries  []string
}

// fdLineorder generates an SSB-style lineorder whose FD orderkey→suppkey is
// violated in the given share of its groups. DistinctSupps equals the group count so an
// order rarely shares its supplier: with the default 1,000 suppliers the
// transitive relaxation of one lhs-filtered query reaches every dirty group
// through shared suppkeys, and the first query would clean the whole table.
func fdLineorder(rows, groups int, dirty float64, seed int64) *daisy.Table {
	t := workload.Lineorder(workload.SSBConfig{
		Rows: rows, DistinctOrders: groups, DistinctSupps: groups, Seed: seed})
	workload.InjectFDErrors(t, "orderkey", "suppkey", dirty, 0.2, seed+1)
	return t
}

// selectiveQueries are the first n of `ranges` orderkey ranges that together
// cover the key domain once, in shuffled order, every tenth an aggregate —
// the analyst's steady-state mix. With n = ranges one cycle reads the whole
// table, which makes the rows a cycle returns, and with them the allocation
// and latency medians, nearly independent of which seed drew the dirty
// groups.
func selectiveQueries(t *daisy.Table, ranges, n int, seed int64) []string {
	plain := workload.RangeQueries(t, "orderkey", ranges, "orderkey, suppkey, extended_price", seed)[:n]
	agg := workload.RangeQueries(t, "orderkey", ranges, "suppkey, COUNT(*), SUM(extended_price)", seed)
	for i := 9; i < n; i += 10 {
		plain[i] = agg[i] + " GROUP BY suppkey"
	}
	return plain
}

// coldFDQueries alternates n orderkey ranges (filter on the FD's lhs: the
// Fig 5 shape) with n suppkey ranges (filter on its rhs, Fig 6: relaxation
// must fetch the rest of each group). Each family covers the whole table, so
// every dirty group is repaired by exactly one query and skipped by the rest.
func coldFDQueries(t *daisy.Table, n int, seed int64) []string {
	lhs := workload.RangeQueries(t, "orderkey", n, "orderkey, suppkey", seed)
	rhs := workload.RangeQueries(t, "suppkey", n, "orderkey, suppkey", seed+1)
	out := make([]string, 0, 2*n)
	for i := 0; i < n; i++ {
		out = append(out, lhs[i], rhs[i])
	}
	return out
}

func genInputs(name string, sc scale, seed int64) (*inputs, error) {
	in := &inputs{ruleText: fdRuleText}
	switch name {
	case "warm_select":
		in.table = fdLineorder(sc.WarmRows, sc.WarmRows/6, 0.1, seed)
		in.queries = selectiveQueries(in.table, sc.WarmQueries, sc.WarmQueries, seed+2)
	case "cold_fd", "durable_fd":
		// Two rows per order and every fifth order dirty: small groups make
		// the repair and publish work per query large next to the scan, and
		// one group in five keeps the relaxation's transitive closure local
		// (at one in three it percolates and the first query cleans it all).
		in.table = fdLineorder(sc.ColdRows, sc.ColdRows/2, 0.2, seed)
		in.queries = coldFDQueries(in.table, sc.ColdQueries, seed+2)
	case "cold_dc":
		in.ruleText = dcRuleText
		in.table = workload.Lineorder(workload.SSBConfig{Rows: sc.DCRows, Seed: seed})
		workload.InjectDCOutliers(in.table, "extended_price", "discount", 0.02, seed+1)
		in.queries = workload.FloatRangeQueries(in.table, "extended_price", sc.DCQueries, "extended_price, discount", seed+2)
	case "serve_warm":
		in.table = fdLineorder(sc.ServeRows, sc.ServeRows/6, 0.1, seed)
		var csv bytes.Buffer
		if err := in.table.WriteCSV(&csv); err != nil {
			return nil, err
		}
		in.csv = csv.Bytes()
		in.queries = workload.RangeQueries(in.table, "orderkey", sc.ServeRanges, "orderkey, suppkey, extended_price", seed+2)
	case "sweep_bg":
		// Two rows per order: a group's anchor (its first row) then lies in
		// the first half of the table, so half the 512-tuple segments hold
		// violating anchors and the sweep skips the other half wholesale.
		// One order in five is dirty, and the reads are narrow (1/1000 of
		// the keys, or one key at tiny scale): a read repairs the dirty
		// groups it meets, and wide reads would do the sweep's work for it.
		in.table = fdLineorder(sc.SweepRows, sc.SweepRows/2, 0.2, seed)
		in.queries = selectiveQueries(in.table, min(1000, sc.SweepRows/2), sc.WarmQueries, seed+2)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	var err error
	in.rule, err = daisy.ParseRule(in.ruleText)
	return in, err
}
