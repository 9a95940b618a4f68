package main

import (
	"math"
	"sort"
)

// metricDef is one name of the benchmark's metric vocabulary. Later issues
// cite these names; BENCHMARK.json at the repo root repeats the Everywhere
// ones (the driver requires every listed metric on every workload).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may get
	// worse before -compare calls it regressed; per-layer metrics have none.
	Bound float64
	// Everywhere marks metrics defined on all six workloads. The others
	// apply to one workload and are absent (not zero) from the rest.
	Everywhere bool
}

// endToEnd lists what a user of the system pays for, measured with tracing
// off. sweep_rows_per_s exists only on sweep_bg and reopen_s only on
// durable_fd. README.md says why the bounds are as wide as they are: the
// sandbox's ten-seed spreads, not taste.
var endToEnd = []metricDef{
	{"query_p50_ms", "ms", "lower", 0.25, true},
	{"query_p95_ms", "ms", "lower", 0.25, true},
	{"queries_per_s", "1/s", "higher", 0.25, true},
	{"setup_s", "s", "lower", 0.25, true},
	{"alloc_kb_per_query", "KiB", "lower", 0.15, true},
	{"heap_bytes_per_row", "B", "lower", 0.05, true},
	{"sweep_rows_per_s", "rows/s", "higher", 0.25, false},
	{"reopen_s", "s", "lower", 0.25, false},
}

// perLayer lists the layer metrics every workload's traced pass yields; the
// workload-specific ones (fd_detect_ms, wal_append_us, ...) are documented in
// README.md and stored in the run record's Layers map.
var perLayer = []metricDef{
	{Name: "parse_us", Unit: "us", Better: "lower", Everywhere: true},
	{Name: "plan_us", Unit: "us", Better: "lower", Everywhere: true},
	{Name: "engine_ms", Unit: "ms", Better: "lower", Everywhere: true},
	{Name: "engine_pct", Unit: "%", Better: "lower", Everywhere: true},
	{Name: "clean_pct", Unit: "%", Better: "lower", Everywhere: true},
	{Name: "publish_pct", Unit: "%", Better: "lower", Everywhere: true},
	{Name: "unattributed_pct", Unit: "%", Better: "lower", Everywhere: true},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower", Everywhere: true},
	{Name: "rows_examined_per_row_returned", Unit: "ratio", Better: "lower", Everywhere: true},
	{Name: "register_ms", Unit: "ms", Better: "lower", Everywhere: true},
	{Name: "addrule_ms", Unit: "ms", Better: "lower", Everywhere: true},
	{Name: "cells_updated", Unit: "count", Better: "lower", Everywhere: true},
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile: the smallest sample with at
// least p of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which the contract's spread check is defined with. It needs two
// samples; with fewer the spread is unknown and ok is false.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) (float64, bool) {
	q1, _, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return 0, false
	}
	return math.Abs((q3 - q1) / med), true
}
