package main

import (
	"sort"
	"time"

	"daisy"
)

// hspan is a harness-side span: one call the harness makes into the system
// (Open, Register, AddRule, converge, a query round trip), timed from
// outside, in the same shape as the engine's own spans.
type hspan struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Parent  string  `json:"parent"`
	Query   int     `json:"query"` // index into the query list; -1 outside queries
}

// spans collects harness spans in memory. A nil *spans records nothing, so
// the end-to-end pass shares the set-up code without paying for it.
type spans struct {
	t0   time.Time
	list []hspan
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// start opens a span; the returned func closes it.
func (s *spans) start(name string) func() {
	if s == nil {
		return func() {}
	}
	begin := time.Now()
	return func() { s.add(name, -1, begin, time.Since(begin)) }
}

func (s *spans) add(name string, query int, begin time.Time, d time.Duration) {
	s.list = append(s.list, hspan{
		Name: name, Parent: "workload", Query: query,
		StartUS: float64(begin.Sub(s.t0)) / float64(time.Microsecond),
		DurUS:   float64(d) / float64(time.Microsecond),
	})
}

// ms returns the mean duration of the spans called name, in milliseconds.
func (s *spans) ms(name string) float64 {
	sum, n := 0.0, 0
	for _, h := range s.list {
		if h.Name == name {
			sum += h.DurUS
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / 1000
}

// tracedQuery is one query of the traced pass as written to the trace file.
type tracedQuery struct {
	ID        int              `json:"id"`
	SQL       string           `json:"sql"`
	LatencyUS float64          `json:"latency_us"`
	Tree      *daisy.TraceNode `json:"trace"`
}

// traceFile is bench/results/trace_<workload>.json.
type traceFile struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Scale    string        `json:"scale"`
	Harness  []hspan       `json:"harness_spans"`
	Queries  []tracedQuery `json:"queries"`
}

// selfTimes sums, per span name, the self time of every span in the traced
// queries: a span's duration minus the part of it its children cover. The
// root span's self time is what no layer accounts for.
type selfTimes struct {
	us      map[string]float64
	rootUS  float64 // Σ root durations
	queries int

	rowsReturned              float64 // Σ root "rows"
	filterIn, filterOut       float64
	segSkipped, segTotal      float64 // FD detect spans
	dcPairs, dcComparisons    float64 // DC detect spans
	workerMaxOverMean         []float64
	cellsUpdated, relaxedRows float64
	walBytes                  float64
}

func newSelfTimes() *selfTimes { return &selfTimes{us: map[string]float64{}} }

// num reads a numeric span attribute: int64/float64 in process, float64
// after a JSON round trip.
func num(attrs map[string]any, key string) float64 {
	switch v := attrs[key].(type) {
	case int64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

// spanName separates the two detectors that share the span name "detect":
// the theta-join reports comparisons, the FD path segment counts.
func spanName(n *daisy.TraceNode) string {
	if n.Name == "detect" {
		if _, dc := n.Attrs["comparisons"]; dc {
			return "detect.dc"
		}
		return "detect.fd"
	}
	return n.Name
}

func (st *selfTimes) addQuery(root *daisy.TraceNode) {
	if root == nil {
		return
	}
	st.queries++
	st.rootUS += float64(root.DurUS)
	st.rowsReturned += num(root.Attrs, "rows")
	st.walk(root)
}

func (st *selfTimes) walk(n *daisy.TraceNode) {
	name := spanName(n)
	if name == "detect.dc" {
		// The theta-join's workers run in parallel: their summed durations
		// exceed the wall time they cover, so the detect span is taken whole
		// and its worker children only feed the skew ratio.
		st.us[name] += float64(n.DurUS)
	} else {
		st.us[name] += float64(n.DurUS - covered(n))
	}
	switch name {
	case "filter":
		st.filterIn += num(n.Attrs, "rows_in")
		st.filterOut += num(n.Attrs, "rows_out")
	case "detect.fd":
		st.segSkipped += num(n.Attrs, "segments_skipped")
		st.segTotal += num(n.Attrs, "segments_total")
	case "detect.dc":
		st.dcPairs += num(n.Attrs, "pairs")
		st.dcComparisons += num(n.Attrs, "comparisons")
		var sum, slowest, workers float64
		for _, c := range n.Nodes {
			if c.Name == "worker" {
				d := float64(c.DurUS)
				sum += d
				slowest = max(slowest, d)
				workers++
			}
		}
		if sum > 0 {
			st.workerMaxOverMean = append(st.workerMaxOverMean, slowest/(sum/workers))
		}
		return
	case "repair":
		st.cellsUpdated += num(n.Attrs, "cells_updated")
		st.relaxedRows += num(n.Attrs, "relaxed")
	case "wal.append":
		st.walBytes += num(n.Attrs, "bytes")
	}
	for _, c := range n.Nodes {
		st.walk(c)
	}
}

// covered is the length of the union of n's child intervals, clipped to n:
// parallel children (theta-join workers) overlap and must not count twice.
func covered(n *daisy.TraceNode) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(n.Nodes))
	end := n.StartUS + n.DurUS
	for _, c := range n.Nodes {
		lo, hi := max(c.StartUS, n.StartUS), min(c.StartUS+c.DurUS, end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, reach int64
	reach = n.StartUS
	for _, v := range ivs {
		if v.hi <= reach {
			continue
		}
		total += v.hi - max(v.lo, reach)
		reach = v.hi
	}
	return total
}

// The layer groups of the metrics every workload reports. Every engine span
// name belongs to exactly one group; the root's self time is the remainder.
var (
	engineSpans  = []string{"exec", "scan", "filter", "project", "groupby", "join", "materialize"}
	cleanSpans   = []string{"cleanselect", "detect.fd", "detect.dc", "decision", "repair"}
	publishSpans = []string{"publish", "wal.append", "wal.fsync"}
)

func (st *selfTimes) sum(names ...string) float64 {
	total := 0.0
	for _, n := range names {
		total += st.us[n]
	}
	return total
}

// perQueryMS is the mean self time per traced query of the named spans.
func (st *selfTimes) perQueryMS(names ...string) float64 {
	if st.queries == 0 {
		return 0
	}
	return st.sum(names...) / float64(st.queries) / 1000
}

// pct is the named spans' share of all root time.
func (st *selfTimes) pct(names ...string) float64 {
	if st.rootUS == 0 {
		return 0
	}
	return 100 * st.sum(names...) / st.rootUS
}
