package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runTiny measures one workload at tiny scale, end to end or traced.
func runTiny(t *testing.T, name string, seed int64, trace bool) *runRecord {
	t.Helper()
	dir := t.TempDir()
	cfg := config{seed: seed, seconds: 0.02, trace: trace, sc: scales["tiny"], tmp: dir, results: dir}
	rec, err := runWorkload(context.Background(), cfg, name)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.FailedOps != 0 {
		t.Fatalf("%s seed %d trace %v: %d of %d operations failed: %v", name, seed, trace, rec.Failed, rec.Attempted, rec.Notes)
	}
	if trace {
		if _, err := os.Stat(filepath.Join(dir, "trace_"+name+".json")); err != nil {
			t.Errorf("%s: trace file: %v", name, err)
		}
	}
	return rec
}

// TestWorkloadsTiny runs all six workloads, both passes, twice under one seed
// and once under another: every declared metric must be present with its
// unit, nothing may fail, and the counts the engine reports must repeat
// exactly under one seed and change with the seed.
func TestWorkloadsTiny(t *testing.T) {
	// Counts of work done by one client over fixed inputs. sweep_bg is left
	// out: how many cells its reads repair depends on how far the racing
	// sweep has come.
	counts := []string{"rows_returned", "cells_updated", "segments_skipped", "comparisons", "wal_bytes_per_fixed_cell"}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			a, b, c := runTiny(t, w.Name, 7, trace), runTiny(t, w.Name, 7, trace), runTiny(t, w.Name, 8, trace)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				applies := d.Everywhere ||
					(d.Name == "sweep_rows_per_s" && w.Name == "sweep_bg") || (d.Name == "reopen_s" && w.Name == "durable_fd")
				got, ok := a.Metrics[d.Name]
				if ok != applies {
					t.Errorf("%s trace=%v: metric %s present=%v, want %v", w.Name, trace, d.Name, ok, applies)
				}
				if ok && (got.Unit != d.Unit || math.IsNaN(got.Value)) {
					t.Errorf("%s trace=%v: metric %s = %v %q, want unit %q", w.Name, trace, d.Name, got.Value, got.Unit, d.Unit)
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(contractLine(a)), &line); err != nil || !line.Correct || line.Attempted < 1 {
				t.Errorf("%s trace=%v: contract line %s: %v", w.Name, trace, contractLine(a), err)
			}
			if !trace || w.Name == "sweep_bg" {
				continue
			}
			differs := false
			for _, name := range counts {
				va, measured := a.Layers[name]
				if !measured {
					continue
				}
				if vb := b.Layers[name]; va != vb {
					t.Errorf("%s: %s = %v then %v under one seed", w.Name, name, va.Value, vb.Value)
				}
				differs = differs || va != c.Layers[name]
			}
			if !differs {
				t.Errorf("%s: no count among %v changed with the seed", w.Name, counts)
			}
		}
	}
}

// TestContractMatchesVocabulary keeps BENCHMARK.json and the harness's own
// tables from drifting apart.
func TestContractMatchesVocabulary(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the package:", err)
	}
	var c struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, harness default %v", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.Name || c.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness %q", i, c.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	var e2e, layer []metricDef
	for _, d := range endToEnd {
		if d.Everywhere {
			e2e = append(e2e, d)
		}
	}
	for _, d := range perLayer {
		if d.Everywhere {
			layer = append(layer, d)
		}
	}
	if len(c.EndToEnd) != len(e2e) || len(c.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, harness %d+%d", len(c.EndToEnd), len(c.PerLayer), len(e2e), len(layer))
	}
	for i, d := range e2e {
		if got := c.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, harness %+v", i, got, d)
		}
	}
	for i, d := range layer {
		if got := c.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, harness %+v", i, got, d)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3, ok := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !ok || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v %v, want 2.75 5.5 8.25", q1, q2, q3, ok)
	}
	q1, _, q3, _ = quartiles([]float64{10, 30})
	if q1 != 5 || q3 != 35 {
		t.Errorf("quartiles(10,30) = %v .. %v, want 5 .. 35", q1, q3)
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one sample has no quartiles")
	}
}

// TestCompare checks each verdict and the exit code on synthetic sets.
func TestCompare(t *testing.T) {
	set := func(p50 []float64, failed int) *resultSet {
		s := &resultSet{}
		for _, v := range p50 {
			s.Runs = append(s.Runs, runRecord{Workload: "cold_fd", Attempted: 100, Failed: failed,
				Metrics: map[string]metric{"query_p50_ms": {v, "ms"}}})
		}
		return s
	}
	base := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, tc := range []struct {
		name    string
		news    []float64
		failed  int
		verdict string
		code    int
	}{
		{"same", base, 0, "unchanged", 0},
		{"slower", []float64{14, 14.1, 13.9, 14, 14}, 0, "regressed", 1},
		{"faster", []float64{6, 6.1, 5.9, 6, 6}, 0, "improved", 0},
		{"noisy", []float64{6, 12, 10, 14, 4}, 0, "unresolved", 0},
		{"failing", base, 1, "unchanged", 1},
	} {
		var out bytes.Buffer
		code := compareSets(&out, "old", "new", set(base, 0), set(tc.news, tc.failed), "")
		if code != tc.code || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: exit %d, want %d with verdict %s:\n%s", tc.name, code, tc.code, tc.verdict, out.String())
		}
	}
}
