package core

import (
	"context"
	"testing"

	"daisy/internal/trace"
)

// TestTraceSpanTree is the tracing acceptance test: a traced repair query
// returns a span tree covering the whole pipeline — parse, plan, exec with
// operator row counts, violation detection with segment-skip stats, repair,
// and publish — and the root's duration accounts for its direct children
// (children are sequential phases of one query, so their sum cannot exceed
// the root by more than timing noise).
func TestTraceSpanTree(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyIncremental})
	defer s.Close()

	rows, err := s.QueryContext(context.Background(),
		"SELECT zip, city FROM cities WHERE city = 'Los Angeles'", WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()

	tr := rows.Trace()
	if tr == nil {
		t.Fatal("WithTrace query must carry a trace")
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d spans on a small query", tr.Dropped())
	}
	root := tr.Tree()
	if root == nil || root.Name != "query" {
		t.Fatalf("root = %+v, want query span", root)
	}

	for _, name := range []string{"parse", "plan", "exec", "cleanselect", "detect", "repair", "publish"} {
		if root.Find(name) == nil {
			t.Errorf("span %q missing from tree:\n%s", name, tr.Render())
		}
	}

	// Operator and detection spans carry the row/segment counts.
	if sp := root.Find("scan"); sp == nil || sp.Attrs["rows_out"] != int64(5) {
		t.Errorf("scan span = %+v, want rows_out=5", sp)
	}
	if sp := root.Find("detect"); sp != nil {
		if _, ok := sp.Attrs["rows_in"]; !ok {
			t.Errorf("detect span lacks rows_in: %+v", sp.Attrs)
		}
		if _, ok := sp.Attrs["segments_total"]; !ok {
			t.Errorf("detect span lacks segments_total: %+v", sp.Attrs)
		}
	}
	if sp := root.Find("repair"); sp != nil {
		if _, ok := sp.Attrs["cells_updated"]; !ok {
			t.Errorf("repair span lacks cells_updated: %+v", sp.Attrs)
		}
	}
	// The repair published fixes, so the writer attached its WAL-path span
	// under publish before acking. (In-memory sessions have no WAL, so only
	// the publish span itself is required here.)
	if sp := root.Find("publish"); sp != nil {
		if v, ok := sp.Attrs["requests"]; !ok || v.(int64) < 1 {
			t.Errorf("publish span = %+v, want requests>=1", sp.Attrs)
		}
	}

	// Root duration accounts for its direct children within 10% (+ rounding
	// slack: DurUS truncates each child separately).
	var childSum int64
	for _, c := range root.Nodes {
		childSum += c.DurUS
	}
	slack := int64(float64(root.DurUS)*0.1) + int64(len(root.Nodes)) + 1
	if childSum > root.DurUS+slack {
		t.Errorf("children sum %dus exceeds root %dus (+%dus slack):\n%s",
			childSum, root.DurUS, slack, tr.Render())
	}
}

// TestTraceDecisionSpan pins the §5.2.3 strategy decision span: under
// StrategyAuto the trace records which side of the cost inequality won and
// the inequality's actual operands.
func TestTraceDecisionSpan(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyAuto})
	defer s.Close()

	rows, err := s.QueryContext(context.Background(),
		"SELECT zip, city FROM cities WHERE city = 'Los Angeles'", WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()

	dec := rows.Trace().Tree().Find("decision")
	if dec == nil {
		t.Fatalf("no decision span under StrategyAuto:\n%s", rows.Trace().Render())
	}
	for _, key := range []string{"strategy", "qi", "ei", "epsi", "cost_next", "cost_cumulative", "cost_offline"} {
		if _, ok := dec.Attrs[key]; !ok {
			t.Errorf("decision span lacks %q: %+v", key, dec.Attrs)
		}
	}
	// The same operands surface on the query's Decisions.
	found := false
	for _, d := range rows.Decisions() {
		if d.CostOffline > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no Decision carries cost operands: %+v", rows.Decisions())
	}
}

// TestDCIndexBuiltOnFirstQuery pins the theta-join rank index's lifecycle:
// set-up builds none, the first DC query builds it under a dc_index span
// beside its detect span, and later queries reuse it.
func TestDCIndexBuiltOnFirstQuery(t *testing.T) {
	s := newDCSession(t)
	defer s.Close()
	reg := s.w.current().tables["emp"].reg
	if _, dcs := reg.built(); len(dcs) != 0 {
		t.Fatalf("set-up built %d DC indexes; the first DC query should", len(dcs))
	}
	for i, want := range []bool{true, false} {
		rows, err := s.QueryContext(context.Background(), "SELECT salary, tax FROM emp WHERE salary < 1400", WithTrace())
		if err != nil {
			t.Fatal(err)
		}
		tree := rows.Trace().Tree()
		rows.Close()
		if got := tree.Find("dc_index") != nil; got != want {
			t.Fatalf("query %d: dc_index span present = %v, want %v:\n%s", i, got, want, rows.Trace().Render())
		}
		if cs := tree.Find("cleanselect"); want && (cs == nil || cs.Find("dc_index") == nil) {
			t.Fatalf("dc_index is not under cleanselect:\n%s", rows.Trace().Render())
		}
	}
	if _, dcs := reg.built(); dcs["psi"] == nil {
		t.Fatal("the built index was not kept on the registration")
	}
	if s.w.current().tables["emp"].reg != reg {
		t.Fatal("the queries' epochs left the registration")
	}
}

// TestUntracedQueryHasNoTrace pins the zero-cost default: without WithTrace
// (and with sampling off) Rows.Trace is nil and explain-only queries behave
// the same way.
func TestUntracedQueryHasNoTrace(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyIncremental})
	defer s.Close()

	rows, err := s.QueryContext(context.Background(), "SELECT zip, city FROM cities")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Trace() != nil {
		t.Fatal("untraced query must carry no trace")
	}
	rows.Close()

	// Render/Tree/Compact on the nil trace are safe no-ops.
	var nilTrace *trace.Trace
	if nilTrace.Tree() != nil || nilTrace.Render() != "" || nilTrace.Compact() != "" {
		t.Fatal("nil trace must render empty")
	}
}

// TestTraceSampleRate pins Options.TraceSampleRate: rate 1 traces every
// query without WithTrace, rate 0 traces none.
func TestTraceSampleRate(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyIncremental, TraceSampleRate: 1})
	defer s.Close()
	rows, err := s.QueryContext(context.Background(), "SELECT zip, city FROM cities")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Trace() == nil {
		t.Fatal("TraceSampleRate=1 must trace every query")
	}
	rows.Close()
}

// TestTraceExplainMode pins the WithExplain+WithTrace combination: the trace
// records parse and plan and stops there — no exec, no publish.
func TestTraceExplainMode(t *testing.T) {
	s := newCitySession(t, Options{})
	defer s.Close()
	rows, err := s.QueryContext(context.Background(),
		"SELECT zip, city FROM cities", WithExplain(), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	root := rows.Trace().Tree()
	if root.Find("parse") == nil || root.Find("plan") == nil {
		t.Fatalf("explain trace must record parse and plan:\n%s", rows.Trace().Render())
	}
	if root.Find("exec") != nil || root.Find("publish") != nil {
		t.Fatalf("explain trace must not execute:\n%s", rows.Trace().Render())
	}
}
