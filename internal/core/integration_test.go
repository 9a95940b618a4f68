package core

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/offline"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/value"
	"daisy/internal/workload"
)

// TestDaisyMatchesOfflineOnGeneratedData is the §3 correctness guarantee as
// a property test: after a workload that covers the whole dataset, Daisy's
// probabilistic state matches one offline cleaning pass, on random SSB-like
// data.
func TestDaisyMatchesOfflineOnGeneratedData(t *testing.T) {
	prop := func(seed uint16) bool {
		lo := workload.Lineorder(workload.SSBConfig{
			Rows: 300, DistinctOrders: 60, DistinctSupps: 12, Seed: int64(seed),
		})
		workload.InjectFDErrors(lo, "orderkey", "suppkey", 0.5, 0.2, int64(seed)+1)
		rule := dc.FD("phi", "lineorder", "suppkey", "orderkey")

		s := NewSession(Options{Strategy: StrategyIncremental})
		if err := s.Register(lo.Clone()); err != nil {
			return false
		}
		if err := s.AddRule(rule); err != nil {
			return false
		}
		if _, err := s.Query("SELECT orderkey, suppkey FROM lineorder WHERE orderkey >= 0"); err != nil {
			return false
		}

		off := ptable.FromTable(lo)
		if _, err := (&offline.Cleaner{}).CleanAll(context.Background(), off, []*dc.Constraint{rule}); err != nil {
			return false
		}
		daisyPT := s.Table("lineorder")
		for i := 0; i < daisyPT.Len(); i++ {
			a := daisyPT.Cell(i, "suppkey")
			b := off.Cell(i, "suppkey")
			if !a.EqualDistribution(b, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestWorkloadCoverageCleansEverything: a non-overlapping workload covering
// the key domain leaves no unchecked violating group behind.
func TestWorkloadCoverageCleansEverything(t *testing.T) {
	lo := workload.Lineorder(workload.SSBConfig{
		Rows: 600, DistinctOrders: 120, DistinctSupps: 24, Seed: 5,
	})
	workload.InjectFDErrors(lo, "orderkey", "suppkey", 1.0, 0.2, 6)
	rule := dc.FD("phi", "lineorder", "suppkey", "orderkey")
	s := NewSession(Options{Strategy: StrategyIncremental})
	if err := s.Register(lo); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(rule); err != nil {
		t.Fatal(err)
	}
	for _, q := range workload.RangeQueries(lo, "suppkey", 10, "orderkey, suppkey", 7) {
		if _, err := s.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	// Every tuple of a violating group must now be probabilistic.
	fd, _ := rule.AsFD()
	groups := detect.FDViolations(detect.PTableView{P: s.Table("lineorder")}, fd, nil)
	pt := s.Table("lineorder")
	for _, g := range groups {
		for _, pos := range g.Members {
			if pt.At(pos).Cells[pt.Schema.MustIndex("suppkey")].IsCertain() {
				t.Fatalf("tuple %d in violating group %v still certain", pos, g.LHS)
			}
		}
	}
}

// TestProbabilityMassInvariantAfterWorkload: every uncertain cell keeps unit
// probability mass and provenance across an entire mixed workload.
func TestProbabilityMassInvariantAfterWorkload(t *testing.T) {
	lo := workload.Lineorder(workload.SSBConfig{
		Rows: 500, DistinctOrders: 100, DistinctSupps: 20, Seed: 9,
	})
	workload.InjectFDErrors(lo, "orderkey", "suppkey", 1.0, 0.2, 10)
	orig := lo.Clone()
	s := NewSession(Options{})
	if err := s.Register(lo); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(dc.FD("phi", "lineorder", "suppkey", "orderkey")); err != nil {
		t.Fatal(err)
	}
	for _, q := range workload.MixedQueries(lo, "suppkey", 12, "orderkey, suppkey", 11) {
		if _, err := s.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	pt := s.Table("lineorder")
	for i, tup := range pt.Rows() {
		for col := range tup.Cells {
			cell := &tup.Cells[col]
			if s := cell.ProbSum(); s < 0.999 || s > 1.001 {
				t.Fatalf("tuple %d col %d mass %v", i, col, s)
			}
			if !cell.Orig.Equal(orig.Rows[i][col]) {
				t.Fatalf("tuple %d col %d provenance lost: %v != %v", i, col, cell.Orig, orig.Rows[i][col])
			}
		}
	}
}

// TestQueryErrors exercises failure paths end to end.
func TestQueryErrors(t *testing.T) {
	s := newCitySession(t, Options{})
	cases := []string{
		"",
		"SELECT ghost FROM cities",
		"SELECT zip FROM ghost",
		"SELECT zip FROM cities WHERE",
		"SELECT zip FROM cities, cities WHERE zip = 1",
	}
	for _, q := range cases {
		if _, err := s.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

// TestEmptyResultQueries: queries with empty answers are harmless and cheap.
func TestEmptyResultQueries(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyIncremental})
	res, err := s.Query("SELECT zip, city FROM cities WHERE zip = 424242")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 0 {
		t.Errorf("rows = %d", res.Rows.Len())
	}
	if s.Table("cities").DirtyTuples() != 0 {
		t.Error("empty result must not trigger repairs")
	}
}

// TestEmptyTable: registering and querying an empty relation works.
func TestEmptyTable(t *testing.T) {
	sch := schema.MustNew(
		schema.Column{Name: "a", Kind: value.Int},
		schema.Column{Name: "b", Kind: value.Int},
	)
	s := NewSession(Options{})
	if err := s.Register(table.New("empty", sch)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(dc.FD("phi", "empty", "b", "a")); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("SELECT a, b FROM empty WHERE a > 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 0 {
		t.Errorf("rows = %d", res.Rows.Len())
	}
}

// TestSingleRowTable: no pair exists, so nothing can violate.
func TestSingleRowTable(t *testing.T) {
	sch := schema.MustNew(
		schema.Column{Name: "a", Kind: value.Int},
		schema.Column{Name: "b", Kind: value.Int},
	)
	tb := table.New("one", sch)
	tb.MustAppend(table.Row{value.NewInt(1), value.NewInt(2)})
	s := NewSession(Options{})
	if err := s.Register(tb); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(dc.FD("phi", "one", "b", "a")); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("SELECT a, b FROM one WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 1 || s.Table("one").DirtyTuples() != 0 {
		t.Errorf("rows=%d dirty=%d", res.Rows.Len(), s.Table("one").DirtyTuples())
	}
}

// TestStatsPruningAblation: disabling pruning must not change the cleaning
// outcome, only the work.
func TestStatsPruningAblation(t *testing.T) {
	lo := workload.Lineorder(workload.SSBConfig{
		Rows: 400, DistinctOrders: 80, DistinctSupps: 16, Seed: 13,
	})
	workload.InjectFDErrors(lo, "orderkey", "suppkey", 0.2, 0.2, 14)
	rule := dc.FD("phi", "lineorder", "suppkey", "orderkey")
	run := func(disable bool) (*ptable.PTable, int64) {
		s := NewSession(Options{Strategy: StrategyIncremental, DisableStatsPruning: disable})
		if err := s.Register(lo.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := s.AddRule(rule); err != nil {
			t.Fatal(err)
		}
		for _, q := range workload.RangeQueries(lo, "suppkey", 8, "orderkey, suppkey", 15) {
			if _, err := s.Query(q); err != nil {
				t.Fatal(err)
			}
		}
		return s.Table("lineorder"), s.Metrics.Scanned
	}
	withPruning, scanned1 := run(false)
	without, scanned2 := run(true)
	for i := 0; i < withPruning.Len(); i++ {
		a := withPruning.Cell(i, "suppkey")
		b := without.Cell(i, "suppkey")
		if !a.EqualDistribution(b, 1e-9) {
			t.Fatalf("row %d differs with pruning disabled", i)
		}
	}
	if scanned2 < scanned1 {
		t.Errorf("disabling pruning should not scan less: %d < %d", scanned2, scanned1)
	}
}

// TestRegistrationOrderDoesNotChangeCleaning: cleaning is a function of
// (data, rules, queries), not of the order tables and rules arrived in. An
// unnamed FD added between registering a and b binds to both, so b — like a
// — prunes a clean group by its statistics (skip) and consults a seeded
// §5.2.3 cost model on a dirty one, giving the same decisions as a.
func TestRegistrationOrderDoesNotChangeCleaning(t *testing.T) {
	tb := citiesTable()
	tb.MustAppend(table.Row{value.NewInt(20000), value.NewString("Boston")})
	tb.MustAppend(table.Row{value.NewInt(20000), value.NewString("Boston")})
	register := func(s *Session, name string) {
		t.Helper()
		c := tb.Clone()
		c.Name = name
		if err := s.Register(c); err != nil {
			t.Fatal(err)
		}
	}
	s := NewSession(Options{})
	defer s.Close()
	register(s, "a")
	if err := s.AddRule(dc.FD("phi", "", "city", "zip")); err != nil {
		t.Fatal(err)
	}
	register(s, "b")
	for _, name := range []string{"a", "b"} {
		if st := s.w.current().tables[name]; st.cost == nil || len(st.rules) != 1 {
			t.Errorf("%s: cost model %v, %d bound rules; want a seeded model and phi bound", name, st.cost, len(st.rules))
		}
	}
	for _, where := range []string{"zip = 20000", "zip = 9001"} {
		var decs [2][]Decision
		for i, name := range []string{"a", "b"} {
			res, err := s.Query("SELECT zip, city FROM " + name + " WHERE " + where)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range res.Decisions {
				d.Table = ""
				decs[i] = append(decs[i], d)
			}
		}
		if len(decs[0]) != 1 || !reflect.DeepEqual(decs[0], decs[1]) {
			t.Errorf("WHERE %s: decisions on a %+v, on b %+v; want one, the same", where, decs[0], decs[1])
		}
		if where == "zip = 20000" && len(decs[1]) == 1 && decs[1][0].Strategy != "skip" {
			t.Errorf("clean group on b: strategy %q, want skip (pruned)", decs[1][0].Strategy)
		}
	}
}
