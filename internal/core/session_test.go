package core

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"daisy/internal/dc"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/value"
)

// Table 2a of the paper.
func citiesTable() *table.Table {
	sch := schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "city", Kind: value.String},
	)
	t := table.New("cities", sch)
	rows := []struct {
		zip  int64
		city string
	}{
		{9001, "Los Angeles"}, {9001, "San Francisco"}, {9001, "Los Angeles"},
		{10001, "San Francisco"}, {10001, "New York"},
	}
	for _, r := range rows {
		t.MustAppend(table.Row{value.NewInt(r.zip), value.NewString(r.city)})
	}
	return t
}

func newCitySession(t *testing.T, opts Options) *Session {
	t.Helper()
	s := NewSession(opts)
	if err := s.Register(citiesTable()); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(dc.FD("phi", "cities", "city", "zip")); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExample2EndToEnd(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyIncremental})
	res, err := s.Query("SELECT zip, city FROM cities WHERE city = 'Los Angeles'")
	if err != nil {
		t.Fatal(err)
	}
	// Result: the two LA rows plus the relaxed dirty partner (row 1) which
	// can be LA in a candidate world.
	if res.Rows.Len() != 3 {
		t.Fatalf("result rows = %d, want 3", res.Rows.Len())
	}
	// The dataset was updated in place: tuple 1's city is probabilistic.
	pt := s.Table("cities")
	cell := pt.Cell(1, "city")
	if cell.IsCertain() {
		t.Fatal("tuple 1 city must be probabilistic after cleaning")
	}
	var laProb float64
	for _, c := range cell.Candidates {
		if c.Val.Str() == "Los Angeles" {
			laProb = c.Prob
		}
	}
	if math.Abs(laProb-2.0/3) > 1e-9 {
		t.Errorf("P(LA|9001) = %v, want 0.667", laProb)
	}
	// Zip cell of tuple 1 gets {9001, 10001} via same-rhs partner row 3.
	zipCell := pt.Cell(1, "zip")
	if zipCell.IsCertain() || len(zipCell.Candidates) != 2 {
		t.Errorf("tuple 1 zip = %v", zipCell)
	}
	// Untouched group: row 4 (10001, NY) stays certain.
	if !pt.Cell(4, "city").IsCertain() {
		t.Error("row 4 was not part of the query; its city must stay certain")
	}
}

func TestExample3LHSFilterEndToEnd(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyIncremental})
	res, err := s.Query("SELECT zip, city FROM cities WHERE zip = 9001")
	if err != nil {
		t.Fatal(err)
	}
	// Rows 0,1,2 qualify directly; transitive closure pulls rows 3,4 whose
	// zip becomes probabilistic {9001,10001} — row 3 qualifies in a world.
	if res.Rows.Len() < 4 {
		t.Fatalf("result rows = %d, want ≥4 (closure adds row 3)", res.Rows.Len())
	}
	pt := s.Table("cities")
	// Whole cluster repaired (Table 3 shape).
	if pt.Cell(3, "city").IsCertain() {
		t.Error("row 3 city must be probabilistic")
	}
	if pt.Cell(4, "city").IsCertain() {
		t.Error("row 4 city must be probabilistic (10001 group violates)")
	}
}

func TestGradualCleaningNoRepeatedWork(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyIncremental})
	if _, err := s.Query("SELECT zip, city FROM cities WHERE city = 'Los Angeles'"); err != nil {
		t.Fatal(err)
	}
	before := s.Metrics
	// Same query again: its group is checked → skip.
	res, err := s.Query("SELECT zip, city FROM cities WHERE city = 'Los Angeles'")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Decisions {
		if d.Strategy != "skip" {
			t.Errorf("expected skip decision, got %+v", d)
		}
	}
	if s.Metrics.Repairs != before.Repairs {
		t.Error("second query must not repair again")
	}
}

func TestCleaningCorrectnessVsOffline(t *testing.T) {
	// §3 guarantee: Daisy over the whole dataset produces the same
	// distributions as one offline pass.
	s1 := newCitySession(t, Options{Strategy: StrategyIncremental})
	if _, err := s1.Query("SELECT zip, city FROM cities WHERE zip >= 0"); err != nil {
		t.Fatal(err)
	}
	s2 := newCitySession(t, Options{Strategy: StrategyFull})
	if _, err := s2.Query("SELECT zip, city FROM cities WHERE zip >= 0"); err != nil {
		t.Fatal(err)
	}
	p1, p2 := s1.Table("cities"), s2.Table("cities")
	for i := 0; i < p1.Len(); i++ {
		c1, c2 := p1.Cell(i, "city"), p2.Cell(i, "city")
		if !c1.EqualDistribution(c2, 1e-9) {
			t.Errorf("row %d: incremental %v vs full %v", i, c1, c2)
		}
	}
}

func TestDirtyExecutionMode(t *testing.T) {
	s := newCitySession(t, Options{DisableCleaning: true})
	res, err := s.Query("SELECT zip, city FROM cities WHERE city = 'Los Angeles'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 2 {
		t.Errorf("dirty rows = %d, want 2 (no relaxation)", res.Rows.Len())
	}
	if s.Table("cities").DirtyTuples() != 0 {
		t.Error("disabled cleaning must not touch the dataset")
	}
}

func TestDCQueryEndToEnd(t *testing.T) {
	sch := schema.MustNew(
		schema.Column{Name: "salary", Kind: value.Float},
		schema.Column{Name: "tax", Kind: value.Float},
	)
	tb := table.New("emp", sch)
	add := func(s, x float64) { tb.MustAppend(table.Row{value.NewFloat(s), value.NewFloat(x)}) }
	add(1000, 0.1)
	add(3000, 0.2)
	add(2000, 0.3)
	add(4000, 0.4)
	s := NewSession(Options{Strategy: StrategyIncremental})
	if err := s.Register(tb); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(dc.MustParse("psi@emp: !(t1.salary<t2.salary & t1.tax>t2.tax)")); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("SELECT salary, tax FROM emp WHERE salary >= 2500 AND salary <= 3500")
	if err != nil {
		t.Fatal(err)
	}
	// Row 1 qualifies; its conflict partner row 2 is pulled in by relaxation
	// and qualifies via its range candidate (salary ≥ 3000).
	if res.Rows.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Rows.Len())
	}
	pt := s.Table("emp")
	if pt.Cell(1, "salary").IsCertain() || pt.Cell(2, "tax").IsCertain() {
		t.Error("violating pair must receive probabilistic fixes")
	}
	if len(res.Decisions) == 0 || res.Decisions[0].Strategy == "" {
		t.Errorf("decision missing: %+v", res.Decisions)
	}
}

func TestDCIncrementalNoRecheck(t *testing.T) {
	sch := schema.MustNew(
		schema.Column{Name: "salary", Kind: value.Float},
		schema.Column{Name: "tax", Kind: value.Float},
	)
	tb := table.New("emp", sch)
	for i := 0; i < 20; i++ {
		tax := 0.1 + float64(i)*0.01
		if i%5 == 0 {
			tax = 0.5 - tax // inject inversions so detection has real work
		}
		tb.MustAppend(table.Row{value.NewFloat(float64(1000 + i*100)), value.NewFloat(tax)})
	}
	s := NewSession(Options{Strategy: StrategyIncremental})
	if err := s.Register(tb); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(dc.MustParse("psi@emp: !(t1.salary<t2.salary & t1.tax>t2.tax)")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("SELECT salary FROM emp WHERE salary < 1500"); err != nil {
		t.Fatal(err)
	}
	if s.Metrics.Comparisons == 0 {
		t.Fatal("first query should do detection work")
	}
	// Re-running the query converges: each repeat only checks tuples that
	// relaxation newly pulled into the result, so comparisons reach zero
	// within a bounded number of repeats (every tuple checked at most once).
	converged := false
	for i := 0; i < 25; i++ {
		before := s.Metrics.Comparisons
		if _, err := s.Query("SELECT salary FROM emp WHERE salary < 1500"); err != nil {
			t.Fatal(err)
		}
		if s.Metrics.Comparisons == before {
			converged = true
			break
		}
	}
	if !converged {
		t.Error("repeated identical queries never stop doing detection work")
	}
}

func TestAddRuleErrors(t *testing.T) {
	s := NewSession(Options{})
	if err := s.Register(citiesTable()); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(dc.FD("", "cities", "city", "zip")); err == nil {
		t.Error("unnamed rule must be rejected")
	}
	if err := s.AddRule(dc.FD("x", "cities", "ghost", "zip")); err == nil {
		t.Error("rule with unknown column must be rejected")
	}
	if err := s.AddRule(dc.FD("y", "ghost", "city", "zip")); err == nil {
		t.Error("rule on unknown table must be rejected")
	}
}

// TestAddRuleRejectsDuplicateName: a rule's name keys its group index and
// checked set, so a second rule under a name already added is refused.
// Accepted, it would reuse the first rule's index and checked set, and its
// own violations would never be cleaned.
func TestAddRuleRejectsDuplicateName(t *testing.T) {
	tb := table.New("addr", schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "city", Kind: value.String},
		schema.Column{Name: "st", Kind: value.String},
	))
	tb.MustAppend(table.Row{value.NewInt(9001), value.NewString("LA"), value.NewString("CA")})
	tb.MustAppend(table.Row{value.NewInt(9001), value.NewString("LA"), value.NewString("NV")})
	tb.MustAppend(table.Row{value.NewInt(10001), value.NewString("NY"), value.NewString("NY")})
	s := NewSession(Options{Strategy: StrategyIncremental})
	defer s.Close()
	if err := s.Register(tb); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(dc.FD("phi", "addr", "city", "zip")); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(dc.FD("phi", "addr", "st", "zip")); err == nil || !strings.Contains(err.Error(), "already added") {
		t.Fatalf("second rule named phi: err = %v, want it refused as already added", err)
	}
	if len(s.Rules()) != 1 {
		t.Fatalf("rules = %d after the refused duplicate, want 1", len(s.Rules()))
	}
	// Under a fresh name the rule binds and its violation is cleaned.
	if err := s.AddRule(dc.FD("phi2", "addr", "st", "zip")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("SELECT zip, st FROM addr WHERE zip = 9001"); err != nil {
		t.Fatal(err)
	}
	if c := s.Table("addr").Cell(0, "st"); len(c.Candidates) != 2 {
		t.Errorf("st of row 0 = %v, want the two candidates of the violated group", c)
	}
}

func TestRegisterDuplicate(t *testing.T) {
	s := NewSession(Options{})
	if err := s.Register(citiesTable()); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(citiesTable()); err == nil {
		t.Error("duplicate registration must fail")
	}
}

func TestJoinQueryWithCleaningBothSides(t *testing.T) {
	// Example 6: Cities ⋈ Employee with rules on both relations.
	cities := table.New("cities", schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "city", Kind: value.String},
	))
	cities.MustAppend(table.Row{value.NewInt(9001), value.NewString("Los Angeles")})
	cities.MustAppend(table.Row{value.NewInt(9001), value.NewString("San Francisco")})
	cities.MustAppend(table.Row{value.NewInt(10001), value.NewString("San Francisco")})

	emp := table.New("employee", schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "name", Kind: value.String},
		schema.Column{Name: "phone", Kind: value.Int},
	))
	emp.MustAppend(table.Row{value.NewInt(9001), value.NewString("Peter"), value.NewInt(23456)})
	emp.MustAppend(table.Row{value.NewInt(10001), value.NewString("Mary"), value.NewInt(12345)})
	emp.MustAppend(table.Row{value.NewInt(10002), value.NewString("Jon"), value.NewInt(12345)})

	s := NewSession(Options{Strategy: StrategyIncremental})
	if err := s.Register(cities); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(emp); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(dc.FD("phi1", "cities", "city", "zip")); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(dc.FD("phi2", "employee", "zip", "phone")); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("SELECT cities.zip, name FROM cities, employee " +
		"WHERE cities.zip = employee.zip AND city = 'Los Angeles'")
	if err != nil {
		t.Fatal(err)
	}
	// Dirty result is 1 row (9001 Peter). After cleaning: cities tuple 1 gets
	// zip {9001,10001}, employee tuples 1/2 get zip candidates via phi2 —
	// the clean result grows (Table 4e has 3 pairs).
	if res.Rows.Len() < 2 {
		t.Errorf("clean join rows = %d, want ≥2 (probabilistic matches)", res.Rows.Len())
	}
	// Both relations were updated in place.
	if s.Table("cities").DirtyTuples() == 0 {
		t.Error("cities must have probabilistic tuples")
	}
	if s.Table("employee").DirtyTuples() == 0 {
		t.Error("employee must have probabilistic tuples")
	}
}

func TestGroupByQueryCleansBeforeAggregation(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyIncremental})
	res, err := s.Query("SELECT city, COUNT(*) FROM cities WHERE zip = 9001 GROUP BY city")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() == 0 {
		t.Fatal("no groups")
	}
	// Cleaning happened below the aggregation.
	if s.Table("cities").DirtyTuples() == 0 {
		t.Error("group-by query must still clean the underlying data")
	}
}

func TestProvenanceSurvivesCleaning(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyFull})
	if _, err := s.Query("SELECT zip, city FROM cities WHERE zip >= 0"); err != nil {
		t.Fatal(err)
	}
	orig := s.Table("cities").Originals()
	want := citiesTable()
	for i := 0; i < want.Len(); i++ {
		for j := range want.Rows[i] {
			if !orig.Rows[i][j].Equal(want.Rows[i][j]) {
				t.Errorf("row %d col %d provenance %v != original %v", i, j, orig.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}

// TestCloseReleasesTablesInOneGC: Close disarms the session finalizer, whose
// closure holds the writer and with it the last snapshot. A closed, dropped
// session's tables are then collectable by the very next GC cycle instead of
// surviving until the redundant finalizer has run.
func TestCloseReleasesTablesInOneGC(t *testing.T) {
	freed := make(chan struct{})
	func() {
		s := newCitySession(t, Options{Strategy: StrategyIncremental})
		if _, err := s.Query("SELECT zip, city FROM cities WHERE zip = 9001"); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(s.Table("cities"), func(*ptable.PTable) { close(freed) })
		s.Close()
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(2 * time.Second):
		t.Fatal("a closed, dropped session's table survived a GC cycle")
	}
}
