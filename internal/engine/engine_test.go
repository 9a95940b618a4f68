package engine

import (
	"testing"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/expr"
	"daisy/internal/plan"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/sql"
	"daisy/internal/table"
	"daisy/internal/trace"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

func citiesPT() *ptable.PTable {
	sch := schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "city", Kind: value.String},
	)
	t := table.New("cities", sch)
	rows := []struct {
		zip  int64
		city string
	}{
		{9001, "Los Angeles"}, {9001, "San Francisco"}, {10001, "New York"},
	}
	for _, r := range rows {
		t.MustAppend(table.Row{value.NewInt(r.zip), value.NewString(r.city)})
	}
	return ptable.FromTable(t)
}

func employeesPT() *ptable.PTable {
	sch := schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "name", Kind: value.String},
		schema.Column{Name: "phone", Kind: value.Int},
	)
	t := table.New("employee", sch)
	rows := []struct {
		zip   int64
		name  string
		phone int64
	}{
		{9001, "Peter", 23456}, {10001, "Mary", 12345}, {10002, "Jon", 12345},
	}
	for _, r := range rows {
		t.MustAppend(table.Row{value.NewInt(r.zip), value.NewString(r.name), value.NewInt(r.phone)})
	}
	return ptable.FromTable(t)
}

type catalog map[string]*ptable.PTable

func (c catalog) Schema(t string) (*schema.Schema, bool) {
	pt, ok := c[t]
	if !ok {
		return nil, false
	}
	return pt.Schema, true
}

func run(t *testing.T, e *Executor, q string) *ptable.PTable {
	t.Helper()
	parsed := sql.MustParse(q)
	c := catalog(e.Tables)
	n, err := plan.Build(parsed, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := e.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	out := fr.Materialize()
	return out
}

func TestSelectProject(t *testing.T) {
	e := &Executor{Tables: map[string]*ptable.PTable{"cities": citiesPT()}}
	out := run(t, e, "SELECT zip FROM cities WHERE city = 'Los Angeles'")
	if out.Len() != 1 {
		t.Fatalf("rows = %d", out.Len())
	}
	if out.Get(0, "zip").Int() != 9001 {
		t.Errorf("zip = %v", out.Get(0, "zip"))
	}
	if out.Schema.Len() != 1 {
		t.Errorf("projection width = %d", out.Schema.Len())
	}
}

func TestSelectQualifiesAnyWorld(t *testing.T) {
	pt := citiesPT()
	// Make tuple 2's zip probabilistic {9001 50%, 10001 50%}.
	d := ptable.NewDelta("cities")
	d.Set(2, 0, uncertain.Cell{
		Orig: value.NewInt(10001),
		Candidates: []uncertain.Candidate{
			{Val: value.NewInt(9001), Prob: 0.5, World: 1},
			{Val: value.NewInt(10001), Prob: 0.5, World: 1},
		},
	})
	pt.Apply(d)
	e := &Executor{Tables: map[string]*ptable.PTable{"cities": pt}}
	out := run(t, e, "SELECT zip, city FROM cities WHERE zip = 9001")
	if out.Len() != 3 {
		t.Fatalf("rows = %d, want 3 (probabilistic tuple qualifies)", out.Len())
	}
}

func TestRangeFilter(t *testing.T) {
	e := &Executor{Tables: map[string]*ptable.PTable{"cities": citiesPT()}}
	out := run(t, e, "SELECT city FROM cities WHERE zip >= 9001 AND zip < 10000")
	if out.Len() != 2 {
		t.Fatalf("rows = %d", out.Len())
	}
}

func TestJoinCertainKeys(t *testing.T) {
	e := &Executor{Tables: map[string]*ptable.PTable{"cities": citiesPT(), "employee": employeesPT()}}
	out := run(t, e, "SELECT cities.zip, name FROM cities, employee WHERE cities.zip = employee.zip")
	// 9001→Peter (×2 city rows), 10001→Mary.
	if out.Len() != 3 {
		t.Fatalf("join rows = %d, want 3", out.Len())
	}
}

func TestJoinProbabilisticOverlap(t *testing.T) {
	cities := citiesPT()
	// Example 6 shape: city tuple 1's zip becomes {9001, 10001}.
	d := ptable.NewDelta("cities")
	d.Set(1, 0, uncertain.Cell{
		Orig: value.NewInt(9001),
		Candidates: []uncertain.Candidate{
			{Val: value.NewInt(9001), Prob: 0.5, World: 1},
			{Val: value.NewInt(10001), Prob: 0.5, World: 1},
		},
	})
	cities.Apply(d)
	e := &Executor{Tables: map[string]*ptable.PTable{"cities": cities, "employee": employeesPT()}}
	out := run(t, e, "SELECT name FROM cities, employee WHERE cities.zip = employee.zip")
	// Tuple 1 now joins both Peter (9001) and Mary (10001): 2+1+1 = 4 rows.
	if out.Len() != 4 {
		t.Fatalf("join rows = %d, want 4", out.Len())
	}
}

// TestResultIDsArePositions: every operator output numbers its tuples by
// result position — the join's own relation, a projection over a join and
// over a filtered base relation, and a materialized filtered base frame.
func TestResultIDsArePositions(t *testing.T) {
	e := &Executor{Tables: map[string]*ptable.PTable{"cities": citiesPT(), "employee": employeesPT()}}
	for _, q := range []struct {
		sql  string
		rows int
	}{
		{"SELECT * FROM cities, employee WHERE cities.zip = employee.zip", 3},
		{"SELECT cities.zip, name FROM cities, employee WHERE cities.zip = employee.zip", 3},
		{"SELECT city FROM cities WHERE zip = 10001", 1},
		{"SELECT * FROM cities WHERE zip = 10001", 1},
	} {
		n, err := plan.Build(sql.MustParse(q.sql), catalog(e.Tables), nil)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := e.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		out := fr.Materialize()
		if out.Len() != q.rows {
			t.Errorf("%s: %d rows, want %d", q.sql, out.Len(), q.rows)
		}
		for pos, tup := range out.Rows() {
			if tup.ID != int64(pos) {
				t.Errorf("%s: tuple at position %d has ID %d", q.sql, pos, tup.ID)
			}
		}
	}
}

func TestGroupByAggregates(t *testing.T) {
	e := &Executor{Tables: map[string]*ptable.PTable{"employee": employeesPT()}}
	out := run(t, e, "SELECT phone, COUNT(*), MIN(zip), MAX(zip), AVG(zip) FROM employee GROUP BY phone")
	if out.Len() != 2 {
		t.Fatalf("groups = %d", out.Len())
	}
	// Group 12345 has Mary (10001) and Jon (10002).
	var found bool
	for i := 0; i < out.Len(); i++ {
		if out.Get(i, "phone").Int() != 12345 {
			continue
		}
		found = true
		if out.Get(i, "COUNT(*)").Int() != 2 {
			t.Errorf("count = %v", out.Get(i, "COUNT(*)"))
		}
		if out.Get(i, "MIN(zip)").Int() != 10001 || out.Get(i, "MAX(zip)").Int() != 10002 {
			t.Errorf("min/max = %v/%v", out.Get(i, "MIN(zip)"), out.Get(i, "MAX(zip)"))
		}
		if av := out.Get(i, "AVG(zip)").Float(); av != 10001.5 {
			t.Errorf("avg = %v", av)
		}
	}
	if !found {
		t.Error("group 12345 missing")
	}
}

// TestGroupByQualifiedKeyOverJoin groups a join by a column whose plain
// name the left side also has. The output schema must resolve b.v as
// groupBy reads it — the prefixed join column first — so the key and MAX
// columns carry b.v's kind (string), not a.v's (int).
func TestGroupByQualifiedKeyOverJoin(t *testing.T) {
	mk := func(name string, vKind value.Kind, rows ...table.Row) *ptable.PTable {
		tb := table.New(name, schema.MustNew(
			schema.Column{Name: "k", Kind: value.Int},
			schema.Column{Name: "v", Kind: vKind},
		))
		for _, r := range rows {
			tb.MustAppend(r)
		}
		return ptable.FromTable(tb)
	}
	a := mk("a", value.Int,
		table.Row{value.NewInt(1), value.NewInt(10)},
		table.Row{value.NewInt(2), value.NewInt(20)})
	b := mk("b", value.String,
		table.Row{value.NewInt(1), value.NewString("x")},
		table.Row{value.NewInt(2), value.NewString("y")})
	e := &Executor{Tables: map[string]*ptable.PTable{"a": a, "b": b}}
	out := run(t, e, "SELECT b.v, MAX(b.v) FROM a, b WHERE a.k = b.k GROUP BY b.v")
	if out.Len() != 2 {
		t.Fatalf("groups = %d, want 2", out.Len())
	}
	for i := 0; i < out.Schema.Len(); i++ {
		if col := out.Schema.Col(i); col.Kind != value.String {
			t.Errorf("column %s kind = %s, want string", col.Name, col.Kind)
		}
	}
	for i, want := range []string{"x", "y"} {
		if got := out.At(i).Cells[0].Orig; got.Kind() != value.String || got.Str() != want {
			t.Errorf("group %d key = %v, want %s", i, got, want)
		}
		if got := out.At(i).Cells[1].Orig; got.Kind() != value.String || got.Str() != want {
			t.Errorf("group %d MAX(b.v) = %v, want %s", i, got, want)
		}
	}
}

func TestGlobalAggregate(t *testing.T) {
	e := &Executor{Tables: map[string]*ptable.PTable{"cities": citiesPT()}}
	out := run(t, e, "SELECT COUNT(*) FROM cities")
	if out.Len() != 1 || out.Get(0, "COUNT(*)").Int() != 3 {
		t.Fatalf("global count = %v", out)
	}
}

func TestSumAggregate(t *testing.T) {
	e := &Executor{Tables: map[string]*ptable.PTable{"employee": employeesPT()}}
	out := run(t, e, "SELECT SUM(zip) FROM employee")
	if got := out.Get(0, "SUM(zip)").Float(); got != 29004 {
		t.Errorf("sum = %v", got)
	}
}

type fakeCleaner struct {
	calledTable string
	calledRows  []int
	extraRows   []int
	fixed       *ptable.PTable // the generation returned; nil means unchanged
}

func (f *fakeCleaner) CleanSelect(tbl string, rows []int, pred expr.Pred, rules []*dc.Constraint, m *detect.Metrics, sp trace.Span) (*ptable.PTable, []int, error) {
	f.calledTable = tbl
	f.calledRows = rows
	return f.fixed, append(rows, f.extraRows...), nil
}

// TestCleanSelectInvokesCleaner pins the cleaner contract: the cleaner sees
// the filtered rows and returns candidates, and the executor re-qualifies
// them against the cleaner's generation. An extra that may satisfy the
// predicate after cleaning is kept; one that fails it in every world is
// dropped.
func TestCleanSelectInvokesCleaner(t *testing.T) {
	pt := citiesPT()
	// The cleaned generation makes row 1's city {San Francisco, Los Angeles};
	// row 2 stays New York.
	d := ptable.NewDelta("cities")
	d.Set(1, 1, uncertain.Cell{
		Orig: value.NewString("San Francisco"),
		Candidates: []uncertain.Candidate{
			{Val: value.NewString("Los Angeles"), Prob: 0.5, World: 1},
			{Val: value.NewString("San Francisco"), Prob: 0.5},
		},
	})
	fixed, _ := pt.ApplyCOW(d)
	fc := &fakeCleaner{extraRows: []int{1, 2}, fixed: fixed}
	e := &Executor{Tables: map[string]*ptable.PTable{"cities": pt}, Cleaner: fc}
	rule := dc.FD("phi", "cities", "city", "zip")
	parsed := sql.MustParse("SELECT zip FROM cities WHERE city = 'Los Angeles'")
	n, err := plan.Build(parsed, catalog(e.Tables), []*dc.Constraint{rule})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := e.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if fc.calledTable != "cities" || len(fc.calledRows) != 1 {
		t.Errorf("cleaner saw table=%q rows=%v", fc.calledTable, fc.calledRows)
	}
	if e.Tables["cities"] != fixed {
		t.Errorf("downstream operators must read the cleaner's generation")
	}
	// Row 1 may be Los Angeles after cleaning and is kept; row 2 is New
	// York in every world and is dropped.
	if out := fr.Materialize(); out.Len() != 2 {
		t.Errorf("result rows = %d, want 2 after re-qualification", out.Len())
	}
}

func TestCleanSelectNilCleanerPassesThrough(t *testing.T) {
	pt := citiesPT()
	e := &Executor{Tables: map[string]*ptable.PTable{"cities": pt}}
	rule := dc.FD("phi", "cities", "city", "zip")
	parsed := sql.MustParse("SELECT zip FROM cities WHERE city = 'Los Angeles'")
	n, err := plan.Build(parsed, catalog(e.Tables), []*dc.Constraint{rule})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := e.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	out := fr.Materialize()
	if out.Len() != 1 {
		t.Errorf("dirty execution rows = %d", out.Len())
	}
}

func TestUnknownTableError(t *testing.T) {
	e := &Executor{Tables: map[string]*ptable.PTable{}}
	_, err := e.exec(&plan.Scan{Table: "ghost"}, trace.Span{})
	if err == nil {
		t.Error("unknown table must error")
	}
}
