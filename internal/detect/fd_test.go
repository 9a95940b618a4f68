package detect

import (
	"testing"

	"daisy/internal/dc"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

func citiesDirty() *table.Table {
	sch := schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "city", Kind: value.String},
	)
	t := table.New("cities", sch)
	rows := [][2]interface{}{
		{9001, "Los Angeles"}, {9001, "San Francisco"}, {9001, "Los Angeles"},
		{10001, "San Francisco"}, {10001, "New York"}, {10002, "New York"},
	}
	for _, r := range rows {
		t.MustAppend(table.Row{value.NewInt(int64(r[0].(int))), value.NewString(r[1].(string))})
	}
	return t
}

func fdZipCity() dc.FDSpec {
	spec, ok := dc.FD("phi", "cities", "city", "zip").AsFD()
	if !ok {
		panic("not an FD")
	}
	return spec
}

func TestGroupByFD(t *testing.T) {
	var m Metrics
	groups := GroupByFD(TableView{citiesDirty()}, fdZipCity(), &m)
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3 zips", len(groups))
	}
	if m.Scanned != 6 {
		t.Errorf("scanned = %d", m.Scanned)
	}
}

func TestFDViolations(t *testing.T) {
	vio := FDViolations(TableView{citiesDirty()}, fdZipCity(), nil)
	if len(vio) != 2 {
		t.Fatalf("violating groups = %d, want 2 (zip 9001 and 10001)", len(vio))
	}
	// Deterministic order by lhs key.
	if vio[0].LHS[0].Int() != 10001 && vio[0].LHS[0].Int() != 9001 {
		t.Errorf("unexpected group lhs %v", vio[0].LHS[0])
	}
	for _, g := range vio {
		if !g.Violating() {
			t.Error("non-violating group returned")
		}
	}
}

func TestMultiColumnLHSGrouping(t *testing.T) {
	sch := schema.MustNew(
		schema.Column{Name: "county_code", Kind: value.Int},
		schema.Column{Name: "state_code", Kind: value.Int},
		schema.Column{Name: "county_name", Kind: value.String},
	)
	tb := table.New("air", sch)
	tb.MustAppend(table.Row{value.NewInt(1), value.NewInt(6), value.NewString("Alameda")})
	tb.MustAppend(table.Row{value.NewInt(1), value.NewInt(6), value.NewString("Alamedda")})
	tb.MustAppend(table.Row{value.NewInt(1), value.NewInt(7), value.NewString("Other")})
	spec, _ := dc.FD("phi", "air", "county_name", "county_code", "state_code").AsFD()
	vio := FDViolations(TableView{tb}, spec, nil)
	if len(vio) != 1 {
		t.Fatalf("violations = %d, want 1 (code 1 state 6)", len(vio))
	}
	if len(vio[0].Members) != 2 {
		t.Errorf("members = %v", vio[0].Members)
	}
}

func TestGroupByRHS(t *testing.T) {
	byRHS := GroupByRHS(TableView{citiesDirty()}, fdZipCity(), nil)
	if len(byRHS) != 3 {
		t.Fatalf("distinct rhs values = %d", len(byRHS))
	}
	if len(byRHS[value.NewString("San Francisco").MapKey()]) != 2 {
		t.Errorf("SF rows = %v", byRHS[value.NewString("San Francisco").MapKey()])
	}
}

func TestPTableViewUsesOriginals(t *testing.T) {
	p := ptable.FromTable(citiesDirty())
	// Clean tuple 1's city probabilistically; the detection view must still
	// see the original dirty value (rules are checked on original data).
	d := ptable.NewDelta("cities")
	d.Set(1, 1, uncertain.Cell{
		Orig: value.NewString("San Francisco"),
		Candidates: []uncertain.Candidate{
			{Val: value.NewString("Los Angeles"), Prob: 1, World: 1, Support: 1},
		},
	})
	p.Apply(d)
	v := PTableView{P: p}
	if v.Value(1, "city").Str() != "San Francisco" {
		t.Errorf("PTableView must read originals, got %v", v.Value(1, "city"))
	}
	if got := v.ValueAt(1, v.ColIndex("city")); got.Str() != "San Francisco" || v.Len() != 6 {
		t.Errorf("view shape wrong: row 1 city=%v len=%d", got, v.Len())
	}
}

func TestSubsetView(t *testing.T) {
	base := TableView{citiesDirty()}
	sub := SubsetView{Base: base, Idx: []int{4, 0}}
	if sub.Len() != 2 {
		t.Fatalf("len = %d", sub.Len())
	}
	if sub.Value(0, "city").Str() != "New York" {
		t.Errorf("subset row 0 = %v", sub.Value(0, "city"))
	}
	// Subset row i is base row Idx[i], column for column.
	for i, pos := range sub.Idx {
		for c := 0; c < base.T.Schema.Len(); c++ {
			if !sub.ValueAt(i, c).Equal(base.ValueAt(pos, c)) {
				t.Errorf("subset row %d col %d = %v, base row %d has %v", i, c, sub.ValueAt(i, c), pos, base.ValueAt(pos, c))
			}
		}
	}
	if sub.Value(1, "zip").Int() != 9001 {
		t.Errorf("subset row 1 zip = %v", sub.Value(1, "zip"))
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{Comparisons: 1, Scanned: 2, Relaxed: 3, Repairs: 4, Updates: 5}
	b := a
	a.Add(b)
	if a.Comparisons != 2 || a.Updates != 10 {
		t.Errorf("Add wrong: %+v", a)
	}
}
