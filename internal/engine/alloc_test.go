package engine

import (
	"fmt"
	"testing"

	"daisy/internal/plan"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/sql"
	"daisy/internal/table"
	"daisy/internal/value"
)

// joinFixture builds two relations with n rows each and a shared integer
// join key of k distinct values.
func joinFixture(n, k int) (left, right *ptable.PTable) {
	ls := schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "city", Kind: value.String},
	)
	lt := table.New("cities", ls)
	for i := 0; i < n; i++ {
		lt.MustAppend(table.Row{value.NewInt(int64(i % k)), value.NewString("c" + fmt.Sprint(i%26))})
	}
	rs := schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "name", Kind: value.String},
	)
	rt := table.New("employee", rs)
	for i := 0; i < n; i++ {
		rt.MustAppend(table.Row{value.NewInt(int64(i % k)), value.NewString("n" + fmt.Sprint(i%26))})
	}
	return ptable.FromTable(lt), ptable.FromTable(rt)
}

func joinPlan(tb testing.TB, e *Executor) plan.Node {
	parsed := sql.MustParse("SELECT name FROM cities, employee WHERE cities.zip = employee.zip")
	n, err := plan.Build(parsed, catalog(e.Tables), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// TestHashJoinAllocs pins the probe/build allocation budget of the
// probabilistic hash join: comparable MapKey build keys mean the per-row
// cost stays bounded by output materialization, not key strings.
func TestHashJoinAllocs(t *testing.T) {
	left, right := joinFixture(2000, 2000) // 1:1 join, 2000 output tuples
	e := &Executor{Tables: map[string]*ptable.PTable{"cities": left, "employee": right}}
	n := joinPlan(t, e)
	perRun := testing.AllocsPerRun(5, func() {
		fr, err := e.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		fr.Materialize()
	})
	// Budget: output rows dominate (about one allocation per row in all:
	// join tuples carve their cells from one block); the probe side must not
	// add per-candidate key allocations, and a join tuple carries nothing
	// but its cells.
	perRow := perRun / 2000
	if perRow > 1.5 {
		t.Errorf("hash join allocates %.2f per output row (%.0f per run), want ≤ 1.5", perRow, perRun)
	}
}

// BenchmarkHashJoin measures the probabilistic equi-join end to end.
func BenchmarkHashJoin(b *testing.B) {
	left, right := joinFixture(5000, 5000)
	e := &Executor{Tables: map[string]*ptable.PTable{"cities": left, "employee": right}}
	n := joinPlan(b, e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := e.Run(n)
		if err != nil {
			b.Fatal(err)
		}
		fr.Materialize()
	}
}
