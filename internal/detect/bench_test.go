package detect

import (
	"fmt"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/value"
)

// benchTable builds rows rows over distinct lhs groups with a typo injected
// every tenth row.
func benchTable(rows, groups int) *table.Table {
	sch := schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "city", Kind: value.String},
	)
	t := table.New("cities", sch)
	for i := 0; i < rows; i++ {
		city := "City-" + string(rune('A'+i%26))
		if i%10 == 0 {
			city = "City-typo"
		}
		t.MustAppend(table.Row{value.NewInt(int64(i % groups)), value.NewString(city)})
	}
	return t
}

func benchFD() dc.FDSpec {
	spec, ok := dc.FD("phi", "cities", "city", "zip").AsFD()
	if !ok {
		panic("not an FD")
	}
	return spec
}

// TestGroupByFDAllocs pins the allocation budget of the grouping hot path:
// comparable keys and positional access keep it well under one allocation
// per row (group-proportional structures dominate, not per-row keys).
func TestGroupByFDAllocs(t *testing.T) {
	tb := benchTable(10000, 400)
	view := TableView{tb}
	fd := benchFD()
	perRun := testing.AllocsPerRun(5, func() {
		GroupByFD(view, fd, nil)
	})
	// The budget is group-proportional (Group structs and member-slice
	// growth), never per-row: with 400 groups over 10k rows the legacy
	// string-key implementation sat above 3 allocations per row.
	perRow := perRun / 10000
	if perRow > 1.2 {
		t.Errorf("GroupByFD allocates %.2f per row (%.0f per run), want ≤ 1.2", perRow, perRun)
	}
}

// BenchmarkGroupByFD measures FD hash-grouping at 10k and 100k rows.
func BenchmarkGroupByFD(b *testing.B) {
	fd := benchFD()
	for _, rows := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			view := TableView{benchTable(rows, rows/5)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				GroupByFD(view, fd, nil)
			}
		})
	}
}

// BenchmarkLHSKey measures the per-row composite key build, single and
// multi column.
func BenchmarkLHSKey(b *testing.B) {
	tb := benchTable(1000, 200)
	view := TableView{tb}
	single := CompileFD(view, benchFD())
	multiSpec, _ := dc.FD("psi", "cities", "city", "zip", "city").AsFD()
	multi := CompileFD(view, dc.FDSpec{LHS: multiSpec.LHS, RHS: multiSpec.RHS})
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = single.LHSKey(view, i%1000)
		}
	})
	b.Run("multi", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = multi.LHSKey(view, i%1000)
		}
	})
}
