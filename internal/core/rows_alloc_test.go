package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/value"
)

// TestProjectedRowsAllocPerRow pins the read path's cost per result row: on
// a converged FD table, a selective projected query drained through
// Next/Row allocates less than 64 B per extra result row. The projection
// narrows a column map and Row fills one reused tuple, so only the row
// positions grow with the result; copying the kept cells costs ~300 B per
// row. The per-row cost is the TotalAlloc difference between two result
// sizes over the same table, which cancels the per-query constant.
func TestProjectedRowsAllocPerRow(t *testing.T) {
	const n, zips = 20000, 2000
	sch := schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "city", Kind: value.String},
		schema.Column{Name: "pop", Kind: value.Int},
	)
	tb := table.New("cities", sch)
	for i := 0; i < n; i++ {
		z := i % zips
		city := fmt.Sprint("c", z)
		if i%101 == 0 {
			city = "typo" // a violation for every 101st row
		}
		tb.MustAppend(table.Row{value.NewInt(int64(z)), value.NewString(city), value.NewInt(int64(i))})
	}
	s := NewSession(Options{Strategy: StrategyIncremental, Workers: 1})
	defer s.Close()
	if err := s.Register(tb); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(dc.FD("phi", "cities", "city", "zip")); err != nil {
		t.Fatal(err)
	}

	drain := func(q string) (bytes uint64, rows int) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r, err := s.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for r.Next() {
			if len(r.Row().Cells) != 2 {
				t.Fatalf("%s: row has %d cells, want 2", q, len(r.Row().Cells))
			}
			rows++
		}
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		r.Close()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, rows
	}
	small := "SELECT zip, city FROM cities WHERE zip < 100"
	large := "SELECT zip, city FROM cities WHERE zip < 1000"
	// Converge: the full-table query cleans every group, so the measured
	// queries find nothing left to repair.
	drain("SELECT zip, city FROM cities WHERE zip >= 0")
	// The minimum of a few runs drops allocations of the session's
	// background goroutines that land inside one window.
	minOf := func(q string) (uint64, int) {
		best, rows := drain(q)
		for range 4 {
			if b, _ := drain(q); b < best {
				best = b
			}
		}
		return best, rows
	}
	sb, sr := minOf(small)
	lb, lr := minOf(large)
	if lr <= sr {
		t.Fatalf("result sizes %d and %d do not differ", sr, lr)
	}
	perRow := (float64(lb) - float64(sb)) / float64(lr-sr)
	t.Logf("%d rows: %d B, %d rows: %d B, %.1f B per extra row", sr, sb, lr, lb, perRow)
	if perRow >= 64 {
		t.Errorf("a projected query allocates %.1f B per extra result row, want < 64", perRow)
	}
}
