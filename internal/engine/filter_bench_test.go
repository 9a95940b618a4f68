package engine

import (
	"math/rand"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/expr"
	"daisy/internal/ptable"
	"daisy/internal/uncertain"
	"daisy/internal/value"
	"daisy/internal/workload"
)

// lineorderPT builds an n-row lineorder-shaped relation (orderkey clustered by
// row position, partkey uncorrelated with it) whose orderkey cells are
// uncertain in about one row in five: FD-style candidate lists of two or
// three orderkeys drawn from anywhere in the key domain, so every segment's
// zone carries Unsure rows.
func lineorderPT(n int) *ptable.PTable {
	tb := workload.Lineorder(workload.SSBConfig{Rows: n, DistinctOrders: n / 6, Seed: 7})
	pt := ptable.FromTable(tb)
	rng := rand.New(rand.NewSource(7))
	d := ptable.NewDelta("lineorder")
	for r := 0; r < n; r++ {
		if rng.Intn(5) != 0 {
			continue
		}
		orig := tb.Rows[r][0]
		cell := uncertain.Cell{Orig: orig, Candidates: []uncertain.Candidate{{Val: orig, Prob: 0.5, Support: 1}}}
		for c, nc := 1, 2+rng.Intn(2); c < nc; c++ {
			cell.Candidates = append(cell.Candidates, uncertain.Candidate{
				Val: value.NewInt(int64(rng.Intn(n / 6))), Prob: 0.5 / float64(nc-1), World: c, Support: 1})
		}
		d.Set(int64(r), 0, cell)
	}
	pt.Apply(d)
	return pt
}

// rangePred is lo <= col < hi on an Int column.
func rangePred(col string, lo, hi int64) expr.Pred {
	return &expr.And{
		L: &expr.Cmp{Ref: expr.ColRef{Col: col}, Op: dc.Geq, Val: value.NewInt(lo)},
		R: &expr.Cmp{Ref: expr.ColRef{Col: col}, Op: dc.Lt, Val: value.NewInt(hi)},
	}
}

// filterCases are the three shapes a filter evaluates rows in: a zone-pruned
// range on the clustered lhs (only Unsure rows of excluded segments are
// evaluated), an unpruned range on an uncorrelated column (every row is),
// and a re-qualification row set (every fifth row, none passed before).
func filterCases(pt *ptable.PTable) []struct {
	name string
	f    *frame
	pred expr.Pred
} {
	n := pt.Len()
	var every5 []int
	for r := 0; r < n; r += 5 {
		every5 = append(every5, r)
	}
	keys := int64(n / 6)
	return []struct {
		name string
		f    *frame
		pred expr.Pred
	}{
		{"lhs_range_pruned", &frame{pt: pt, isBase: true, full: true}, rangePred("orderkey", keys/2, keys/2+keys/200)},
		{"uncorrelated_unpruned", &frame{pt: pt, isBase: true, full: true}, rangePred("partkey", 50, 60)},
		{"requalify_rows", &frame{pt: pt, isBase: true, rows: every5}, rangePred("orderkey", keys/2, keys/2+keys/200)},
	}
}

// BenchmarkFilter measures the filter per evaluated row on a 100k-row
// lineorder-shaped relation with one worker.
func BenchmarkFilter(b *testing.B) {
	pt := lineorderPT(100_000)
	for _, tc := range filterCases(pt) {
		b.Run(tc.name, func(b *testing.B) {
			e := &Executor{Workers: 1}
			evaluated := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := e.filter(tc.f, tc.pred)
				if err != nil {
					b.Fatal(err)
				}
				evaluated += st.evaluated
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(evaluated), "ns/evaluated_row")
		})
	}
}

// TestFilterRowsAllocateNothing pins evaluation to zero allocations per row:
// a filter that evaluates every row and keeps none allocates the same at
// 10k and 50k rows (compiling the kernel and the chunk bookkeeping), and
// the kernel itself allocates nothing on certain, candidate and range cells,
// through OR and column-to-column comparisons.
func TestFilterRowsAllocateNothing(t *testing.T) {
	// A contradictory range no zone rules out: every row is evaluated, none kept.
	none := &expr.And{L: rangePred("partkey", 50, 60), R: &expr.Cmp{Ref: expr.ColRef{Col: "partkey"}, Op: dc.Gt, Val: value.NewInt(100)}}
	var allocs []float64
	for _, n := range []int{10_000, 50_000} {
		pt := lineorderPT(n)
		f := &frame{pt: pt, isBase: true, full: true}
		e := &Executor{Workers: 1}
		allocs = append(allocs, testing.AllocsPerRun(5, func() {
			out, st, err := e.filter(f, none)
			if err != nil || len(out.rows) != 0 || st.evaluated != n {
				t.Fatalf("n %d: kept %d, evaluated %d, err %v", n, len(out.rows), st.evaluated, err)
			}
		}))
	}
	if allocs[0] != allocs[1] {
		t.Errorf("filter allocates %v at 10k rows and %v at 50k rows: evaluation allocates per row", allocs[0], allocs[1])
	}

	pt := lineorderPT(10_000)
	pt.Apply(rangeDelta(pt))
	pred := &expr.Or{
		L: &expr.And{L: rangePred("orderkey", 10, 900), R: &expr.ColCmp{Left: expr.ColRef{Col: "orderkey"}, Op: dc.Neq, Right: expr.ColRef{Col: "suppkey"}}},
		R: &expr.Cmp{Ref: expr.ColRef{Table: "lineorder", Col: "discount"}, Op: dc.Gt, Val: value.NewFloat(0.05)},
	}
	kern, _, err := compilePred(pred, pt.Schema)
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	if a := testing.AllocsPerRun(3, func() {
		kept = 0
		for _, tup := range pt.Rows() {
			if kern(tup.Cells) {
				kept++
			}
		}
	}); a != 0 {
		t.Errorf("kernel allocates %v per pass over %d rows, want 0", a, pt.Len())
	}
	if kept == 0 || kept == pt.Len() {
		t.Errorf("kernel kept %d of %d rows: the predicate no longer exercises both outcomes", kept, pt.Len())
	}
}

// rangeDelta gives every 7th row of pt a DC range cell on orderkey.
func rangeDelta(pt *ptable.PTable) *ptable.Delta {
	d := ptable.NewDelta(pt.Name)
	for r := 3; r < pt.Len(); r += 7 {
		c := pt.At(r).Cells[0].Clone()
		c.AddRange(dc.Lt, value.NewInt(int64(r%500)), 1)
		d.Set(int64(r), 0, c)
	}
	return d
}
