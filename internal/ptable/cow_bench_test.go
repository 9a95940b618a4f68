package ptable_test

import (
	"fmt"
	"sync"
	"testing"

	"daisy/internal/oracle"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

// The ApplyCOW benchmarks measure epoch-publication cost on a 1M-row
// relation for deltas of 1, 100, and 10k tuples, segmented vs the
// pre-refactor flat implementation (oracle.FlatTable). Allocation numbers
// (B/op, allocs/op) are the headline: they are deterministic on a 1-CPU
// box where wall times are noisy, and publication cost is almost entirely
// copying. Delta tuples are spread evenly across the relation — the worst
// case for segment sharing, since clustered deltas share even more.
const benchRows = 1 << 20

var benchPT struct {
	sync.Once
	tb   *table.Table
	seg  *ptable.PTable
	flat *oracle.FlatTable
}

func benchRelation(b *testing.B) (*ptable.PTable, *oracle.FlatTable, *table.Table) {
	b.Helper()
	benchPT.Do(func() {
		sch := schema.MustNew(
			schema.Column{Name: "k", Kind: value.Int},
			schema.Column{Name: "v", Kind: value.Int},
		)
		tb := table.New("big", sch)
		for i := 0; i < benchRows; i++ {
			tb.MustAppend(table.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 9973))})
		}
		benchPT.tb = tb
		benchPT.seg = ptable.FromTable(tb)
		benchPT.flat = oracle.FlatFromTable(tb)
	})
	return benchPT.seg, benchPT.flat, benchPT.tb
}

// benchDelta builds an FD-fix-shaped delta touching k tuples spread evenly
// across the relation.
func benchDelta(tb *table.Table, k int) *ptable.Delta {
	d := ptable.NewDelta(tb.Name)
	for i := 0; i < k; i++ {
		row := i * benchRows / k
		orig := tb.Rows[row][1]
		d.Set(int64(row), 1, uncertain.Cell{
			Orig: orig,
			Candidates: []uncertain.Candidate{
				{Val: orig, Prob: 0.5, World: 0, Support: 1},
				{Val: value.NewInt(orig.Int() + 1), Prob: 0.5, World: 1, Support: 1},
			},
		})
	}
	return d
}

// BenchmarkApplyCOWSegmented: O(segments touched) epoch publication.
// Applying the same delta to the same base generation every iteration is
// sound: ApplyCOW never mutates its receiver, and replacing a certain cell
// installs the delta cell without mutating it.
func BenchmarkApplyCOWSegmented(b *testing.B) {
	seg, _, tb := benchRelation(b)
	for _, k := range []int{1, 100, 10000} {
		b.Run(fmt.Sprintf("rows=1M/delta=%d", k), func(b *testing.B) {
			d := benchDelta(tb, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seg.ApplyCOW(d)
			}
		})
	}
}

// BenchmarkApplyCOWFlat: the pre-refactor O(n) baseline — every publication
// copies the full 1M-entry tuple-pointer slice regardless of delta size.
func BenchmarkApplyCOWFlat(b *testing.B) {
	_, flat, tb := benchRelation(b)
	for _, k := range []int{1, 100, 10000} {
		b.Run(fmt.Sprintf("rows=1M/delta=%d", k), func(b *testing.B) {
			d := benchDelta(tb, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flat.ApplyCOW(d)
			}
		})
	}
}
