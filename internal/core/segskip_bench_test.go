package core

import (
	"fmt"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/value"
)

// benchSkipIndex builds an fdIndex over segs full storage segments where
// dirtyPct percent of the segments contain exactly one violating group (the
// rest are entirely clean). Groups are 4 rows each and segment-aligned, so a
// dirty segment is dirty through one anchor only — the regime where the
// segment-skip scan pays off.
func benchSkipIndex(b *testing.B, segs, dirtyPct int) (*fdIndex, int) {
	b.Helper()
	rows := segs * ptable.SegmentSize
	sch := schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "city", Kind: value.String},
	)
	tb := table.New("cities", sch)
	stride := 0
	if dirtyPct > 0 {
		stride = 100 / dirtyPct
	}
	for i := 0; i < rows; i++ {
		city := "LA"
		seg := ptable.SegOf(i)
		// First row of a dirty segment's first group breaks phi.
		if stride > 0 && seg%stride == 0 && i%ptable.SegmentSize == 0 {
			city = "SF"
		}
		tb.MustAppend(table.Row{value.NewInt(int64(i / 4)), value.NewString(city)})
	}
	spec, _ := dc.FD("phi", "cities", "city", "zip").AsFD()
	return newFDIndex(ptable.FromTable(tb), spec), rows
}

// BenchmarkVioScan compares violation-scope collection with segment skipping
// (skip) against the exhaustive per-row reference (full) across dirty-segment
// fractions; at the 1% fraction — the mostly-clean late-sweep regime skipping
// targets — skip should stay well ahead of full.
func BenchmarkVioScan(b *testing.B) {
	const segs = 1024
	var unchecked *posSet
	for _, pct := range []int{0, 1, 50} {
		ix, rows := benchSkipIndex(b, segs, pct)
		b.Run(fmt.Sprintf("dirty%d/skip", pct), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scope, _ := ix.violatingScopeIn(0, rows, unchecked)
				sinkScopeLen = len(scope)
			}
		})
		b.Run(fmt.Sprintf("dirty%d/full", pct), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scope, _ := ix.violatingScopeScanIn(0, rows, unchecked)
				sinkScopeLen = len(scope)
			}
		})
	}
}

var sinkScopeLen int
