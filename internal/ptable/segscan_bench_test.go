package ptable_test

import (
	"testing"

	"daisy/internal/ptable"
	"daisy/internal/value"
)

// BenchmarkSegScan pins the segment-native access win on a positional scan:
// per-row At(i) (shift + mask + two dependent pointer loads through the
// segment directory per tuple) vs the segment-caching Cursor (one directory
// decode per SegmentSize rows) vs ranging the raw Seg(k) blocks the batch
// operators iterate. The scan covers a 32K-row cache-resident prefix of the
// 1M fixture so the decode cost is measured, not DRAM bandwidth — on a full
// 1M scan all three variants converge to memory speed, which is exactly the
// point of batch execution: the access path stops being the bottleneck.
func BenchmarkSegScan(b *testing.B) {
	seg, _, _ := benchRelation(b)
	const rows = 32 * 1024
	segsN := rows / ptable.SegmentSize
	b.Run("at", func(b *testing.B) {
		b.ReportAllocs()
		var sum int64
		for i := 0; i < b.N; i++ {
			for r := 0; r < rows; r++ {
				sum += seg.At(r).ID
			}
		}
		sinkInt64 = sum
	})
	b.Run("cursor", func(b *testing.B) {
		b.ReportAllocs()
		var sum int64
		for i := 0; i < b.N; i++ {
			cur := seg.Cursor()
			for r := 0; r < rows; r++ {
				sum += cur.At(r).ID
			}
		}
		sinkInt64 = sum
	})
	b.Run("seg", func(b *testing.B) {
		b.ReportAllocs()
		var sum int64
		for i := 0; i < b.N; i++ {
			for k := 0; k < segsN; k++ {
				for _, t := range seg.Seg(k) {
					sum += t.ID
				}
			}
		}
		sinkInt64 = sum
	})
}

// BenchmarkSegScanCol measures the column-projected batch accessor against
// extracting the same column through per-row At: the shape of a rule that
// touches one of the relation's twelve columns.
func BenchmarkSegScanCol(b *testing.B) {
	seg, _, _ := benchRelation(b)
	n := seg.Len()
	col := seg.Schema.MustIndex("v")
	b.Run("at", func(b *testing.B) {
		b.ReportAllocs()
		dst := make([]value.Value, 0, n)
		for i := 0; i < b.N; i++ {
			dst = dst[:0]
			for r := 0; r < n; r++ {
				dst = append(dst, seg.At(r).Cells[col].Orig)
			}
		}
		sinkLen = len(dst)
	})
	b.Run("scancol", func(b *testing.B) {
		b.ReportAllocs()
		dst := make([]value.Value, 0, n)
		for i := 0; i < b.N; i++ {
			dst = seg.ScanColOrig(dst[:0], col, 0, n)
		}
		sinkLen = len(dst)
	})
}

var (
	sinkInt64 int64
	sinkLen   int
)
