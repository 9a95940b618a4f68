package thetajoin

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"daisy/internal/detect"
	"daisy/internal/table"
	"daisy/internal/trace"
	"daisy/internal/value"
)

// skewedSalaries builds n rows with a deterministic pseudo-random pattern:
// tax follows salary except for one row in twenty, which yields plenty of
// violations near the order's diagonal.
func skewedSalaries(n int) *table.Table {
	return salaries(n, func(salary float64, next func() uint64) float64 {
		if next()%20 == 0 {
			return salary/10 + float64(next()%200) // inversion: too much tax
		}
		return salary / 10
	})
}

// randomSalaries builds n rows whose tax is independent of salary: the
// salary order says nothing about tax, so little can be pruned.
func randomSalaries(n int) *table.Table {
	return salaries(n, func(_ float64, next func() uint64) float64 { return float64(next() % 10000) })
}

// salaries builds n rows of pseudo-random salaries with tax(salary).
func salaries(n int, tax func(salary float64, next func() uint64) float64) *table.Table {
	t := table.New("emp", salarySchema())
	state := uint64(12345)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < n; i++ {
		salary := float64(next() % 100000)
		t.MustAppend(table.Row{value.NewFloat(salary), value.NewFloat(tax(salary, next))})
	}
	return t
}

// detectN runs DetectCtx untraced with a fixed worker count.
func detectN(t testing.TB, v detect.RowView, workers int, m *detect.Metrics) []Pair {
	t.Helper()
	pairs, err := DetectCtx(context.Background(), trace.Span{}, v, salaryDC, workers, m)
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

// partialSplit cuts a relation into every fifth row (delta) and the rest,
// as row positions.
func partialSplit(n int) (delta, rest []int) {
	for i := 0; i < n; i++ {
		if i%5 == 0 {
			delta = append(delta, i)
		} else {
			rest = append(rest, i)
		}
	}
	return delta, rest
}

// traced runs one detection under a live span: it must succeed, and the
// trace must hold the detection workers' spans.
func traced(t *testing.T, run func(sp trace.Span) ([]Pair, error)) []Pair {
	t.Helper()
	tr := trace.New("detect")
	pairs, err := run(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Tree().Find("worker") == nil {
		t.Error("no worker span recorded")
	}
	return pairs
}

// TestDetectParallelDeterministic: the parallel theta-join, traced, must
// return exactly Detect's pair slice (same order, same orientation) for
// every worker count — the fan-out merges in delta-row order.
func TestDetectParallelDeterministic(t *testing.T) {
	v := detect.TableView{T: skewedSalaries(3000)}
	want := Detect(v, salaryDC, Partitions, nil)
	if len(want) == 0 {
		t.Fatal("fixture produced no violations")
	}
	for _, workers := range []int{1, 2, 4, 8, 0} {
		got := traced(t, func(sp trace.Span) ([]Pair, error) {
			return DetectCtx(context.Background(), sp, v, salaryDC, workers, nil)
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: %d pairs, differs from Detect (%d pairs)", workers, len(got), len(want))
		}
	}
}

// TestDetectParallelMetricsMatch: comparison counts must not depend on the
// worker count.
func TestDetectParallelMetricsMatch(t *testing.T) {
	v := detect.TableView{T: skewedSalaries(2000)}
	var seqM, parM detect.Metrics
	detectN(t, v, 1, &seqM)
	detectN(t, v, 8, &parM)
	if seqM.Comparisons != parM.Comparisons {
		t.Errorf("comparisons: sequential %d, parallel %d", seqM.Comparisons, parM.Comparisons)
	}
}

// TestDetectPartialParallelDeterministic: same guarantee for the
// incremental (delta × rest) variant against its untraced sequential run.
func TestDetectPartialParallelDeterministic(t *testing.T) {
	tb := skewedSalaries(3000)
	ix := NewIndex(detect.TableView{T: tb}, salaryDC)
	delta, rest := partialSplit(tb.Len())
	ctx := context.Background()
	want, err := ix.Detect(ctx, trace.Span{}, delta, rest, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8, 0} {
		got := traced(t, func(sp trace.Span) ([]Pair, error) {
			return ix.Detect(ctx, sp, delta, rest, workers, nil)
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d differs from sequential", workers)
		}
	}
}

// TestCanceledDetectionReturnsNoPairs: a done ctx aborts both the full and
// the partial detection with an error wrapping context.Canceled and no
// partial pair set.
func TestCanceledDetectionReturnsNoPairs(t *testing.T) {
	tb := skewedSalaries(3000)
	v := detect.TableView{T: tb}
	ix := NewIndex(v, salaryDC)
	delta, rest := partialSplit(tb.Len())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		pairs, err := DetectCtx(ctx, trace.Span{}, v, salaryDC, workers, nil)
		if !errors.Is(err, context.Canceled) || pairs != nil {
			t.Errorf("DetectCtx workers=%d: %d pairs, err %v; want none and context.Canceled", workers, len(pairs), err)
		}
		pairs, err = ix.Detect(ctx, trace.Span{}, delta, rest, workers, nil)
		if !errors.Is(err, context.Canceled) || pairs != nil {
			t.Errorf("Index.Detect workers=%d: %d pairs, err %v; want none and context.Canceled", workers, len(pairs), err)
		}
	}
}

// BenchmarkThetaJoinDetect measures the theta-join. The full cases run the
// whole self-join of skewed salaries at 10k and 100k rows with 1, 4 and 8
// workers; worker fan-out needs multiple CPUs to show wall-clock gains. The
// partial cases have the cold_dc benchmark workload's shape, a 333-row query
// result against the rest of 20k rows on a prebuilt index, over skewed
// salaries and over random ones, where the tree has little to prune (the
// kernel's worst case). Each case reports comparisons/op and pairs/op.
func BenchmarkThetaJoinDetect(b *testing.B) {
	for _, rows := range []int{10000, 100000} {
		v := detect.TableView{T: skewedSalaries(rows)}
		for _, workers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("rows=%d/workers=%d", rows, workers), func(b *testing.B) {
				b.ReportAllocs()
				var m detect.Metrics
				var pairs int
				for i := 0; i < b.N; i++ {
					pairs += len(detectN(b, v, workers, &m))
				}
				reportWork(b, m, pairs)
			})
		}
	}
	const rows, deltaRows = 20000, 333
	var delta, rest []int
	for i := 0; i < rows; i++ {
		if i%(rows/deltaRows) == 0 && len(delta) < deltaRows {
			delta = append(delta, i)
		} else {
			rest = append(rest, i)
		}
	}
	for _, data := range []struct {
		name string
		t    *table.Table
	}{{"skewed", skewedSalaries(rows)}, {"random", randomSalaries(rows)}} {
		ix := NewIndex(detect.TableView{T: data.t}, salaryDC)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("partial/%s/rows=%d/delta=%d/workers=%d", data.name, rows, deltaRows, workers), func(b *testing.B) {
				b.ReportAllocs()
				var m detect.Metrics
				var pairs int
				for i := 0; i < b.N; i++ {
					got, err := ix.Detect(context.Background(), trace.Span{}, delta, rest, workers, &m)
					if err != nil {
						b.Fatal(err)
					}
					pairs += len(got)
				}
				reportWork(b, m, pairs)
			})
		}
	}
}

// reportWork adds the pairs compared and emitted per detection.
func reportWork(b *testing.B, m detect.Metrics, pairs int) {
	b.ReportMetric(float64(m.Comparisons)/float64(b.N), "comparisons/op")
	b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
}
