package engine

import (
	"context"
	"errors"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/expr"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/value"
)

// bigPT builds a relation large enough to cross the parallel threshold, with
// a skewed join key so hash buckets have real collisions.
func bigPT(name string, n int) *ptable.PTable {
	sch := schema.MustNew(
		schema.Column{Name: "k", Kind: value.Int},
		schema.Column{Name: "v", Kind: value.Int},
	)
	tb := table.New(name, sch)
	for i := 0; i < n; i++ {
		tb.MustAppend(table.Row{value.NewInt(int64(i % 97)), value.NewInt(int64(i))})
	}
	return ptable.FromTable(tb)
}

// TestParallelFilterDeterministic: the partitioned filter must emit the
// same rows in the same order for any worker count.
func TestParallelFilterDeterministic(t *testing.T) {
	pt := bigPT("big", 3*parallelThreshold)
	var want string
	for _, workers := range []int{1, 2, 8} {
		e := &Executor{Tables: map[string]*ptable.PTable{"big": pt}, Workers: workers}
		out := run(t, e, "SELECT k, v FROM big WHERE v >= 100 AND v <= 5000")
		got := out.Fingerprint()
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d filter output differs from sequential", workers)
		}
	}
}

// TestParallelHashJoinDeterministic: sharded build + chunked probe must be
// byte-identical to the sequential join, including comparison metrics.
func TestParallelHashJoinDeterministic(t *testing.T) {
	l := bigPT("l", 2*parallelThreshold)
	r := bigPT("r", 2*parallelThreshold+131)
	var want string
	var wantCmp int64
	for _, workers := range []int{1, 4, 16} {
		e := &Executor{Tables: map[string]*ptable.PTable{"l": l, "r": r}, Workers: workers}
		out := run(t, e, "SELECT l.v, r.v FROM l, r WHERE l.k = r.k AND l.v <= 300")
		got := out.Fingerprint()
		if workers == 1 {
			want, wantCmp = got, e.Metrics.Comparisons
			continue
		}
		if got != want {
			t.Errorf("workers=%d join output differs from sequential", workers)
		}
		if e.Metrics.Comparisons != wantCmp {
			t.Errorf("workers=%d comparisons=%d, sequential=%d", workers, e.Metrics.Comparisons, wantCmp)
		}
	}
	if want == "" {
		t.Fatal("no sequential baseline")
	}
}

// TestChunkBoundsSegmentGranular pins the chunking invariants every parallel
// operator relies on: bounds cover [0, n] exactly, never decrease, interior
// boundaries are segment multiples (tasks are segment ranges), and the chunk
// count never exceeds the requested workers. Near-threshold sizes — where
// the deleted ">=1 segment per chunk" special case used to switch alignment
// off — get the same treatment as everything else.
func TestChunkBoundsSegmentGranular(t *testing.T) {
	seg := ptable.SegmentSize
	for _, tc := range []struct{ n, w int }{
		{parallelThreshold, 2}, {parallelThreshold, 8}, {parallelThreshold, 16},
		{parallelThreshold + 1, 8}, {parallelThreshold - 1, 7},
		{2*seg + 1, 8}, {seg, 4}, {seg + 1, 4}, {3 * seg, 3},
		{4*seg + 13, 16}, {1 << 16, 5}, {(1 << 16) + 511, 12},
		// One worker or no rows: the one chunk [0, n] every sequential
		// operator runs.
		{0, 1}, {0, 8}, {seg - 1, 1},
	} {
		bounds := chunkBounds(tc.n, tc.w)
		if len(bounds) < 2 {
			t.Fatalf("chunkBounds(%d,%d) = %v: want at least one chunk", tc.n, tc.w, bounds)
		}
		if len(bounds)-1 > tc.w {
			t.Errorf("chunkBounds(%d,%d): %d chunks > %d workers", tc.n, tc.w, len(bounds)-1, tc.w)
		}
		if bounds[0] != 0 || bounds[len(bounds)-1] != tc.n {
			t.Fatalf("chunkBounds(%d,%d) = %v: must cover [0,n]", tc.n, tc.w, bounds)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] < bounds[i-1] {
				t.Fatalf("chunkBounds(%d,%d) = %v: decreasing", tc.n, tc.w, bounds)
			}
			if i < len(bounds)-1 && bounds[i]%seg != 0 {
				t.Errorf("chunkBounds(%d,%d) = %v: interior boundary %d not segment-aligned", tc.n, tc.w, bounds, bounds[i])
			}
			if i < len(bounds)-1 && bounds[i] == bounds[i-1] {
				t.Errorf("chunkBounds(%d,%d) = %v: empty interior chunk", tc.n, tc.w, bounds)
			}
		}
	}
}

// TestParallelFilterNearThreshold sweeps input sizes around the parallel
// threshold and odd segment remainders with worker counts exceeding the
// segment count — the regime the old alignment special case guarded — and
// asserts every configuration stays byte-identical to sequential execution.
func TestParallelFilterNearThreshold(t *testing.T) {
	seg := ptable.SegmentSize
	for _, n := range []int{parallelThreshold - 1, parallelThreshold, parallelThreshold + 1, 4*seg + 1, 5*seg - 1, 5*seg + 13} {
		pt := bigPT("big", n)
		var want string
		for _, workers := range []int{1, 2, 7, 16, 64} {
			e := &Executor{Tables: map[string]*ptable.PTable{"big": pt}, Workers: workers}
			out := run(t, e, "SELECT k, v FROM big WHERE v >= 10 AND v <= 4000")
			got := out.Fingerprint()
			if workers == 1 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("n=%d workers=%d filter output differs from sequential", n, workers)
			}
		}
	}
}

// TestParallelThresholdKeepsSmallInputsSequential pins that tiny inputs do
// not pay goroutine fan-out, and that the engine treats Workers<=1 as
// sequential (0 resolves to GOMAXPROCS in core.NewSession, not here).
func TestParallelThresholdKeepsSmallInputsSequential(t *testing.T) {
	e := &Executor{Workers: 8}
	if got := e.parallelism(parallelThreshold - 1); got != 1 {
		t.Errorf("parallelism(small) = %d, want 1", got)
	}
	if got := e.parallelism(parallelThreshold); got != 8 {
		t.Errorf("parallelism(threshold) = %d, want 8", got)
	}
	e.Workers = 0
	if got := e.parallelism(1 << 20); got != 1 {
		t.Errorf("parallelism with Workers=0 = %d, want 1", got)
	}
}

// TestFilterDoneCtx pins cancellation on the one-chunk path as on the
// fanned-out one: a context that is already done makes filter return its
// error, over a full scan (zone walk) and over a row set alike.
func TestFilterDoneCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pred := &expr.Cmp{Ref: expr.ColRef{Col: "v"}, Op: dc.Geq, Val: value.NewInt(10)}
	for _, n := range []int{100, 3 * parallelThreshold} {
		pt := bigPT("big", n)
		for _, workers := range []int{1, 4} {
			for _, full := range []bool{true, false} {
				e := &Executor{Workers: workers, Ctx: ctx}
				f := &frame{pt: pt, rows: seq(n), table: "big", isBase: true, full: full}
				if _, _, err := e.filter(f, pred); !errors.Is(err, context.Canceled) {
					t.Errorf("n=%d workers=%d full=%v: err = %v, want context.Canceled", n, workers, full, err)
				}
			}
		}
	}
}
