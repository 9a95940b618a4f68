package thetajoin

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/trace"
	"daisy/internal/value"
)

// rowsView is a detect.RowView over literal rows. Columns may mix kinds, and
// tuple IDs differ from positions, so the differential tests see whether a
// kernel reports IDs or positions.
type rowsView struct {
	cols []string
	rows [][]value.Value
}

func (v rowsView) Len() int                       { return len(v.rows) }
func (v rowsView) ID(i int) int64                 { return int64(1000 + 7*i) }
func (v rowsView) ValueAt(i, idx int) value.Value { return v.rows[i][idx] }
func (v rowsView) Value(i int, col string) value.Value {
	return v.rows[i][v.ColIndex(col)]
}
func (v rowsView) ColIndex(col string) int {
	for i, c := range v.cols {
		if c == col {
			return i
		}
	}
	return -1
}

var diffCols = []string{"A", "B", "C"}

// diffValue draws from a small domain so ties are common: ints, floats
// (including 2.0 beside the int 2), NULLs, and — in column C — strings.
func diffValue(r *rand.Rand, col int) value.Value {
	switch k := r.Intn(10); {
	case k == 0:
		return value.NewNull()
	case k <= 4:
		return value.NewInt(int64(r.Intn(6)))
	case k <= 7 || col != 2:
		return value.NewFloat([]float64{0.5, 1, 2, 2.5, 3, 4.5}[r.Intn(6)])
	default:
		return value.NewString([]string{"a", "b", "c"}[r.Intn(3)])
	}
}

func diffRelation(r *rand.Rand, n int) rowsView {
	v := rowsView{cols: diffCols}
	for i := 0; i < n; i++ {
		row := make([]value.Value, len(diffCols))
		for c := range row {
			row[c] = diffValue(r, c)
		}
		v.rows = append(v.rows, row)
	}
	return v
}

var diffOps = []dc.Op{dc.Eq, dc.Neq, dc.Lt, dc.Leq, dc.Gt, dc.Geq}

// diffConstraint draws 1–3 atoms over random columns, tuples and operators:
// same-column, cross-column (t1.A<t2.B) and same-tuple (t1.A<t1.B) atoms.
func diffConstraint(r *rand.Rand) *dc.Constraint {
	c := &dc.Constraint{Name: "psi"}
	for k := 1 + r.Intn(3); k > 0; k-- {
		c.Atoms = append(c.Atoms, dc.Atom{
			LeftTuple: 1 + r.Intn(2), LeftCol: diffCols[r.Intn(3)],
			Op:         diffOps[r.Intn(len(diffOps))],
			RightTuple: 1 + r.Intn(2), RightCol: diffCols[r.Intn(3)],
		})
	}
	return c
}

// diffSplits are the delta/rest position splits each case runs: a random
// subset against the rest, every third row, an empty rest (delta is the
// whole relation) and an empty delta.
func diffSplits(r *rand.Rand, n int) [][2][]int {
	var sub, subRest, third, thirdRest, all []int
	for i := 0; i < n; i++ {
		all = append(all, i)
		if r.Intn(4) == 0 {
			sub = append(sub, i)
		} else {
			subRest = append(subRest, i)
		}
		if i%3 == 0 {
			third = append(third, i)
		} else {
			thirdRest = append(thirdRest, i)
		}
	}
	return [][2][]int{{sub, subRest}, {third, thirdRest}, {all, nil}, {nil, all}}
}

func samePairs(a, b []Pair) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// TestIndexMatchesReferenceKernel is the kernel's differential test: on
// seeded relations and constraints, for every partition count, worker count
// and delta/rest split, the rank kernel returns exactly the reference
// kernel's pair sequence and comparison count, and the same estimates.
func TestIndexMatchesReferenceKernel(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		v := diffRelation(r, 10+r.Intn(50))
		c := diffConstraint(r)
		ix := NewIndex(v, c)
		splits := diffSplits(r, v.Len())
		for _, p := range []int{1, 4, 64} {
			name := fmt.Sprintf("seed=%d p=%d %s", seed, p, c)
			if got, want := ix.EstimateErrors(v, p), refEstimateErrors(v, c, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: EstimateErrors\ngot  %v\nwant %v", name, got, want)
			}
			var wantFullM detect.Metrics
			wantFull := refDetect(v, c, p, &wantFullM)
			for _, workers := range []int{1, 2, 8} {
				var m detect.Metrics
				got, err := DetectCtx(ctx, trace.Span{}, v, c, p, workers, &m)
				if err != nil {
					t.Fatal(err)
				}
				if !samePairs(got, wantFull) || m.Comparisons != wantFullM.Comparisons {
					t.Fatalf("%s workers=%d: full detection %v (%d comparisons), reference %v (%d)",
						name, workers, got, m.Comparisons, wantFull, wantFullM.Comparisons)
				}
				for si, split := range splits {
					delta, rest := split[0], split[1]
					var wantM detect.Metrics
					want := refDetectPartial(detect.SubsetView{Base: v, Idx: delta}, detect.SubsetView{Base: v, Idx: rest}, c, p, &wantM)
					var m detect.Metrics
					got, err := ix.Detect(ctx, trace.Span{}, delta, rest, p, workers, &m)
					if err != nil {
						t.Fatal(err)
					}
					if !samePairs(got, want) || m.Comparisons != wantM.Comparisons {
						t.Fatalf("%s workers=%d split=%d: %v (%d comparisons), reference %v (%d)",
							name, workers, si, got, m.Comparisons, want, wantM.Comparisons)
					}
				}
			}
		}
	}
}

// TestIndexNaNDeterministic pins NaN: value.Compare does not order it, so
// the rank kernel is not held to the reference there — but it must not
// panic and must give the same output at every worker count.
func TestIndexNaNDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	v := diffRelation(r, 80)
	for i := range v.rows {
		if i%4 == 0 {
			v.rows[i][i%3] = value.NewFloat(math.NaN())
		}
	}
	c := dc.MustParse("psi: !(t1.A<t2.A & t1.B>t2.C)")
	ix := NewIndex(v, c)
	split := diffSplits(r, v.Len())[0]
	delta, rest := split[0], split[1]
	for _, p := range []int{1, 4, 64} {
		ix.EstimateErrors(v, p)
		var want []Pair
		for _, workers := range []int{1, 2, 8} {
			got, err := ix.Detect(context.Background(), trace.Span{}, delta, rest, p, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				want = got
			} else if !samePairs(got, want) {
				t.Fatalf("p=%d workers=%d: %v, sequential %v", p, workers, got, want)
			}
		}
	}
}
