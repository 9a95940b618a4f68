package thetajoin

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/trace"
	"daisy/internal/value"
)

// rowsView is a detect.RowView over literal rows. Columns may mix kinds.
type rowsView struct {
	cols []string
	rows [][]value.Value
}

func (v rowsView) Len() int                       { return len(v.rows) }
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

// pairSet is ps as sorted (T1, T2) keys: detection's emission order is not
// part of its contract, each pair's orientation is. Test tuple IDs fit in
// 32 bits.
func pairSet(ps []Pair) []uint64 {
	keys := make([]uint64, len(ps))
	for i, p := range ps {
		keys[i] = uint64(p.T1)<<32 | uint64(p.T2)
	}
	slices.Sort(keys)
	return keys
}

func samePairSet(a, b []Pair) bool { return slices.Equal(pairSet(a), pairSet(b)) }

// candidates is how many pairs a detection of delta against rest may
// compare: delta × rest plus each unordered pair within delta.
func candidates(delta, rest int) int64 {
	return int64(delta)*int64(rest) + int64(delta)*int64(delta-1)/2
}

// TestIndexMatchesReferenceKernel is the kernel's differential test: on
// seeded relations and constraints, for every worker count and delta/rest
// split, the rank kernel returns the reference kernel's pair set — each pair
// in the reference's orientation — comparing at most the candidate pairs,
// the same slice for every worker count, and the reference's estimates for
// every partition count. Relations of up to 600 rows span several levels of
// the rank tree.
func TestIndexMatchesReferenceKernel(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		v := diffRelation(r, 10+r.Intn(590))
		c := diffConstraint(r)
		ix := NewIndex(v, c)
		name := fmt.Sprintf("seed=%d n=%d %s", seed, v.Len(), c)
		for _, p := range []int{1, 4, 64} {
			if got, want := ix.EstimateErrors(v, p), refEstimateErrors(v, c, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s p=%d: EstimateErrors\ngot  %v\nwant %v", name, p, got, want)
			}
		}
		// check holds one detection to the reference's sorted pair set (at
		// one worker) or to the sequential slice.
		var seq []Pair
		check := func(what string, workers int, got []Pair, m detect.Metrics, want []uint64, cands int64) {
			t.Helper()
			if m.Comparisons > cands {
				t.Fatalf("%s %s workers=%d: %d comparisons, over the %d candidate pairs", name, what, workers, m.Comparisons, cands)
			}
			if workers == 1 {
				if seq = got; !slices.Equal(pairSet(got), want) {
					t.Fatalf("%s %s: %d pairs %v, reference %d", name, what, len(got), got, len(want))
				}
			} else if !slices.Equal(got, seq) {
				t.Fatalf("%s %s workers=%d: %v, sequential %v", name, what, workers, got, seq)
			}
		}
		want := pairSet(refDetect(v, c, Partitions, nil))
		for _, workers := range []int{1, 2, 8} {
			var m detect.Metrics
			got, err := DetectCtx(ctx, trace.Span{}, v, c, workers, &m)
			if err != nil {
				t.Fatal(err)
			}
			check("full", workers, got, m, want, candidates(v.Len(), 0))
		}
		for si, split := range diffSplits(r, v.Len()) {
			delta, rest := split[0], split[1]
			want := pairSet(refDetectPartial(detect.SubsetView{Base: v, Idx: delta}, detect.SubsetView{Base: v, Idx: rest}, c, Partitions, nil))
			for _, workers := range []int{1, 2, 8} {
				var m detect.Metrics
				got, err := ix.Detect(ctx, trace.Span{}, delta, rest, workers, &m)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("split=%d", si), workers, got, m, want, candidates(len(delta), len(rest)))
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
	}
	var want []Pair
	for _, workers := range []int{1, 2, 8} {
		got, err := ix.Detect(context.Background(), trace.Span{}, delta, rest, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			want = got
		} else if !samePairs(got, want) {
			t.Fatalf("workers=%d: %v, sequential %v", workers, got, want)
		}
	}
}

// FuzzIndexDetectMatchesNaive holds the rank kernel to a naive enumeration
// of every candidate pair. The input draws a constraint of 1–3 atoms (rule)
// and a relation of up to 100 rows over A, B, C with NULLs, ties and Int
// beside Float, each row in delta, rest or neither (rows); 65–96 rows give
// the rank tree a padding leaf. The naive side orders delta by (primary
// value, position), as the index does, and emits each violating pair with
// the delta row, or the earlier delta row, as t1 when that orientation
// violates, else reversed.
func FuzzIndexDetectMatchesNaive(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 1, 1}, []byte{1, 2, 3, 0, 9, 4, 5, 1, 17, 2, 0, 0, 3, 3, 3, 1})
	f.Add([]byte{2, 0, 0, 2, 1, 0, 1, 1, 4, 2, 1, 1, 2, 1, 1, 2}, []byte{8, 16, 24, 0, 9, 41, 50, 1, 0, 0, 0, 2, 33, 7, 12, 0, 5, 5, 5, 1})
	f.Fuzz(func(t *testing.T, rule, rows []byte) {
		at := 0
		next := func(b []byte) int { // cycles through b; 0 when b is empty
			if len(b) == 0 {
				return 0
			}
			at++
			return int(b[(at-1)%len(b)])
		}
		c := &dc.Constraint{Name: "psi"}
		for k := 1 + next(rule)%3; k > 0; k-- {
			c.Atoms = append(c.Atoms, dc.Atom{
				LeftTuple: 1 + next(rule)%2, LeftCol: diffCols[next(rule)%3], Op: diffOps[next(rule)%len(diffOps)],
				RightTuple: 1 + next(rule)%2, RightCol: diffCols[next(rule)%3],
			})
		}
		v := rowsView{cols: diffCols}
		var delta, rest []int
		for i := 0; i+4 <= len(rows) && i < 4*100; i += 4 {
			row := make([]value.Value, len(diffCols))
			for col, b := range rows[i : i+3] {
				switch b % 8 {
				case 0:
					row[col] = value.NewNull()
				case 1, 2, 3, 4:
					row[col] = value.NewInt(int64(b>>3) % 6)
				default:
					row[col] = value.NewFloat([]float64{0.5, 1, 2, 2.5, 3, 4.5}[(b>>3)%6])
				}
			}
			switch rows[i+3] % 3 {
			case 0:
				delta = append(delta, len(v.rows))
			case 1:
				rest = append(rest, len(v.rows))
			}
			v.rows = append(v.rows, row)
		}

		violates := func(i, j int) bool {
			return c.Violates(func(tuple int, col string) value.Value {
				if tuple == 1 {
					return v.Value(i, col)
				}
				return v.Value(j, col)
			})
		}
		var want []Pair
		emit := func(a, b int) { // a is t1 when that orientation violates
			switch {
			case violates(a, b):
				want = append(want, Pair{T1: a, T2: b})
			case violates(b, a):
				want = append(want, Pair{T1: b, T2: a})
			}
		}
		prim := v.ColIndex(c.Atoms[0].LeftCol)
		ordered := slices.Clone(delta)
		slices.SortStableFunc(ordered, func(a, b int) int { return v.rows[a][prim].Compare(v.rows[b][prim]) })
		for i, d := range ordered {
			for _, r := range rest {
				emit(d, r)
			}
			for _, later := range ordered[i+1:] {
				emit(d, later)
			}
		}

		var m detect.Metrics
		got, err := NewIndex(v, c).Detect(context.Background(), trace.Span{}, delta, rest, 1, &m)
		if err != nil {
			t.Fatal(err)
		}
		if !samePairSet(got, want) {
			t.Fatalf("%s over %v (delta %v, rest %v): %v, naive %v", c, v.rows, delta, rest, got, want)
		}
		if m.Comparisons > candidates(len(delta), len(rest)) {
			t.Fatalf("%s: %d comparisons, over the %d candidate pairs", c, m.Comparisons, candidates(len(delta), len(rest)))
		}
	})
}
