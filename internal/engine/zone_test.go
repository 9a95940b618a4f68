package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/expr"
	"daisy/internal/plan"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/trace"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

// The tests in this file pin the zone-pruned base-scan filter to the
// row-at-a-time EvalCell loop, row for row, over data chosen to stress the
// zone rules: NULLs, NaNs (equal to every number under value.Compare),
// Ints among Floats and Floats among Ints, Ints past 2^53 (where the two
// kinds stop comparing transitively), strings, candidate cells and DC
// ranges.

// big is 2^53: float64 cannot tell big from big+1.
const big = int64(1) << 53

var zoneOps = []dc.Op{dc.Eq, dc.Neq, dc.Lt, dc.Leq, dc.Gt, dc.Geq}

// zoneTable builds a seeded relation of n rows whose values cluster by row
// position, so a segment's zones are narrow enough to exclude most ranges.
func zoneTable(rng *rand.Rand, n int) *table.Table {
	tb := table.New("t", schema.MustNew(
		schema.Column{Name: "i", Kind: value.Int},
		schema.Column{Name: "f", Kind: value.Float},
		schema.Column{Name: "s", Kind: value.String},
		schema.Column{Name: "b", Kind: value.Int},
	))
	for r := 0; r < n; r++ {
		tb.MustAppend(table.Row{
			zoneInt(rng, r),
			zoneFloat(rng, r),
			zoneString(rng, r),
			zoneBig(rng),
		})
	}
	return tb
}

func zoneInt(rng *rand.Rand, r int) value.Value {
	switch x := int64(r/8 + rng.Intn(3)); rng.Intn(40) {
	case 0:
		return value.NewNull()
	case 1:
		return value.NewFloat(float64(x) + 0.5)
	default:
		return value.NewInt(x)
	}
}

func zoneFloat(rng *rand.Rand, r int) value.Value {
	switch x := float64(r)/4 + rng.Float64(); rng.Intn(40) {
	case 0:
		return value.NewNull()
	case 1:
		return value.NewFloat(math.NaN())
	case 2:
		return value.NewInt(int64(x))
	default:
		return value.NewFloat(x)
	}
}

func zoneString(rng *rand.Rand, r int) value.Value {
	if rng.Intn(40) == 0 {
		return value.NewNull()
	}
	return value.NewString(fmt.Sprintf("s%04d", r/16+rng.Intn(2)))
}

// zoneBig mixes Ints just past 2^53 with the Float 2^53, which compares
// equal to all of them.
func zoneBig(rng *rand.Rand) value.Value {
	if rng.Intn(6) == 0 {
		return value.NewFloat(float64(big))
	}
	return value.NewInt(big + int64(rng.Intn(4)))
}

// zoneConst draws a comparison constant for column col of an n-row
// zoneTable: mostly inside the column's domain, sometimes NULL, NaN, the
// other numeric kind, or another rank.
func zoneConst(rng *rand.Rand, col string, n int) value.Value {
	switch rng.Intn(12) {
	case 0:
		return value.NewNull()
	case 1:
		return value.NewFloat(math.NaN())
	case 2:
		return value.NewString("s0003")
	}
	switch col {
	case "i":
		x := int64(rng.Intn(n/8+4)) - 2
		if rng.Intn(4) == 0 {
			return value.NewFloat(float64(x) + 0.5)
		}
		return value.NewInt(x)
	case "f":
		x := rng.Float64()*float64(n)/4 - 1
		if rng.Intn(4) == 0 {
			return value.NewInt(int64(x))
		}
		return value.NewFloat(x)
	case "s":
		return value.NewString(fmt.Sprintf("s%04d", rng.Intn(n/16+2)))
	}
	x := big + int64(rng.Intn(6)) - 1
	if rng.Intn(3) == 0 {
		return value.NewFloat(float64(x))
	}
	return value.NewInt(x)
}

// zonePred draws a random predicate: comparisons of every op (some with a
// qualified reference), ranges (the conjunction base scans usually get),
// AND, OR, and column-to-column comparisons.
func zonePred(rng *rand.Rand, n, depth int) expr.Pred {
	cols := []string{"i", "f", "s", "b"}
	col := cols[rng.Intn(len(cols))]
	ref := expr.ColRef{Col: col}
	if rng.Intn(4) == 0 {
		ref.Table = "t"
	}
	cmp := func() expr.Pred { return &expr.Cmp{Ref: ref, Op: zoneOps[rng.Intn(6)], Val: zoneConst(rng, col, n)} }
	switch k := rng.Intn(10); {
	case k < 3:
		return &expr.And{
			L: &expr.Cmp{Ref: ref, Op: []dc.Op{dc.Gt, dc.Geq}[rng.Intn(2)], Val: zoneConst(rng, col, n)},
			R: &expr.Cmp{Ref: ref, Op: []dc.Op{dc.Lt, dc.Leq}[rng.Intn(2)], Val: zoneConst(rng, col, n)},
		}
	case depth > 0 && k < 5:
		return &expr.And{L: zonePred(rng, n, depth-1), R: zonePred(rng, n, depth-1)}
	case depth > 0 && k < 7:
		return &expr.Or{L: zonePred(rng, n, depth-1), R: zonePred(rng, n, depth-1)}
	case k == 7:
		return &expr.ColCmp{Left: expr.ColRef{Col: "i"}, Op: zoneOps[rng.Intn(6)], Right: expr.ColRef{Col: "f"}}
	}
	return cmp()
}

// zoneDelta fixes k random tuples of tb: FD-style candidate cells, DC range
// cells, and certain replacements that widen a zone or must set its bit
// (NaN, NULL, the other numeric kind, a far-off value).
func zoneDelta(rng *rand.Rand, tb *table.Table, k int) *ptable.Delta {
	d := ptable.NewDelta(tb.Name)
	n := tb.Len()
	for t := 0; t < k; t++ {
		row := rng.Intn(n)
		col := rng.Intn(tb.Schema.Len())
		name := tb.Schema.Col(col).Name
		orig := tb.Rows[row][col]
		cell := uncertain.Cell{Orig: orig}
		switch rng.Intn(3) {
		case 0:
			for c, nc := 0, 2+rng.Intn(2); c < nc; c++ {
				cell.Candidates = append(cell.Candidates, uncertain.Candidate{
					Val: zoneConst(rng, name, n), Prob: 0.5, World: c, Support: 1 + rng.Intn(3)})
			}
		case 1:
			cell.AddRange([]dc.Op{dc.Lt, dc.Leq, dc.Gt, dc.Geq}[rng.Intn(4)], zoneConst(rng, name, n), 1)
		default:
			cell = uncertain.Certain(zoneConst(rng, name, n))
		}
		d.Set(int64(row), col, cell)
	}
	return d
}

// rowLoop is the reference filter: EvalCell on every row, in row order.
func rowLoop(pt *ptable.PTable, pred expr.Pred) []int {
	var out []int
	for r, t := range pt.Rows() {
		if pred.EvalCell(func(ref expr.ColRef) *uncertain.Cell { return &t.Cells[resolveRef(pt.Schema, ref)] }) {
			out = append(out, r)
		}
	}
	return out
}

// zoneFilterChecker filters relations through the executor's base scan and
// compares each result with rowLoop, counting the rows the zones spared.
type zoneFilterChecker struct {
	t                 *testing.T
	preds             []expr.Pred
	pruned, evaluated int
	total             int
}

func (c *zoneFilterChecker) check(ctx string, pt *ptable.PTable) {
	c.t.Helper()
	if err := pt.VerifyZones(); err != nil {
		c.t.Fatalf("%s: unsound zone: %v", ctx, err)
	}
	for _, pred := range c.preds {
		want := rowLoop(pt, pred)
		for _, workers := range []int{1, 2} {
			e := &Executor{Tables: map[string]*ptable.PTable{"t": pt}, Workers: workers}
			f, err := e.execScan(&plan.Scan{Table: "t"}, trace.Span{})
			if err != nil {
				c.t.Fatal(err)
			}
			out, st, err := e.filter(f, pred)
			if err != nil {
				c.t.Fatal(err)
			}
			if !slices.Equal(out.rows, want) {
				c.t.Fatalf("%s, workers %d, %s: zone filter kept %d rows %v,\nrow loop kept %d rows %v",
					ctx, workers, pred, len(out.rows), out.rows, len(want), want)
			}
			c.pruned += st.pruned
			c.evaluated += st.evaluated
			c.total += pt.Len()
		}
	}
}

// TestZoneFilterMatchesRowLoop drives seeded relations around segment
// boundaries through every mutation path — in-place Apply (the reopen
// path), chains of sparse and bulk-cloning ApplyCOW, and Append, which
// builds relations without zones — and after every step requires the
// zone-pruned filter, sequential and parallel, to keep exactly the rows the
// EvalCell loop keeps, in the same order, and every zone to stay sound.
func TestZoneFilterMatchesRowLoop(t *testing.T) {
	c := &zoneFilterChecker{t: t}
	for _, n := range []int{511, 512, 513, 2047, 2049} {
		for seed := int64(0); seed < 2; seed++ {
			rng := rand.New(rand.NewSource(seed*10007 + int64(n)))
			tb := zoneTable(rng, n)
			c.preds = c.preds[:0]
			for i := 0; i < 24; i++ {
				c.preds = append(c.preds, zonePred(rng, n, 2))
			}
			ctx := func(step string) string { return fmt.Sprintf("n %d seed %d %s", n, seed, step) }

			pt := ptable.FromTable(tb)
			c.check(ctx("snapshot"), pt)
			for step := 0; step < 3; step++ {
				pt.Apply(zoneDelta(rng, tb, 1+rng.Intn(n/16)))
				c.check(ctx(fmt.Sprintf("apply %d", step)), pt)
			}
			for step := 0; step < 6; step++ {
				k := 1 + rng.Intn(n/16)
				if step%2 == 1 {
					k = n / 2 // dense: the bulk-clone path once there are two segments
				}
				pt, _ = pt.ApplyCOW(zoneDelta(rng, tb, k))
				c.check(ctx(fmt.Sprintf("cow %d (%d fixes)", step, k)), pt)
			}

			rebuilt := ptable.New("t", tb.Schema)
			for _, tup := range pt.Rows() {
				rebuilt.Append(tup.Clone())
			}
			c.check(ctx("appended copy"), rebuilt)
			grown := ptable.FromTable(tb)
			grown.Append(&ptable.Tuple{ID: int64(n), Cells: []uncertain.Cell{
				uncertain.Certain(value.NewInt(-5)), uncertain.Certain(value.NewFloat(-5)),
				uncertain.Certain(value.NewString("a")), uncertain.Certain(value.NewInt(0))}})
			c.check(ctx("snapshot plus append"), grown)
		}
	}
	if c.pruned == 0 || c.evaluated >= c.total {
		t.Fatalf("zones never pruned (%d segments pruned, %d of %d rows evaluated): the test no longer exercises them",
			c.pruned, c.evaluated, c.total)
	}
	t.Logf("%d segments pruned; %d of %d rows evaluated", c.pruned, c.evaluated, c.total)
}
