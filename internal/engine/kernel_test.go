package engine

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/expr"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

// The tests in this file pin the compiled row kernel to expr.Pred.EvalCell,
// the reference semantics, row by row.

var kernelSchema = schema.MustNew(
	schema.Column{Name: "i", Kind: value.Int},
	schema.Column{Name: "f", Kind: value.Float},
	schema.Column{Name: "s", Kind: value.String},
	schema.Column{Name: "b", Kind: value.Int},
)

var kernelCols = []string{"i", "f", "s", "b"}

// kernelPool holds the values cells and constants are drawn from: every
// kind, NaN (equal to every number under value.Compare), ±Inf, integral
// floats next to the equal Int, and Ints past 2^53, where Int–Float compares
// go through float64 and stop being transitive.
var kernelPool = []value.Value{
	value.NewNull(),
	value.NewInt(3),
	value.NewFloat(3),
	value.NewFloat(3.5),
	value.NewInt(-7),
	value.NewInt(21),
	value.NewInt(22),
	value.NewFloat(math.NaN()),
	value.NewFloat(math.Inf(1)),
	value.NewFloat(math.Inf(-1)),
	value.NewFloat(math.Copysign(0, -1)),
	value.NewInt(0),
	value.NewInt(big),
	value.NewInt(big + 1),
	value.NewFloat(float64(big)),
	value.NewInt(math.MaxInt64),
	value.NewInt(math.MinInt64),
	value.NewString(""),
	value.NewString("3"),
	value.NewString("s3"),
}

// Indices into kernelPool the seed inputs name.
const (
	poolNaN = 7
	pool21  = 5
	pool22  = 6
)

// chooser turns bytes into choices; an exhausted input chooses 0, so every
// input decodes to a finite table and predicate.
type chooser struct{ b []byte }

func (c *chooser) next(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	x := int(c.b[0]) % n
	c.b = c.b[1:]
	return x
}

func (c *chooser) val() value.Value { return kernelPool[c.next(len(kernelPool))] }

func (c *chooser) op() dc.Op { return zoneOps[c.next(len(zoneOps))] }

// cell draws a certain cell, an FD-style candidate list of mixed kinds, a
// DC cell with ranges over candidates, or a range-only cell.
func (c *chooser) cell() uncertain.Cell {
	switch c.next(5) {
	case 2:
		cell := uncertain.Cell{Orig: c.val()}
		for k, n := 0, 1+c.next(4); k < n; k++ {
			cell.Candidates = append(cell.Candidates, uncertain.Candidate{Val: c.val(), Prob: 1 / float64(n), World: k})
		}
		return cell
	case 3:
		cell := uncertain.Certain(c.val())
		for k, n := 0, 1+c.next(2); k < n; k++ {
			cell.AddRange(c.op(), c.val(), k+1)
		}
		return cell
	case 4:
		return uncertain.Cell{Orig: c.val(), Ranges: []uncertain.RangeCandidate{
			{RangeBound: uncertain.RangeBound{Op: c.op(), Bound: c.val()}, Prob: 1, World: 1}}}
	}
	return uncertain.Certain(c.val())
}

func (c *chooser) ref() expr.ColRef {
	ref := expr.ColRef{Col: kernelCols[c.next(len(kernelCols))]}
	if c.next(2) == 1 {
		ref.Table = "t"
	}
	return ref
}

// pred draws a comparison, a same-column range (contradictory when its
// bounds cross), AND, OR or a column-to-column comparison.
func (c *chooser) pred(depth int) expr.Pred {
	switch k := c.next(6); {
	case k == 2:
		ref := c.ref()
		return &expr.And{
			L: &expr.Cmp{Ref: ref, Op: []dc.Op{dc.Gt, dc.Geq}[c.next(2)], Val: c.val()},
			R: &expr.Cmp{Ref: ref, Op: []dc.Op{dc.Lt, dc.Leq}[c.next(2)], Val: c.val()},
		}
	case k == 3 && depth > 0:
		return &expr.And{L: c.pred(depth - 1), R: c.pred(depth - 1)}
	case k == 4 && depth > 0:
		return &expr.Or{L: c.pred(depth - 1), R: c.pred(depth - 1)}
	case k == 5:
		return &expr.ColCmp{Left: c.ref(), Op: c.op(), Right: c.ref()}
	}
	return &expr.Cmp{Ref: c.ref(), Op: c.op(), Val: c.val()}
}

// checkKernel decodes a relation of one to eight rows and a predicate from
// data and requires the compiled kernel to decide every row as EvalCell does.
func checkKernel(t *testing.T, data []byte) {
	t.Helper()
	c := &chooser{b: data}
	rows := make([][]uncertain.Cell, 1+c.next(8))
	for r := range rows {
		rows[r] = make([]uncertain.Cell, len(kernelCols))
		for j := range rows[r] {
			rows[r][j] = c.cell()
		}
	}
	pred := c.pred(3)
	checkRows(t, pred, rows)
}

func checkRows(t *testing.T, pred expr.Pred, rows [][]uncertain.Cell) {
	t.Helper()
	kern, _, err := compilePred(pred, kernelSchema)
	if err != nil {
		t.Fatalf("%s: %v", pred, err)
	}
	for r, cells := range rows {
		want := pred.EvalCell(func(ref expr.ColRef) *uncertain.Cell { return &cells[resolveRef(kernelSchema, ref)] })
		if got := kern(cells); got != want {
			t.Fatalf("%s on row %d %v: kernel %v, EvalCell %v", pred, r, cells, got, want)
		}
	}
}

// nanRangeSeed is a certain NaN cell under i >= 22 AND i <= 21: NaN equals
// both constants under value.Compare, so the row qualifies although the
// range is empty.
func nanRangeSeed() []byte {
	return []byte{
		0,          // one row
		0, poolNaN, // i: certain NaN
		0, 0, 0, 0, 0, 0, // f, s, b: certain NULL
		2,    // a same-column range
		0, 0, // on unqualified i
		1, pool22, // >= 22
		1, pool21, // <= 21
	}
}

// TestCompiledPredMatchesEvalCell compares the kernel with EvalCell on every
// (certain cell, op, constant) triple of the value pool, every two-candidate
// cell under every same-column range, and thousands of random relations and
// predicate trees.
func TestCompiledPredMatchesEvalCell(t *testing.T) {
	checkKernel(t, nanRangeSeed())
	nan := uncertain.Certain(kernelPool[poolNaN])
	checkRows(t, &expr.And{
		L: &expr.Cmp{Ref: expr.ColRef{Col: "i"}, Op: dc.Geq, Val: value.NewInt(22)},
		R: &expr.Cmp{Ref: expr.ColRef{Col: "i"}, Op: dc.Leq, Val: value.NewInt(21)},
	}, [][]uncertain.Cell{{nan, nan, nan, nan}})

	var certain [][]uncertain.Cell
	for _, v := range kernelPool {
		cell := uncertain.Certain(v)
		certain = append(certain, []uncertain.Cell{cell, cell, cell, cell})
	}
	for _, op := range zoneOps {
		for _, k := range kernelPool {
			checkRows(t, &expr.Cmp{Ref: expr.ColRef{Col: "f"}, Op: op, Val: k}, certain)
		}
	}

	var pairs [][]uncertain.Cell
	for _, a := range kernelPool {
		for _, b := range kernelPool {
			cell := uncertain.Cell{Orig: a, Candidates: []uncertain.Candidate{{Val: a, Prob: 0.5}, {Val: b, Prob: 0.5, World: 1}}}
			pairs = append(pairs, []uncertain.Cell{cell, cell, cell, cell})
		}
	}
	for _, lo := range kernelPool {
		for _, hi := range kernelPool {
			checkRows(t, &expr.And{
				L: &expr.Cmp{Ref: expr.ColRef{Table: "t", Col: "b"}, Op: dc.Geq, Val: lo},
				R: &expr.Cmp{Ref: expr.ColRef{Col: "b"}, Op: dc.Lt, Val: hi},
			}, pairs)
		}
	}

	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 160)
	for i := 0; i < 4000; i++ {
		rng.Read(data)
		checkKernel(t, data)
	}

	// Two workers share one kernel across their chunks.
	c := &chooser{b: make([]byte, 8*3*parallelThreshold)}
	rng.Read(c.b)
	pt := ptable.New("t", kernelSchema)
	for r := 0; r < 3*parallelThreshold; r++ {
		cells := make([]uncertain.Cell, len(kernelCols))
		for j := range cells {
			cells[j] = c.cell()
		}
		pt.Append(&ptable.Tuple{ID: int64(r), Cells: cells})
	}
	for i := 0; i < 20; i++ {
		rng.Read(data)
		pred := (&chooser{b: data}).pred(3)
		e := &Executor{Workers: 2}
		out, _, err := e.filter(&frame{pt: pt, isBase: true, full: true}, pred)
		if err != nil {
			t.Fatal(err)
		}
		if want := rowLoop(pt, pred); !slices.Equal(out.rows, want) {
			t.Fatalf("%s: two workers kept %d rows, EvalCell %d", pred, len(out.rows), len(want))
		}
	}
}

// FuzzCompiledPredMatchesEvalCell decodes a relation and a predicate tree
// from the input and requires the kernel to agree with EvalCell on every row.
func FuzzCompiledPredMatchesEvalCell(f *testing.F) {
	f.Add(nanRangeSeed())
	f.Add([]byte{3, 2, 3, 1, 2, 13, 3, 1, 4, 7, 12, 2, 0, 1, 0, 14, 1, 5})
	f.Add([]byte{1, 3, 7, 2, 4, 4, 18, 5, 3, 1, 0, 3, 2, 2, 9, 4, 1, 0, 3, 19})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		checkKernel(t, data)
	})
}
