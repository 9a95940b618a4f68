package repair

import (
	"math"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/thetajoin"
	"daisy/internal/value"
)

func idx(t *table.Table) func(string) int {
	return func(name string) int { return t.Schema.MustIndex(name) }
}

func salaryTable() *table.Table {
	sch := schema.MustNew(
		schema.Column{Name: "salary", Kind: value.Float},
		schema.Column{Name: "tax", Kind: value.Float},
	)
	t := table.New("emp", sch)
	add := func(s, x float64) { t.MustAppend(table.Row{value.NewFloat(s), value.NewFloat(x)}) }
	add(1000, 0.1) // 0
	add(3000, 0.2) // 1
	add(2000, 0.3) // 2
	return t
}

func TestDCFixesExample5(t *testing.T) {
	// Tuples t2=(3000,0.2) [row 1] and t3=(2000,0.3) [row 2] violate.
	// Candidate fixes for row 1 (role t2): salary {3000 50%, <2000 50%},
	// tax {0.2 50%, >0.3 50%}.
	tb := salaryTable()
	c := dc.MustParse("!(t1.salary<t2.salary & t1.tax>t2.tax)")
	v := detect.TableView{T: tb}
	pairs := thetajoin.Detect(v, c, 4, nil)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v", pairs)
	}
	delta := DCFixes(v, pairs, c, idx(tb), nil)

	salCell, _ := delta.Get(1, tb.Schema.MustIndex("salary"))
	if len(salCell.Candidates) != 1 || len(salCell.Ranges) != 1 {
		t.Fatalf("row1 salary cell = %v", salCell.String())
	}
	if math.Abs(salCell.Candidates[0].Prob-0.5) > 1e-9 || math.Abs(salCell.Ranges[0].Prob-0.5) > 1e-9 {
		t.Errorf("salary fix probs = %v / %v, want 50/50", salCell.Candidates[0].Prob, salCell.Ranges[0].Prob)
	}
	// Role t2 salary inverts t1.salary<t2.salary → t2.salary ≤ 2000.
	if salCell.Ranges[0].Op != dc.Leq || salCell.Ranges[0].Bound.Float() != 2000 {
		t.Errorf("salary range = %s%s", salCell.Ranges[0].Op, salCell.Ranges[0].Bound)
	}
	taxCell, _ := delta.Get(1, tb.Schema.MustIndex("tax"))
	// Role t2 tax inverts t1.tax>t2.tax → t2.tax ≥ 0.3.
	if taxCell.Ranges[0].Op != dc.Geq || taxCell.Ranges[0].Bound.Float() != 0.3 {
		t.Errorf("tax range = %s%s", taxCell.Ranges[0].Op, taxCell.Ranges[0].Bound)
	}

	// Row 2 (role t1): salary must rise (≥3000), tax must drop (≤0.2).
	sal2, _ := delta.Get(2, tb.Schema.MustIndex("salary"))
	if sal2.Ranges[0].Op != dc.Geq || sal2.Ranges[0].Bound.Float() != 3000 {
		t.Errorf("row2 salary range = %s%s", sal2.Ranges[0].Op, sal2.Ranges[0].Bound)
	}
	tax2, _ := delta.Get(2, tb.Schema.MustIndex("tax"))
	if tax2.Ranges[0].Op != dc.Leq || tax2.Ranges[0].Bound.Float() != 0.2 {
		t.Errorf("row2 tax range = %s%s", tax2.Ranges[0].Op, tax2.Ranges[0].Bound)
	}
}

func TestDCFixesProbMass(t *testing.T) {
	tb := salaryTable()
	c := dc.MustParse("!(t1.salary<t2.salary & t1.tax>t2.tax)")
	v := detect.TableView{T: tb}
	pairs := thetajoin.Detect(v, c, 4, nil)
	delta := DCFixes(v, pairs, c, idx(tb), nil)
	for id, cols := range delta.Cells {
		for _, cc := range cols {
			if s := cc.Cell.ProbSum(); math.Abs(s-1) > 1e-9 {
				t.Errorf("tuple %d col %d mass = %v", id, cc.Col, s)
			}
		}
	}
}

func TestDCFixesSatisfyConstraintInvariant(t *testing.T) {
	// Applying any range fix makes the pair satisfy the DC: check that the
	// inverted bound indeed falsifies the atom against the partner value.
	tb := salaryTable()
	c := dc.MustParse("!(t1.salary<t2.salary & t1.tax>t2.tax)")
	v := detect.TableView{T: tb}
	pairs := thetajoin.Detect(v, c, 4, nil)
	delta := DCFixes(v, pairs, c, idx(tb), nil)
	// Row 1 salary ≤2000 vs partner (row 2) salary 2000: atom t1.salary <
	// t2.salary with t1=2000 … bound chosen so the atom becomes false.
	salCell, _ := delta.Get(1, tb.Schema.MustIndex("salary"))
	bound := salCell.Ranges[0].Bound
	partner := value.NewFloat(2000)
	if dc.Lt.Eval(partner, bound) {
		t.Errorf("fix bound %v does not invert t1.salary<t2.salary for partner %v", bound, partner)
	}
}

// TestDCFixesOneRangePerAtomSide: inverting any one atom repairs a pair, so
// each atom gives each side's cell one range, in world atom+1, beside the
// unsupported keep-original candidate.
func TestDCFixesOneRangePerAtomSide(t *testing.T) {
	sch := schema.MustNew(
		schema.Column{Name: "a", Kind: value.Int},
		schema.Column{Name: "b", Kind: value.Int},
		schema.Column{Name: "c", Kind: value.Int},
	)
	tb := table.New("r", sch)
	tb.MustAppend(table.Row{value.NewInt(1), value.NewInt(9), value.NewInt(5)}) // t1
	tb.MustAppend(table.Row{value.NewInt(2), value.NewInt(8), value.NewInt(5)}) // t2
	c := dc.MustParse("!(t1.a<t2.a & t1.b>t2.b & t1.c=t2.c)")
	v := detect.TableView{T: tb}
	pairs := []thetajoin.Pair{{T1: 0, T2: 1}}
	delta := DCFixes(v, pairs, c, idx(tb), nil)
	for ai, at := range c.Atoms {
		for side, id := range []int64{0, 1} {
			col := at.LeftCol
			op := at.Op.Negate()
			bound := v.Value(1, at.RightCol)
			if side == 1 {
				col, op, bound = at.RightCol, mirror(at.Op.Negate()), v.Value(0, at.LeftCol)
			}
			cell, ok := delta.Get(id, tb.Schema.MustIndex(col))
			if !ok || len(cell.Ranges) != 1 || len(cell.Candidates) != 1 {
				t.Fatalf("atom %d tuple %d: cell %v", ai, id, cell.String())
			}
			r := cell.Ranges[0]
			if r.Op != op || !r.Bound.Equal(bound) || r.World != ai+1 {
				t.Errorf("atom %d tuple %d: range %s%s world %d, want %s%s world %d",
					ai, id, r.Op, r.Bound, r.World, op, bound, ai+1)
			}
			if k := cell.Candidates[0]; !k.Val.Equal(cell.Orig) || k.World != WorldKeep || k.Support != 0 || k.Prob != 0.5 {
				t.Errorf("atom %d tuple %d: keep candidate %+v", ai, id, k)
			}
		}
	}
}
