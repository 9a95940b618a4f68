// Package repair computes probabilistic candidate fixes for general denial
// constraint violations (§4.2): violating pairs receive range fixes that
// invert atoms (holistic-cleaning style), with inversion subsets enumerated
// by the SAT encoding of §4.2. It also names the candidate worlds every fix
// carries, including the two FD fix directions of §4.1, whose frequency
// distributions the session computes from its FD group index. Fixes from
// multiple rules merge under the union semantics of Lemma 4 (implemented in
// package uncertain).
package repair

import (
	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/ptable"
	"daisy/internal/sat"
	"daisy/internal/thetajoin"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

// Worlds for FD fixes: world 1 fixes the lhs given the rhs, world 2 fixes
// the rhs given the lhs (the two candidate instances of §4.1).
const (
	WorldKeep   = 0
	WorldFixLHS = 1
	WorldFixRHS = 2
)

// InversionPlans enumerates the sets of atom indices whose inversion
// satisfies the DC formula for a violating pair, via the SAT encoding: one
// boolean per atom (true = invert), one clause requiring at least one
// inversion per violated constraint. For a single constraint the minimal
// plans are the single-atom inversions.
func InversionPlans(cs []*dc.Constraint, atomOffset func(ci int) int, totalAtoms int) [][]int {
	f := sat.NewFormula(totalAtoms)
	for ci, c := range cs {
		lits := make([]sat.Literal, len(c.Atoms))
		for ai := range c.Atoms {
			lits[ai] = sat.Literal(atomOffset(ci) + ai + 1)
		}
		if err := f.AddClause(lits...); err != nil {
			return nil
		}
	}
	sols := f.SolveAll(0)
	var plans [][]int
	seen := make(map[string]bool)
	for _, s := range sols {
		var plan []int
		key := ""
		for v := 1; v <= totalAtoms; v++ {
			if s[v] {
				plan = append(plan, v-1)
				key += string(rune(v))
			}
		}
		if len(plan) == 0 || seen[key] {
			continue
		}
		seen[key] = true
		plans = append(plans, plan)
	}
	return plans
}

// DCFixes computes range fixes for violating pairs of a general DC. For
// each pair and each atom, the tuple-side attribute receives a candidate
// range that inverts the atom (t1.v1 < t2.v2 inverts to t1.v1 ≥ t2.v2 by
// fixing t1.v1, or t2.v2 ≤ t1.v1 by fixing t2.v2). Each affected cell keeps
// its original value and the inverting range, 1/(#plans+keep) each, per
// Example 5's 50/50 split with two possible fixes.
func DCFixes(view detect.RowView, pairs []thetajoin.Pair, c *dc.Constraint, schemaIdx func(string) int, m *detect.Metrics) *ptable.Delta {
	delta := ptable.NewDelta("")
	posOf := detect.PosIndex(view)
	plans := InversionPlans([]*dc.Constraint{c}, func(int) int { return 0 }, len(c.Atoms))
	if len(plans) == 0 {
		return delta
	}
	for _, pair := range pairs {
		p1, ok1 := posOf(pair.T1)
		p2, ok2 := posOf(pair.T2)
		if !ok1 || !ok2 {
			continue
		}
		rowOf := func(tuple int) int {
			if tuple == 1 {
				return p1
			}
			return p2
		}
		// One world per inversion plan; cells touched by a plan get the
		// inverting range with probability 1/(1+#plans), originals keep the
		// remaining mass (Example 5: two atoms → per-cell {orig 50%, range 50%}).
		for world, plan := range plans {
			for _, ai := range plan {
				at := c.Atoms[ai]
				// Fixing the left side: t_L.leftCol must satisfy ¬op vs the
				// right side's current value.
				leftRow := rowOf(at.LeftTuple)
				rightVal := view.Value(rowOf(at.RightTuple), at.RightCol)
				addRangeFix(delta, view.ID(leftRow), schemaIdx(at.LeftCol),
					view.Value(leftRow, at.LeftCol), at.Op.Negate(), rightVal, world+1)
				// Fixing the right side: t_R.rightCol must satisfy the
				// mirrored negated comparison vs the left side's value.
				rightRow := rowOf(at.RightTuple)
				leftVal := view.Value(rowOf(at.LeftTuple), at.LeftCol)
				addRangeFix(delta, view.ID(rightRow), schemaIdx(at.RightCol),
					view.Value(rightRow, at.RightCol), mirror(at.Op.Negate()), leftVal, world+1)
				if m != nil {
					m.Repairs += 2
				}
			}
		}
	}
	// Weight candidates: each touched cell has 1 keep-candidate and k range
	// candidates; frequency-based probability 1/(k+1) each.
	for _, cols := range delta.Cells {
		for ci := range cols {
			cell := &cols[ci].Cell
			p := 1.0 / float64(len(cell.Ranges)+1)
			for i := range cell.Candidates {
				cell.Candidates[i].Prob = p
			}
			for i := range cell.Ranges {
				cell.Ranges[i].Prob = p
			}
		}
	}
	return delta
}

// mirror flips a comparison to the other operand's perspective: a < b ⇔ b > a.
func mirror(op dc.Op) dc.Op {
	switch op {
	case dc.Lt:
		return dc.Gt
	case dc.Leq:
		return dc.Geq
	case dc.Gt:
		return dc.Lt
	case dc.Geq:
		return dc.Leq
	}
	return op // Eq and Neq are symmetric
}

// addRangeFix appends a range candidate to the delta cell for (id, col),
// creating the keep-original candidate on first touch.
func addRangeFix(delta *ptable.Delta, id int64, col int, orig value.Value, op dc.Op, bound value.Value, world int) {
	cell, _ := delta.Get(id, col)
	if len(cell.Candidates) == 0 {
		cell.Orig = orig
		cell.Candidates = []uncertain.Candidate{{Val: orig, Prob: 0.5, World: WorldKeep, Support: 1}}
	}
	// Deduplicate identical ranges from repeated pairs.
	for _, r := range cell.Ranges {
		if r.Op == op && r.Bound.Equal(bound) {
			delta.Set(id, col, cell)
			return
		}
	}
	cell.Ranges = append(cell.Ranges, uncertain.RangeCandidate{
		RangeBound: uncertain.RangeBound{Op: op, Bound: bound},
		Prob:       0.5,
		World:      world,
	})
	delta.Set(id, col, cell)
}
