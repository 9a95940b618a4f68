// Package repair computes probabilistic candidate fixes for general denial
// constraint violations (§4.2): each violating pair receives, per atom, the
// range fixes that invert that atom (holistic-cleaning style). Inverting a
// single atom suffices to satisfy one constraint, so these are exactly the
// minimal inversion plans of §4.2's encoding for a single constraint. The
// package also names the candidate worlds every fix carries, including the
// two FD fix directions of §4.1, whose frequency distributions the session
// computes from its FD group index. Fixes from multiple rules and batches
// merge under package uncertain's one merge rule (Lemma 4 for candidates, set
// union for ranges).
package repair

import (
	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/ptable"
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

// DCFixes computes range fixes for violating pairs of a general DC. A pair
// violates when every atom holds, so inverting any one atom repairs it: atom
// ai is the world ai+1, in which the tuple-side attribute of each side takes
// a range that inverts the atom against the partner's value (t1.v1 < t2.v2
// inverts to t1.v1 ≥ t2.v2 by fixing t1.v1, or t2.v2 ≤ t1.v1 by fixing
// t2.v2). Each touched cell keeps its original value beside the set of its
// inverting ranges, weighted by uncertain.Cell's one merge rule — 1/(k+1)
// each for k ranges, Example 5's 50/50 for one — so the fixes of a set of
// pairs do not depend on how the pairs were ordered or split into calls.
// Pairs are row positions of view, and so are the delta's keys.
func DCFixes(view detect.RowView, pairs []thetajoin.Pair, c *dc.Constraint, schemaIdx func(string) int, m *detect.Metrics) *ptable.Delta {
	delta := ptable.NewDelta("")
	for _, pair := range pairs {
		rowOf := func(tuple int) int {
			if tuple == 1 {
				return pair.T1
			}
			return pair.T2
		}
		for ai, at := range c.Atoms {
			world := ai + 1
			// Fixing the left side: t_L.leftCol must satisfy ¬op vs the
			// right side's current value.
			leftRow := rowOf(at.LeftTuple)
			rightVal := view.Value(rowOf(at.RightTuple), at.RightCol)
			addRangeFix(delta, leftRow, schemaIdx(at.LeftCol),
				view.Value(leftRow, at.LeftCol), at.Op.Negate(), rightVal, world)
			// Fixing the right side: t_R.rightCol must satisfy the
			// mirrored negated comparison vs the left side's value.
			rightRow := rowOf(at.RightTuple)
			leftVal := view.Value(rowOf(at.LeftTuple), at.LeftCol)
			addRangeFix(delta, rightRow, schemaIdx(at.RightCol),
				view.Value(rightRow, at.RightCol), mirror(at.Op.Negate()), leftVal, world)
			if m != nil {
				m.Repairs += 2
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

// addRangeFix adds a range candidate to the delta cell for (row, col),
// starting from the original value on first touch.
func addRangeFix(delta *ptable.Delta, row, col int, orig value.Value, op dc.Op, bound value.Value, world int) {
	id := int64(row)
	cell, ok := delta.Get(id, col)
	if !ok {
		cell = uncertain.Certain(orig)
	}
	cell.AddRange(op, bound, world)
	delta.Set(id, col, cell)
}
