// Package uncertain implements attribute-level uncertainty: a Cell holds a
// set of candidate values, each with a frequency-based probability and the
// identifier of the candidate pair (possible world) it belongs to, plus
// provenance to the original dirty value. This is the probabilistic
// representation of §4 of the paper: query operators output a tuple iff at
// least one candidate qualifies, and merging fixes from multiple rules
// follows the union semantics of Lemma 4.
package uncertain

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"daisy/internal/dc"
	"daisy/internal/value"
)

// Candidate is one possible value of a cell.
type Candidate struct {
	Val value.Value
	// Prob is the frequency-based probability of this candidate.
	Prob float64
	// World identifies the candidate pair (possible world) the value belongs
	// to; candidates across attributes with the same World form one
	// consistent fix. World 0 is the "keep original" world.
	World int
	// Support counts the conflicting tuples due to which the candidate was
	// proposed (the Ti sets of Lemma 4); used to re-weight on merge.
	Support int
}

// RangeBound describes a half-open candidate range for inequality-DC fixes:
// the fix "take any value op Bound" (e.g. < 2000).
type RangeBound struct {
	Op    dc.Op
	Bound value.Value
}

// Cell is one attribute of one tuple, possibly uncertain.
type Cell struct {
	// Candidates is empty for a certain cell (the value is Orig). For a
	// dirty cell it lists every candidate fix; probabilities sum to 1.
	Candidates []Candidate
	// Ranges lists candidate ranges for inequality-DC repairs (the paper
	// stores e.g. {<2000 50%, 3000 50%}), as a set in canonical (op, bound)
	// order (see Merge).
	Ranges []RangeCandidate
	// Orig is the original (possibly dirty) value — provenance for
	// re-running new rules over original data (Table 7 scenario).
	Orig value.Value
}

// RangeCandidate is a candidate expressed as a range constraint rather than
// a concrete value.
type RangeCandidate struct {
	RangeBound
	Prob  float64
	World int
}

// Certain constructs a clean cell.
func Certain(v value.Value) Cell { return Cell{Orig: v} }

// IsCertain reports whether the cell has a single possible value.
func (c *Cell) IsCertain() bool { return len(c.Candidates) == 0 && len(c.Ranges) == 0 }

// Value returns the cell's value when certain, or its most probable
// candidate otherwise. When the original value ties with the most probable
// candidate, the original is kept (updating a cell requires strictly more
// evidence); other ties break by value order for determinism.
func (c *Cell) Value() value.Value {
	if c.IsCertain() {
		return c.Orig
	}
	best := -1
	for i, cand := range c.Candidates {
		if best < 0 || cand.Prob > c.Candidates[best].Prob ||
			(cand.Prob == c.Candidates[best].Prob && cand.Val.Less(c.Candidates[best].Val)) {
			best = i
		}
	}
	if best < 0 {
		return c.Orig
	}
	const eps = 1e-9
	for _, cand := range c.Candidates {
		if cand.Val.Equal(c.Orig) && cand.Prob >= c.Candidates[best].Prob-eps {
			return c.Orig
		}
	}
	return c.Candidates[best].Val
}

// Values returns every possible concrete value of the cell (for certain
// cells, just Orig). Order is deterministic.
func (c *Cell) Values() []value.Value {
	if c.IsCertain() {
		return []value.Value{c.Orig}
	}
	out := make([]value.Value, 0, len(c.Candidates))
	for _, cand := range c.Candidates {
		out = append(out, cand.Val)
	}
	return out
}

// Satisfies reports whether the cell can satisfy `op const` in at least one
// possible world — the qualification rule for probabilistic operators.
// Candidate ranges qualify if the range overlaps the predicate.
func (c *Cell) Satisfies(op dc.Op, constant value.Value) bool {
	if c.IsCertain() {
		return op.Eval(c.Orig, constant)
	}
	for _, cand := range c.Candidates {
		if op.Eval(cand.Val, constant) {
			return true
		}
	}
	for _, r := range c.Ranges {
		if rangeMayOverlap(r.RangeBound, op, constant) {
			return true
		}
	}
	return false
}

// rangeMayOverlap conservatively reports whether some value satisfying the
// range bound also satisfies `op constant`.
func rangeMayOverlap(r RangeBound, op dc.Op, constant value.Value) bool {
	cmp := r.Bound.Compare(constant)
	switch r.Op {
	case dc.Lt, dc.Leq: // candidate domain is (-inf, Bound)
		switch op {
		case dc.Lt, dc.Leq, dc.Neq:
			return true
		case dc.Eq:
			return cmp > 0 || (cmp == 0 && r.Op == dc.Leq)
		case dc.Gt, dc.Geq:
			return cmp > 0 || (cmp == 0 && r.Op == dc.Leq && op == dc.Geq)
		}
	case dc.Gt, dc.Geq: // candidate domain is (Bound, +inf)
		switch op {
		case dc.Gt, dc.Geq, dc.Neq:
			return true
		case dc.Eq:
			return cmp < 0 || (cmp == 0 && r.Op == dc.Geq)
		case dc.Lt, dc.Leq:
			return cmp < 0 || (cmp == 0 && r.Op == dc.Geq && op == dc.Leq)
		}
	case dc.Eq:
		return op.Eval(r.Bound, constant)
	case dc.Neq:
		return true
	}
	return true
}

// Normalize rescales probabilities to sum to one. No-op on certain cells.
func (c *Cell) Normalize() {
	total := 0.0
	for _, cand := range c.Candidates {
		total += cand.Prob
	}
	for _, r := range c.Ranges {
		total += r.Prob
	}
	if total <= 0 {
		return
	}
	for i := range c.Candidates {
		c.Candidates[i].Prob /= total
	}
	for i := range c.Ranges {
		c.Ranges[i].Prob /= total
	}
}

// ProbSum returns the total probability mass (≈1 for a normalized dirty cell).
func (c *Cell) ProbSum() float64 {
	if c.IsCertain() {
		return 1
	}
	t := 0.0
	for _, cand := range c.Candidates {
		t += cand.Prob
	}
	for _, r := range c.Ranges {
		t += r.Prob
	}
	return t
}

// Clone deep-copies the cell.
func (c *Cell) Clone() Cell {
	out := Cell{Orig: c.Orig}
	out.Candidates = append([]Candidate(nil), c.Candidates...)
	out.Ranges = append([]RangeCandidate(nil), c.Ranges...)
	return out
}

// Merge combines a second fix of the same cell into it. Candidate values
// union and their supports (conflicting-tuple sets) add, per Lemma 4; range
// candidates union as a set in canonical (op, bound) order. Weights are then
// recomputed from the merged cell alone (reweight), so merging commutes, and
// re-merging a range-only fix — whose keep-original candidate carries no
// support — leaves the cell unchanged. The candidate and range slices are
// copied before mutation, so cells may share distribution backing (repair
// fan-out reuses one slice across a group's members).
func (c *Cell) Merge(o Cell) {
	if o.IsCertain() {
		return
	}
	if c.IsCertain() {
		*c = o.Clone()
		return
	}
	c.Candidates = append([]Candidate(nil), c.Candidates...)
	byKey := make(map[value.MapKey]int, len(c.Candidates))
	for i, cand := range c.Candidates {
		byKey[cand.Val.MapKey()] = i
	}
	nextWorld := 0
	for _, cand := range c.Candidates {
		if cand.World > nextWorld {
			nextWorld = cand.World
		}
	}
	for _, cand := range o.Candidates {
		if i, ok := byKey[cand.Val.MapKey()]; ok {
			c.Candidates[i].Support += cand.Support
			continue
		}
		nextWorld++
		cand.World = nextWorld
		c.Candidates = append(c.Candidates, cand)
	}
	if len(o.Ranges) > 0 {
		c.Ranges = canonicalRanges(append(slices.Clone(c.Ranges), o.Ranges...))
	} else if len(c.Ranges) > 0 {
		c.Ranges = slices.Clone(c.Ranges) // reweight writes the probabilities
	}
	c.sortCandidates()
	c.reweight()
}

// AddRange adds the candidate range "op bound" of the given world to a cell
// the caller owns, mutating its range slice in place. A certain cell first
// gains its keep-original candidate (world 0), with no support: a range fix
// proposes the range, not the original value. This is how a DC repair builds
// its cells, so they are in the same canonical form Merge produces.
func (c *Cell) AddRange(op dc.Op, bound value.Value, world int) {
	if c.IsCertain() {
		c.Candidates = []Candidate{{Val: c.Orig}}
	}
	c.Ranges = canonicalRanges(append(c.Ranges, RangeCandidate{RangeBound: RangeBound{Op: op, Bound: bound}, World: world}))
	c.reweight()
}

// canonicalRanges sorts rs in place into canonical (op, bound) order and
// keeps one range per (op, bound): the one of the lowest world (then bound
// kind). The result depends only on the set of ranges in rs, not on their
// order or repetition.
func canonicalRanges(rs []RangeCandidate) []RangeCandidate {
	slices.SortFunc(rs, func(a, b RangeCandidate) int {
		if c := compareRange(a, b); c != 0 {
			return c
		}
		if a.World != b.World {
			return cmp.Compare(a.World, b.World)
		}
		return cmp.Compare(a.Bound.Kind(), b.Bound.Kind())
	})
	return slices.CompactFunc(rs, func(a, b RangeCandidate) bool { return compareRange(a, b) == 0 })
}

func compareRange(a, b RangeCandidate) int {
	if a.Op != b.Op {
		return cmp.Compare(a.Op, b.Op)
	}
	return a.Bound.Compare(b.Bound)
}

// reweight recomputes every probability from the cell's candidates, ranges
// and original value alone. Each of the k ranges gets 1/(k+1). The
// candidates share the remaining 1/(k+1) in proportion to support (Lemma 4's
// P(X | Y∪Z)); a cell whose candidates carry no support — one only range
// fixes touched — gives that share to its original value. With no ranges
// this is Lemma 4's re-weighting alone; one range splits 50/50 (Example 5).
func (c *Cell) reweight() {
	total := 0
	for _, cand := range c.Candidates {
		total += cand.Support
	}
	for i := range c.Candidates {
		cand := &c.Candidates[i]
		switch {
		case total > 0:
			cand.Prob = float64(cand.Support) / float64(total)
		case cand.Val.Equal(c.Orig):
			cand.Prob = 1
		default:
			cand.Prob = 0
		}
	}
	for i := range c.Ranges {
		c.Ranges[i].Prob = 1
	}
	c.Normalize()
}

// sortCandidates orders candidates by value for deterministic output.
func (c *Cell) sortCandidates() {
	sort.Slice(c.Candidates, func(i, j int) bool {
		return c.Candidates[i].Val.Less(c.Candidates[j].Val)
	})
}

// EqualDistribution reports whether two cells hold the same candidate
// distribution (values and probabilities within eps), ignoring world ids.
func (c *Cell) EqualDistribution(o *Cell, eps float64) bool {
	if c.IsCertain() != o.IsCertain() {
		return false
	}
	if c.IsCertain() {
		return c.Orig.Equal(o.Orig)
	}
	if len(c.Candidates) != len(o.Candidates) {
		return false
	}
	a, b := c.Clone(), o.Clone()
	a.sortCandidates()
	b.sortCandidates()
	for i := range a.Candidates {
		if !a.Candidates[i].Val.Equal(b.Candidates[i].Val) {
			return false
		}
		if math.Abs(a.Candidates[i].Prob-b.Candidates[i].Prob) > eps {
			return false
		}
	}
	return true
}

// String renders the cell like the paper's tables: "LA 67%, SF 33%".
func (c *Cell) String() string {
	if c.IsCertain() {
		return c.Orig.String()
	}
	parts := make([]string, 0, len(c.Candidates)+len(c.Ranges))
	for _, cand := range c.Candidates {
		parts = append(parts, fmt.Sprintf("%s %.0f%%", cand.Val, cand.Prob*100))
	}
	for _, r := range c.Ranges {
		parts = append(parts, fmt.Sprintf("%s%s %.0f%%", r.Op, r.Bound, r.Prob*100))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
