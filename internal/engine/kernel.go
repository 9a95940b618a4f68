package engine

import (
	"fmt"
	"strings"

	"daisy/internal/dc"
	"daisy/internal/expr"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

// rowKernel decides one row from its cells: true iff the row qualifies in at
// least one possible world. A kernel is immutable once compiled, so the
// chunk goroutines of one filter share it.
type rowKernel func(cells []uncertain.Cell) bool

// segMask is a set of offsets within one segment, laid out like
// ptable.Zone.Unsure.
type segMask = [ptable.SegmentSize / 64]uint64

// zoneTest is a predicate compiled against one relation's schema for
// per-segment zone tests: given a segment's zones it returns the offsets
// whose rows may qualify, or all=true when the zones rule out none. A nil
// zoneTest rules out nothing.
type zoneTest func(zs []ptable.Zone) (mask segMask, all bool)

// compilePred compiles pred against schema s: every column reference is
// resolved once, and the comparisons with a constant among the top-level
// conjuncts are grouped by column, so a range such as col >= a AND col < b
// loads its cell once. The kernel decides what pred.EvalCell decides, row for
// row; EvalCell is the reference it is tested against. The zone test comes
// from the same groups: a comparison whose zone excludes its constant leaves
// that column's Unsure rows, and the groups intersect those sets. OR and
// column-to-column comparisons rule out nothing.
func compilePred(pred expr.Pred, s *schema.Schema) (rowKernel, zoneTest, error) {
	c, err := compileConj(pred, s)
	if err != nil {
		return nil, nil, err
	}
	return c.kernel(), c.zoneTest(), nil
}

// conj is a compiled conjunction: the comparisons with a constant, grouped by
// column, and the other factors compiled on their own.
type conj struct {
	groups []colGroup
	rest   []rowKernel
}

// maxAtoms bounds a group's comparisons by the width of its satisfied set; a
// column compared more often than that takes a second group.
const maxAtoms = 64

func compileConj(pred expr.Pred, s *schema.Schema) (conj, error) {
	var c conj
	for _, p := range expr.Conjuncts(pred) {
		cmp, ok := p.(*expr.Cmp)
		if !ok {
			k, err := compileNode(p, s)
			if err != nil {
				return conj{}, err
			}
			c.rest = append(c.rest, k)
			continue
		}
		col, err := resolveCol(s, cmp.Ref)
		if err != nil {
			return conj{}, err
		}
		gi := len(c.groups)
		for i := range c.groups {
			if c.groups[i].col == col && len(c.groups[i].atoms) < maxAtoms {
				gi = i
				break
			}
		}
		if gi == len(c.groups) {
			c.groups = append(c.groups, colGroup{col: col, ints: true})
		}
		g := &c.groups[gi]
		g.atoms = append(g.atoms, newAtom(cmp.Op, cmp.Val))
		g.ints = g.ints && cmp.Val.Kind() == value.Int
	}
	return c, nil
}

// compileNode compiles a predicate below the top-level conjunction.
func compileNode(pred expr.Pred, s *schema.Schema) (rowKernel, error) {
	switch p := pred.(type) {
	case *expr.Cmp, *expr.And:
		c, err := compileConj(p, s)
		if err != nil {
			return nil, err
		}
		return c.kernel(), nil
	case *expr.Or:
		l, err := compileNode(p.L, s)
		if err != nil {
			return nil, err
		}
		r, err := compileNode(p.R, s)
		if err != nil {
			return nil, err
		}
		return func(cells []uncertain.Cell) bool { return l(cells) || r(cells) }, nil
	case *expr.ColCmp:
		li, err := resolveCol(s, p.Left)
		if err != nil {
			return nil, err
		}
		ri, err := resolveCol(s, p.Right)
		if err != nil {
			return nil, err
		}
		op := p.Op
		// Some candidate pair satisfies it: for equality, the join keys
		// overlap.
		return func(cells []uncertain.Cell) bool {
			l, r := &cells[li], &cells[ri]
			for i := range numValues(l) {
				a := valueAt(l, i)
				for j := range numValues(r) {
					if op.Eval(*a, *valueAt(r, j)) {
						return true
					}
				}
			}
			return false
		}, nil
	}
	return nil, fmt.Errorf("engine: cannot compile predicate %T", pred)
}

func (c *conj) kernel() rowKernel {
	groups, rest := c.groups, c.rest
	return func(cells []uncertain.Cell) bool {
		for i := range groups {
			if !groups[i].test(&cells[groups[i].col]) {
				return false
			}
		}
		for _, k := range rest {
			if !k(cells) {
				return false
			}
		}
		return true
	}
}

func (c *conj) zoneTest() zoneTest {
	if len(c.groups) == 0 {
		return nil
	}
	groups := c.groups
	return func(zs []ptable.Zone) (mask segMask, all bool) {
		all = true
		for i := range groups {
			z := &zs[groups[i].col]
			if !groups[i].excludedBy(z) {
				continue
			}
			if all {
				mask, all = z.Unsure, false
				continue
			}
			for w := range mask {
				mask[w] &= z.Unsure[w]
			}
		}
		return mask, all
	}
}

// colGroup is the comparisons with a constant that one column takes among a
// conjunction's factors. Its test loads the cell once and decides each
// comparison with the cell's possible-worlds semantics.
type colGroup struct {
	col   int
	atoms []atom
	ints  bool // every constant is an Int: an Int value compares as int64
}

func (g *colGroup) test(c *uncertain.Cell) bool {
	switch {
	case len(c.Ranges) > 0:
		for i := range g.atoms {
			if !c.Satisfies(g.atoms[i].op, g.atoms[i].val) {
				return false
			}
		}
		return true
	case len(c.Candidates) == 0:
		return g.holding(&c.Orig) == g.need()
	}
	// One pass over the candidates. Each comparison needs some candidate
	// that satisfies it, not necessarily the one that satisfies the others:
	// the paper's per-conjunct qualification (see expr.And.EvalCell).
	need := g.need()
	var got uint64
	for i := range c.Candidates {
		if got |= g.holding(&c.Candidates[i].Val); got == need {
			return true
		}
	}
	return false
}

// need is the set of every comparison of the group.
func (g *colGroup) need() uint64 { return uint64(1)<<len(g.atoms) - 1 }

// holding returns the set of the group's comparisons that v satisfies.
func (g *colGroup) holding(v *value.Value) (set uint64) {
	if g.ints && v.Kind() == value.Int {
		x := v.Int()
		for j := range g.atoms {
			set |= g.atoms[j].acceptInt(x) << j
		}
		return set
	}
	for j := range g.atoms {
		set |= uint64(g.atoms[j].accept>>g.atoms[j].order(v)&1) << j
	}
	return set
}

// excludedBy reports whether some comparison of the group rules out every
// bounded cell of the zone.
func (g *colGroup) excludedBy(z *ptable.Zone) bool {
	for i := range g.atoms {
		if z.Excludes(g.atoms[i].op, g.atoms[i].val) {
			return true
		}
	}
	return false
}

// atom is one comparison with a constant. The operator is kept as the set of
// orders it accepts and the constant unpacked by kind, so a value is
// compared with a typed compare instead of value.Compare's dispatch.
type atom struct {
	op  dc.Op
	val value.Value
	// accept has bit o set iff op holds when the value's order against val
	// is o (see order).
	accept uint8
	kind   value.Kind
	i      int64
	f      float64 // val.Float() when numeric: Int–Float compares convert as value.Compare does
	s      string
}

// Orders, as bit positions of atom.accept.
const (
	ordLess, ordEqual, ordGreater = 0, 1, 2
)

var opAccepts = map[dc.Op]uint8{
	dc.Eq:  1 << ordEqual,
	dc.Neq: 1<<ordLess | 1<<ordGreater,
	dc.Lt:  1 << ordLess,
	dc.Leq: 1<<ordLess | 1<<ordEqual,
	dc.Gt:  1 << ordGreater,
	dc.Geq: 1<<ordGreater | 1<<ordEqual,
}

func newAtom(op dc.Op, v value.Value) atom {
	a := atom{op: op, val: v, accept: opAccepts[op], kind: v.Kind()}
	switch a.kind {
	case value.Int:
		a.i, a.f = v.Int(), v.Float()
	case value.Float:
		a.f = v.Float()
	case value.String:
		a.s = v.Str()
	}
	return a
}

// acceptInt is 1 if `x op val` holds for the Int constant val, else 0.
func (a *atom) acceptInt(x int64) uint64 {
	return uint64(a.accept>>order3(x < a.i, x > a.i)) & 1
}

// order is v.Compare(a.val) as an order (ordLess, ordEqual, ordGreater):
// int64 for Int–Int, float64 for any other numeric pair (a NaN is equal to
// every number, as under value.Compare), string for String–String, and the
// kind ranks NULL < numeric < string otherwise.
func (a *atom) order(v *value.Value) uint {
	k := v.Kind()
	switch {
	case k == value.Int && a.kind == value.Int:
		return order3(v.Int() < a.i, v.Int() > a.i)
	case isNumeric(k) && isNumeric(a.kind):
		x := v.Float()
		return order3(x < a.f, x > a.f)
	case k == value.String && a.kind == value.String:
		return uint(strings.Compare(v.Str(), a.s) + 1)
	}
	ra, rb := kindRank(k), kindRank(a.kind)
	return order3(ra < rb, ra > rb)
}

func order3(less, greater bool) uint { return ordEqual + bit(greater) - bit(less) }

func bit(b bool) uint {
	if b {
		return 1
	}
	return 0
}

func isNumeric(k value.Kind) bool { return k == value.Int || k == value.Float }

// kindRank buckets kinds as value.Compare does across ranks.
func kindRank(k value.Kind) int {
	switch k {
	case value.Null:
		return 0
	case value.Int, value.Float:
		return 1
	}
	return 2
}

// numValues and valueAt enumerate a cell's possible concrete values, as
// Cell.Values lists them, without building the list.
func numValues(c *uncertain.Cell) int {
	if c.IsCertain() {
		return 1
	}
	return len(c.Candidates)
}

func valueAt(c *uncertain.Cell, i int) *value.Value {
	if c.IsCertain() {
		return &c.Orig
	}
	return &c.Candidates[i].Val
}

// resolveCol is resolveRef for a reference the operator must read.
func resolveCol(s *schema.Schema, ref expr.ColRef) (int, error) {
	idx := resolveRef(s, ref)
	if idx < 0 {
		return -1, fmt.Errorf("engine: column %s not in schema (%s)", ref, s)
	}
	return idx, nil
}
