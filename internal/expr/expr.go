// Package expr implements boolean predicate trees for WHERE clauses,
// evaluable both over deterministic rows and over probabilistic tuples.
// Probabilistic evaluation follows §4 of the paper: a comparison qualifies a
// tuple iff at least one candidate value of the referenced cell satisfies it.
// EvalCell is the reference semantics: the engine compiles a predicate into
// its own row kernel, which must decide every row as EvalCell does, and the
// naive oracle evaluates through EvalCell directly.
package expr

import (
	"fmt"

	"daisy/internal/dc"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

// ColRef names a column, optionally qualified by relation.
type ColRef struct {
	Table string // "" = unqualified
	Col   string
}

// String renders table.col or col.
func (c ColRef) String() string {
	if c.Table == "" {
		return c.Col
	}
	return c.Table + "." + c.Col
}

// Pred is a boolean predicate over one tuple.
type Pred interface {
	// Eval evaluates over deterministic values.
	Eval(get func(ColRef) value.Value) bool
	// EvalCell evaluates over probabilistic cells (possible-worlds
	// qualification: true iff some candidate combination satisfies). It is
	// the reference the engine's compiled row kernel must equal, row for
	// row.
	EvalCell(get func(ColRef) *uncertain.Cell) bool
	// Cols lists the referenced columns.
	Cols() []ColRef
	String() string
}

// Cmp compares a column against a constant.
type Cmp struct {
	Ref ColRef
	Op  dc.Op
	Val value.Value
}

// Eval implements Pred.
func (c *Cmp) Eval(get func(ColRef) value.Value) bool {
	return c.Op.Eval(get(c.Ref), c.Val)
}

// EvalCell implements Pred with any-candidate semantics.
func (c *Cmp) EvalCell(get func(ColRef) *uncertain.Cell) bool {
	return get(c.Ref).Satisfies(c.Op, c.Val)
}

// Cols implements Pred.
func (c *Cmp) Cols() []ColRef { return []ColRef{c.Ref} }

func (c *Cmp) String() string {
	v := c.Val.String()
	if c.Val.Kind() == value.String {
		v = "'" + v + "'"
	}
	return fmt.Sprintf("%s%s%s", c.Ref, c.Op, v)
}

// ColCmp compares two columns of the same (joined) tuple — including join
// conditions like R.k = S.k once both sides are concatenated.
type ColCmp struct {
	Left  ColRef
	Op    dc.Op
	Right ColRef
}

// Eval implements Pred.
func (c *ColCmp) Eval(get func(ColRef) value.Value) bool {
	return c.Op.Eval(get(c.Left), get(c.Right))
}

// EvalCell implements Pred: qualifies iff some candidate pair satisfies —
// for equality this is the paper's "join keys overlap" rule.
func (c *ColCmp) EvalCell(get func(ColRef) *uncertain.Cell) bool {
	l, r := get(c.Left), get(c.Right)
	for _, a := range l.Values() {
		for _, b := range r.Values() {
			if c.Op.Eval(a, b) {
				return true
			}
		}
	}
	return false
}

// Cols implements Pred.
func (c *ColCmp) Cols() []ColRef { return []ColRef{c.Left, c.Right} }

func (c *ColCmp) String() string { return fmt.Sprintf("%s%s%s", c.Left, c.Op, c.Right) }

// And is conjunction.
type And struct{ L, R Pred }

// Eval implements Pred.
func (a *And) Eval(get func(ColRef) value.Value) bool { return a.L.Eval(get) && a.R.Eval(get) }

// EvalCell implements Pred. Note: per-conjunct any-candidate evaluation is
// the paper's (conservative) qualification rule — the tuple is output with
// all candidate values so downstream reasoning can discard false positives.
func (a *And) EvalCell(get func(ColRef) *uncertain.Cell) bool {
	return a.L.EvalCell(get) && a.R.EvalCell(get)
}

// Cols implements Pred.
func (a *And) Cols() []ColRef { return append(a.L.Cols(), a.R.Cols()...) }

func (a *And) String() string { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }

// Or is disjunction.
type Or struct{ L, R Pred }

// Eval implements Pred.
func (o *Or) Eval(get func(ColRef) value.Value) bool { return o.L.Eval(get) || o.R.Eval(get) }

// EvalCell implements Pred.
func (o *Or) EvalCell(get func(ColRef) *uncertain.Cell) bool {
	return o.L.EvalCell(get) || o.R.EvalCell(get)
}

// Cols implements Pred.
func (o *Or) Cols() []ColRef { return append(o.L.Cols(), o.R.Cols()...) }

func (o *Or) String() string { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }

// Conjuncts flattens a predicate into its top-level AND factors.
func Conjuncts(p Pred) []Pred {
	if a, ok := p.(*And); ok {
		return append(Conjuncts(a.L), Conjuncts(a.R)...)
	}
	return []Pred{p}
}

// ColNames returns the distinct unqualified column names referenced.
func ColNames(p Pred) map[string]bool {
	out := make(map[string]bool)
	for _, c := range p.Cols() {
		out[c.Col] = true
	}
	return out
}
