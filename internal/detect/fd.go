package detect

import (
	"sort"

	"daisy/internal/dc"
	"daisy/internal/value"
)

// FDCols is an FD's column set compiled against one view's schema: lhs and
// rhs positions resolved once so the per-row hot path reads cells
// positionally and builds comparable keys without re-resolving names.
type FDCols struct {
	LHS []int
	RHS int
}

// CompileFD resolves the FD's columns against the view. It panics when a
// column is missing — constraints are validated against schemas on binding.
func CompileFD(v RowView, fd dc.FDSpec) FDCols {
	c := FDCols{LHS: make([]int, len(fd.LHS))}
	for j, col := range fd.LHS {
		c.LHS[j] = mustColIndex(v, col)
	}
	c.RHS = mustColIndex(v, fd.RHS)
	return c
}

func mustColIndex(v RowView, col string) int {
	idx := v.ColIndex(col)
	if idx < 0 {
		panic("detect: column " + col + " not in view schema")
	}
	return idx
}

// LHSKey builds the comparable composite key of row i's lhs values.
// Single-attribute lhs (the common case) allocates nothing.
func (c FDCols) LHSKey(v RowView, i int) value.MapKey {
	if len(c.LHS) == 1 {
		return v.ValueAt(i, c.LHS[0]).MapKey()
	}
	var buf [64]byte
	b := buf[:0]
	for _, idx := range c.LHS {
		b = value.AppendKeyBytes(b, v.ValueAt(i, idx))
	}
	return value.CompositeKeyFromBytes(b)
}

// RHSKey builds the comparable key of row i's rhs value without allocating.
func (c FDCols) RHSKey(v RowView, i int) value.MapKey {
	return v.ValueAt(i, c.RHS).MapKey()
}

// LHSValues copies the lhs values of row i.
func (c FDCols) LHSValues(v RowView, i int) []value.Value {
	out := make([]value.Value, len(c.LHS))
	for j, idx := range c.LHS {
		out[j] = v.ValueAt(i, idx)
	}
	return out
}

// Group is a cluster of tuples sharing the same FD left-hand side.
type Group struct {
	// LHSKey is the comparable composite key of the lhs values.
	LHSKey value.MapKey
	// LHS holds the lhs values themselves.
	LHS []value.Value
	// Members lists row positions (into the grouped view) in the cluster.
	Members []int
	// rhs tallies the distinct rhs values of the group. FD groups have few
	// distinct rhs values (the candidate-set size p), so a small slice with
	// linear probing beats a map — no allocation for clean groups beyond the
	// slice itself; rhsIdx spills to a map only for degenerate groups.
	rhs    []rhsCount
	rhsIdx map[value.MapKey]int
}

// rhsCount is one distinct rhs value of a group with its member count.
type rhsCount struct {
	key value.MapKey
	val value.Value
	n   int
}

// rhsSpillThreshold is the distinct-rhs count past which a group switches
// from linear probing to a map index.
const rhsSpillThreshold = 8

// addRHS tallies one member's rhs value.
func (g *Group) addRHS(key value.MapKey, val value.Value) {
	if g.rhsIdx != nil {
		if i, ok := g.rhsIdx[key]; ok {
			g.rhs[i].n++
			return
		}
		g.rhsIdx[key] = len(g.rhs)
		g.rhs = append(g.rhs, rhsCount{key: key, val: val, n: 1})
		return
	}
	for i := range g.rhs {
		if g.rhs[i].key == key {
			g.rhs[i].n++
			return
		}
	}
	g.rhs = append(g.rhs, rhsCount{key: key, val: val, n: 1})
	if len(g.rhs) > rhsSpillThreshold {
		g.rhsIdx = make(map[value.MapKey]int, len(g.rhs))
		for i := range g.rhs {
			g.rhsIdx[g.rhs[i].key] = i
		}
	}
}

// Violating reports whether the group violates the FD (≥2 distinct rhs).
func (g *Group) Violating() bool { return len(g.rhs) > 1 }

// DistinctRHS returns the number of distinct rhs values in the group — the
// candidate-set size an erroneous cell would get.
func (g *Group) DistinctRHS() int { return len(g.rhs) }

// GroupByFD hash-groups the view's rows by the FD lhs. Cost is O(n), the
// paper's §5.2.1 error-detection complexity for FDs. Metrics (optional)
// accumulate scanned-tuple counts.
func GroupByFD(v RowView, fd dc.FDSpec, m *Metrics) map[value.MapKey]*Group {
	cols := CompileFD(v, fd)
	n := v.Len()
	if m != nil {
		m.Scanned += int64(n)
	}
	groups := make(map[value.MapKey]*Group)
	for i := 0; i < n; i++ {
		key := cols.LHSKey(v, i)
		g, ok := groups[key]
		if !ok {
			g = &Group{LHSKey: key, LHS: cols.LHSValues(v, i)}
			groups[key] = g
		}
		g.Members = append(g.Members, i)
		rhs := v.ValueAt(i, cols.RHS)
		g.addRHS(rhs.MapKey(), rhs)
	}
	return groups
}

// FDViolations returns the violating groups of the view under the FD,
// sorted by lhs values for determinism.
func FDViolations(v RowView, fd dc.FDSpec, m *Metrics) []*Group {
	groups := GroupByFD(v, fd, m)
	var out []*Group
	for _, g := range groups {
		if g.Violating() {
			out = append(out, g)
		}
	}
	SortGroups(out)
	return out
}

// SortGroups orders groups by their lhs values (lexicographic over the
// composite), the deterministic order FDViolations guarantees.
func SortGroups(gs []*Group) {
	sort.Slice(gs, func(i, j int) bool { return lhsLess(gs[i].LHS, gs[j].LHS) })
}

func lhsLess(a, b []value.Value) bool {
	for k := range a {
		if k >= len(b) {
			return false
		}
		if c := a[k].Compare(b[k]); c != 0 {
			return c < 0
		}
	}
	return len(a) < len(b)
}

// GroupByRHS hash-groups rows by the FD rhs value — the rhs-partner lists
// the lhs candidate distribution P(lhs|rhs) is tallied over.
func GroupByRHS(v RowView, fd dc.FDSpec, m *Metrics) map[value.MapKey][]int {
	rhsIdx := mustColIndex(v, fd.RHS)
	n := v.Len()
	if m != nil {
		m.Scanned += int64(n)
	}
	out := make(map[value.MapKey][]int)
	for i := 0; i < n; i++ {
		k := v.ValueAt(i, rhsIdx).MapKey()
		out[k] = append(out[k], i)
	}
	return out
}
