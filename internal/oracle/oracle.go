// Package oracle is a naive reference implementation of Daisy's query-driven
// cleaning — Algorithm 1 interpreted directly over the data, with none of
// the optimized engine's machinery: no persistent group index, no
// precomputed statistics pruning, no cost model, no pruned theta-join,
// no snapshot epochs. Every relaxation is a fresh table scan, violating
// groups are re-derived per query, DC pairs come from a quadratic nested
// loop, and repairs recompute frequency distributions from scratch.
//
// Its purpose is differential testing: for any table, rule set, and query
// mix, the optimized core.Session must produce the same query results and
// the same final probabilistic table state as this oracle (see the seeded
// property test and fuzz target in this package). It intentionally shares
// only the leaf primitives with the engine — value/cell representation, SQL
// front-end, predicate evaluation, and the Lemma 4 merge — so a bug in the
// index, pruning, relaxation, detection, or snapshot layers shows up as a
// divergence. The oracle also keeps its own pre-refactor flat tuple storage
// (FlatTable, one tuple-pointer slice mutated in place) rather than the
// engine's segmented copy-on-write PTable, so state-fingerprint comparisons
// double as a differential test of the segmented storage layer itself.
package oracle

import (
	"fmt"
	"sort"

	"daisy/internal/dc"
	"daisy/internal/expr"
	"daisy/internal/ptable"
	"daisy/internal/sql"
	"daisy/internal/table"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

// Strategy mirrors the forced cleaning schedules of core.Session. The
// oracle has no cost model, so there is no Auto.
type Strategy int

// Strategies supported by the oracle.
const (
	Incremental Strategy = iota
	Full
)

// Session is the naive cleaning session.
type Session struct {
	strategy Strategy
	tables   map[string]*state
	rules    []*dc.Constraint
}

type state struct {
	pt            *FlatTable
	checkedGroups map[string]map[value.MapKey]bool
	checkedTuples map[string]map[int64]bool
}

// New creates an oracle session with a forced strategy.
func New(strategy Strategy) *Session {
	return &Session{strategy: strategy, tables: make(map[string]*state)}
}

// Register snapshots a dirty table.
func (s *Session) Register(t *table.Table) error {
	if _, dup := s.tables[t.Name]; dup {
		return fmt.Errorf("oracle: table %q already registered", t.Name)
	}
	s.tables[t.Name] = &state{
		pt:            FlatFromTable(t),
		checkedGroups: make(map[string]map[value.MapKey]bool),
		checkedTuples: make(map[string]map[int64]bool),
	}
	return nil
}

// AddRule binds a constraint.
func (s *Session) AddRule(rule *dc.Constraint) error {
	if rule.Name == "" {
		return fmt.Errorf("oracle: rule must be named")
	}
	s.rules = append(s.rules, rule)
	return nil
}

// Table exposes the current probabilistic state (the oracle's flat,
// pre-refactor storage — see FlatTable).
func (s *Session) Table(name string) *FlatTable {
	st, ok := s.tables[name]
	if !ok {
		return nil
	}
	return st.pt
}

// Result is a cleaned oracle answer: the projected cells per output row.
type Result struct {
	Columns []string
	Rows    [][]uncertain.Cell
}

// Query executes a single-table SELECT — plain, grouped, or aggregated —
// with cleaning, the naive way.
func (s *Session) Query(text string) (*Result, error) {
	q, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	if len(q.From) != 1 {
		return nil, fmt.Errorf("oracle: only single-table selects are supported")
	}
	st, ok := s.tables[q.From[0]]
	if !ok {
		return nil, fmt.Errorf("oracle: unknown table %q", q.From[0])
	}

	// Possible-worlds filter: a tuple qualifies iff some candidate world
	// satisfies the predicate.
	var current []int
	for i := 0; i < st.pt.Len(); i++ {
		if q.Where == nil || evalRow(st.pt, i, q.Where) {
			current = append(current, i)
		}
	}

	// Clean with every bound rule overlapping the query footprint, in
	// binding order — the same relevance test the planner applies.
	attrs := queryAttrs(q)
	inResult := make(map[int]bool, len(current))
	for _, r := range current {
		inResult[r] = true
	}
	for _, rule := range s.rules {
		if rule.Table != "" && rule.Table != q.From[0] {
			continue
		}
		if !ruleApplies(rule, st.pt) || !rule.OverlapsAny(attrs) {
			continue
		}
		var extra []int
		if fd, isFD := rule.AsFD(); isFD {
			extra = s.cleanFD(st, rule.Name, fd, current, q.Where)
		} else {
			extra = s.cleanDC(st, rule, current)
		}
		for _, x := range extra {
			if !inResult[x] {
				inResult[x] = true
				current = append(current, x)
			}
		}
	}

	// Re-qualify against the cleaned state.
	var out []int
	for _, r := range current {
		if q.Where == nil || evalRow(st.pt, r, q.Where) {
			out = append(out, r)
		}
	}

	// Aggregation sits above cleaning, exactly as the planner places it.
	if len(q.GroupBy) > 0 || q.HasAggregate() {
		return s.groupBy(st, q, out)
	}

	// Project.
	res := &Result{}
	var idxs []int
	for _, it := range q.Select {
		if it.Star {
			for i := 0; i < st.pt.Schema.Len(); i++ {
				idxs = append(idxs, i)
				res.Columns = append(res.Columns, st.pt.Schema.Col(i).Name)
			}
			continue
		}
		idx := st.pt.Schema.Index(it.Ref.Col)
		if idx < 0 {
			return nil, fmt.Errorf("oracle: unknown column %q", it.Ref.Col)
		}
		idxs = append(idxs, idx)
		res.Columns = append(res.Columns, it.Ref.Col)
	}
	for _, r := range out {
		row := make([]uncertain.Cell, len(idxs))
		for k, idx := range idxs {
			row[k] = st.pt.Tuples[r].Cells[idx]
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// ruleApplies reports whether the relation has every constraint column —
// the implicit-binding test for rules without a table qualifier.
func ruleApplies(rule *dc.Constraint, pt *FlatTable) bool {
	for _, col := range rule.Columns() {
		if !pt.Schema.Has(col) {
			return false
		}
	}
	return true
}

// evalRow evaluates the predicate over row i's cells (any-candidate
// semantics, shared with the engine through package expr).
func evalRow(pt *FlatTable, i int, pred expr.Pred) bool {
	return pred.EvalCell(func(ref expr.ColRef) *uncertain.Cell {
		return &pt.Tuples[i].Cells[pt.Schema.MustIndex(ref.Col)]
	})
}

// queryAttrs collects the unqualified attributes the query touches
// (projection ∪ where ∪ group-by — the same footprint the planner uses to
// pick overlapping rules).
func queryAttrs(q *sql.Query) map[string]bool {
	attrs := make(map[string]bool)
	for _, it := range q.Select {
		if !it.Star && it.Ref.Col != "" {
			attrs[it.Ref.Col] = true
		}
	}
	if q.Where != nil {
		for _, ref := range q.Where.Cols() {
			attrs[ref.Col] = true
		}
	}
	for _, g := range q.GroupBy {
		attrs[g.Col] = true
	}
	return attrs
}

// groupBy evaluates GROUP BY plus aggregates (or a global aggregate) over
// the cleaned, re-qualified rows, mirroring the engine's semantics exactly:
// group keys take each probabilistic cell's representative value, groups
// order by key values, and output columns are the keys (group-by order)
// followed by the aggregate items (select order), all certain cells.
func (s *Session) groupBy(st *state, q *sql.Query, rows []int) (*Result, error) {
	pt := st.pt
	keyIdx := make([]int, len(q.GroupBy))
	for ki, k := range q.GroupBy {
		idx := pt.Schema.Index(k.Col)
		if idx < 0 {
			return nil, fmt.Errorf("oracle: unknown group key %q", k.Col)
		}
		keyIdx[ki] = idx
	}
	type group struct {
		keyVals []value.Value
		rows    []int
	}
	groups := make(map[value.MapKey]*group)
	var order []*group
	keyBuf := make([]value.Value, len(q.GroupBy))
	for _, r := range rows {
		for ki, idx := range keyIdx {
			keyBuf[ki] = pt.Tuples[r].Cells[idx].Value()
		}
		key := value.MapKeyOf(keyBuf...)
		g, ok := groups[key]
		if !ok {
			g = &group{keyVals: append([]value.Value(nil), keyBuf...)}
			groups[key] = g
			order = append(order, g)
		}
		g.rows = append(g.rows, r)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i].keyVals, order[j].keyVals
		for k := range a {
			if c := a[k].Compare(b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})

	res := &Result{}
	for _, k := range q.GroupBy {
		res.Columns = append(res.Columns, k.Col)
	}
	for _, it := range q.Select {
		if it.Agg != sql.AggNone {
			res.Columns = append(res.Columns, it.String())
		}
	}
	for _, g := range order {
		row := make([]uncertain.Cell, 0, len(res.Columns))
		for _, v := range g.keyVals {
			row = append(row, uncertain.Certain(v))
		}
		for _, it := range q.Select {
			if it.Agg == sql.AggNone {
				continue
			}
			v, err := aggregateRows(pt, g.rows, it)
			if err != nil {
				return nil, err
			}
			row = append(row, uncertain.Certain(v))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// aggregateRows computes one aggregate the naive way: materialize the
// group's non-null representative values first, then fold each aggregate in
// its own dedicated pass. Deliberately NOT the engine's shape (one fused
// loop maintaining count/sum/min/max simultaneously): the semantics are
// specified identically — COUNT(*) counts rows, other aggregates skip null
// representatives, SUM/AVG accumulate numeric values as floats, MIN/MAX
// compare with value order — but a structural bug in either fold (e.g. a
// count incremented before the null skip) now shows up as a differential
// divergence instead of being mirrored.
func aggregateRows(pt *FlatTable, rows []int, it sql.SelectItem) (value.Value, error) {
	if it.Agg == sql.AggCount && it.Star {
		return value.NewInt(int64(len(rows))), nil
	}
	idx := pt.Schema.Index(it.Ref.Col)
	if idx < 0 {
		return value.Value{}, fmt.Errorf("oracle: unknown aggregate column %q", it.Ref.Col)
	}
	var vals []value.Value
	for _, r := range rows {
		if v := pt.Tuples[r].Cells[idx].Value(); !v.IsNull() {
			vals = append(vals, v)
		}
	}
	sum := func() float64 {
		total := 0.0
		for _, v := range vals {
			if v.IsNumeric() {
				total += v.Float()
			}
		}
		return total
	}
	switch it.Agg {
	case sql.AggCount:
		return value.NewInt(int64(len(vals))), nil
	case sql.AggSum:
		return value.NewFloat(sum()), nil
	case sql.AggAvg:
		if len(vals) == 0 {
			return value.NewNull(), nil
		}
		return value.NewFloat(sum() / float64(len(vals))), nil
	case sql.AggMin:
		best := value.NewNull()
		for _, v := range vals {
			if best.IsNull() || v.Less(best) {
				best = v
			}
		}
		return best, nil
	case sql.AggMax:
		best := value.NewNull()
		for _, v := range vals {
			if best.IsNull() || best.Less(v) {
				best = v
			}
		}
		return best, nil
	}
	return value.Value{}, fmt.Errorf("oracle: unsupported aggregate %v", it.Agg)
}

// ---- FD cleaning, the naive way -----------------------------------------

// origKey builds a composite key over original values of the given columns.
func origKey(pt *FlatTable, row int, cols []int) value.MapKey {
	if len(cols) == 1 {
		return pt.Tuples[row].Cells[cols[0]].Orig.MapKey()
	}
	vals := make([]value.Value, len(cols))
	for i, c := range cols {
		vals[i] = pt.Tuples[row].Cells[c].Orig
	}
	return value.MapKeyOf(vals...)
}

func colIndexes(pt *FlatTable, names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = pt.Schema.MustIndex(n)
	}
	return out
}

// cleanFD is Algorithm 1 by direct interpretation: scan-derived dirty
// groups, scan-based relaxation, frequency repairs recomputed from scratch.
func (s *Session) cleanFD(st *state, rule string, fd dc.FDSpec, rows []int, pred expr.Pred) []int {
	pt := st.pt
	lhsIdx := colIndexes(pt, fd.LHS)
	rhsIdx := pt.Schema.MustIndex(fd.RHS)
	checked := st.checkedGroups[rule]
	if checked == nil {
		checked = make(map[value.MapKey]bool)
		st.checkedGroups[rule] = checked
	}

	// Violating groups, re-derived by a full scan (no index, no stats).
	members := make(map[value.MapKey][]int)
	distinctRHS := make(map[value.MapKey]map[value.MapKey]bool)
	var groupOrder []value.MapKey
	for i := 0; i < pt.Len(); i++ {
		k := origKey(pt, i, lhsIdx)
		if _, ok := members[k]; !ok {
			groupOrder = append(groupOrder, k)
			distinctRHS[k] = make(map[value.MapKey]bool)
		}
		members[k] = append(members[k], i)
		distinctRHS[k][pt.Tuples[i].Cells[rhsIdx].Orig.MapKey()] = true
	}
	violating := func(k value.MapKey) bool { return len(distinctRHS[k]) > 1 }

	// Scope: result rows in violating, unchecked groups.
	var scope []int
	for _, r := range rows {
		k := origKey(pt, r, lhsIdx)
		if violating(k) && !checked[k] {
			scope = append(scope, r)
		}
	}
	if len(scope) == 0 {
		return nil
	}

	if s.strategy == Full {
		// Clean every remaining violating group in one pass. The same-rhs
		// support pass gives P(lhs|rhs) the relation-wide rhs-partner set the
		// engine reads off its group index, on every path, so full and
		// incremental cleaning repair a group to identical bytes.
		var full []int
		for _, k := range groupOrder {
			if violating(k) && !checked[k] {
				full = append(full, members[k]...)
			}
		}
		s.repairFD(st, full, s.relax(pt, full, lhsIdx, rhsIdx, false), lhsIdx, rhsIdx, fd)
		for _, r := range full {
			checked[origKey(pt, r, lhsIdx)] = true
		}
		// Extras: remaining members of the result's dirty groups.
		return partners(pt, scope, rows, lhsIdx, members)
	}

	// Relaxation (Algorithm 1): one pass suffices unless the filter touches
	// an lhs attribute (Lemma 1 vs Lemma 2).
	transitive := false
	if pred != nil {
		names := expr.ColNames(pred)
		for _, l := range fd.LHS {
			if names[l] {
				transitive = true
			}
		}
	}
	extra := s.relax(pt, scope, lhsIdx, rhsIdx, transitive)
	// Groups are repaired whole and once: every unchecked group the relaxed
	// result meets is fixed in full, and rows of already-checked groups
	// (re-entered through relaxation) are not re-fixed. The same-rhs support
	// pass supplies the rest of every distribution.
	var fix []int
	for _, r := range append(append([]int(nil), scope...), extra...) {
		k := origKey(pt, r, lhsIdx)
		if checked[k] {
			continue
		}
		checked[k] = true
		fix = append(fix, members[k]...)
	}
	s.repairFD(st, fix, s.relax(pt, fix, lhsIdx, rhsIdx, false), lhsIdx, rhsIdx, fd)
	return extra
}

// relax adds the rows outside seed sharing an lhs group or rhs value with a
// seed row, by scanning the relation; transitive repeats to fixpoint.
func (s *Session) relax(pt *FlatTable, seed []int, lhsIdx []int, rhsIdx int, transitive bool) []int {
	in := make(map[int]bool, len(seed))
	lhsSeen := make(map[value.MapKey]bool)
	rhsSeen := make(map[value.MapKey]bool)
	for _, r := range seed {
		in[r] = true
		lhsSeen[origKey(pt, r, lhsIdx)] = true
		rhsSeen[pt.Tuples[r].Cells[rhsIdx].Orig.MapKey()] = true
	}
	var total []int
	for {
		var added []int
		for i := 0; i < pt.Len(); i++ {
			if in[i] {
				continue
			}
			if lhsSeen[origKey(pt, i, lhsIdx)] || rhsSeen[pt.Tuples[i].Cells[rhsIdx].Orig.MapKey()] {
				added = append(added, i)
			}
		}
		if len(added) == 0 {
			break
		}
		for _, i := range added {
			in[i] = true
			lhsSeen[origKey(pt, i, lhsIdx)] = true
			rhsSeen[pt.Tuples[i].Cells[rhsIdx].Orig.MapKey()] = true
		}
		total = append(total, added...)
		if !transitive {
			break
		}
	}
	sort.Ints(total)
	return total
}

// partners returns members of the scope rows' groups outside the result.
func partners(pt *FlatTable, scope, rows []int, lhsIdx []int, members map[value.MapKey][]int) []int {
	inResult := make(map[int]bool, len(rows))
	for _, r := range rows {
		inResult[r] = true
	}
	want := make(map[value.MapKey]bool)
	var extra []int
	for _, r := range scope {
		k := origKey(pt, r, lhsIdx)
		if want[k] {
			continue
		}
		want[k] = true
		for _, i := range members[k] {
			if !inResult[i] {
				extra = append(extra, i)
			}
		}
	}
	sort.Ints(extra)
	return extra
}

// repairFD recomputes the paper's frequency-based fixes from scratch over
// scope ∪ support: P(rhs|lhs) over each violating group, and (single-lhs
// only) P(lhs|rhs) over the rows sharing the tuple's rhs value. scope rows
// receive fixes; support rows only contribute to the distributions.
func (s *Session) repairFD(st *state, scope, support []int, lhsIdx []int, rhsIdx int, fd dc.FDSpec) {
	pt := st.pt
	all := append(append([]int(nil), scope...), support...)
	inScope := make(map[int]bool, len(scope))
	for _, r := range scope {
		inScope[r] = true
	}

	// Group the consulted rows by lhs; tally rhs values per group.
	groupRows := make(map[value.MapKey][]int)
	for _, r := range all {
		k := origKey(pt, r, lhsIdx)
		groupRows[k] = append(groupRows[k], r)
	}

	delta := ptable.NewDelta(pt.Name)
	lhsDist := make(map[value.MapKey][]uncertain.Candidate) // per rhs value
	for _, rowsOf := range groupRows {
		rhsCounts := make(map[value.MapKey]int)
		rhsVals := make(map[value.MapKey]value.Value)
		for _, r := range rowsOf {
			v := pt.Tuples[r].Cells[rhsIdx].Orig
			rhsCounts[v.MapKey()]++
			rhsVals[v.MapKey()] = v
		}
		if len(rhsCounts) < 2 {
			continue // clean group
		}
		total := 0
		for _, c := range rhsCounts {
			total += c
		}
		cands := make([]uncertain.Candidate, 0, len(rhsCounts))
		for _, v := range sortedValues(rhsVals) {
			c := rhsCounts[v.MapKey()]
			cands = append(cands, uncertain.Candidate{
				Val: v, Prob: float64(c) / float64(total), World: 2, Support: c,
			})
		}
		for _, r := range rowsOf {
			if !inScope[r] {
				continue
			}
			delta.Set(pt.Tuples[r].ID, rhsIdx,
				uncertain.Cell{Orig: pt.Tuples[r].Cells[rhsIdx].Orig, Candidates: cands})
			if len(fd.LHS) != 1 {
				continue
			}
			// P(lhs | rhs): distribution of lhs values among consulted rows
			// sharing this tuple's rhs value.
			rk := pt.Tuples[r].Cells[rhsIdx].Orig.MapKey()
			lc, ok := lhsDist[rk]
			if !ok {
				counts := make(map[value.MapKey]int)
				vals := make(map[value.MapKey]value.Value)
				for _, p := range all {
					if pt.Tuples[p].Cells[rhsIdx].Orig.MapKey() != rk {
						continue
					}
					lv := pt.Tuples[p].Cells[lhsIdx[0]].Orig
					counts[lv.MapKey()]++
					vals[lv.MapKey()] = lv
				}
				if len(counts) >= 2 {
					lt := 0
					for _, c := range counts {
						lt += c
					}
					for _, lv := range sortedValues(vals) {
						lc = append(lc, uncertain.Candidate{
							Val: lv, Prob: float64(counts[lv.MapKey()]) / float64(lt),
							World: 1, Support: counts[lv.MapKey()],
						})
					}
				}
				lhsDist[rk] = lc
			}
			if len(lc) >= 2 {
				delta.Set(pt.Tuples[r].ID, lhsIdx[0],
					uncertain.Cell{Orig: pt.Tuples[r].Cells[lhsIdx[0]].Orig, Candidates: lc})
			}
		}
	}
	pt.Apply(delta)
}

func sortedValues(m map[value.MapKey]value.Value) []value.Value {
	out := make([]value.Value, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// ---- General-DC cleaning, the naive way ---------------------------------

// cleanDC checks the unchecked result tuples against all unchecked tuples
// with a quadratic nested loop (the theta-join without its matrix), applies
// inversion-range fixes, and marks the delta checked.
func (s *Session) cleanDC(st *state, rule *dc.Constraint, rows []int) []int {
	pt := st.pt
	checked := st.checkedTuples[rule.Name]
	if checked == nil {
		checked = make(map[int64]bool)
		st.checkedTuples[rule.Name] = checked
	}
	inResult := make(map[int]bool, len(rows))
	for _, r := range rows {
		inResult[r] = true
	}
	var delta, rest []int
	for i := 0; i < pt.Len(); i++ {
		if checked[pt.Tuples[i].ID] {
			continue
		}
		switch {
		case s.strategy == Full || inResult[i]:
			delta = append(delta, i)
		default:
			rest = append(rest, i)
		}
	}
	if len(delta) == 0 {
		return nil
	}

	pairs := naivePairs(pt, rule, delta, rest)
	s.applyDCFixes(st, rule, pairs)
	for _, d := range delta {
		checked[pt.Tuples[d].ID] = true
	}

	// Extras: conflict partners outside the result.
	seen := make(map[int]bool)
	var extra []int
	for _, p := range pairs {
		for _, id := range []int64{p.t1, p.t2} {
			pos, ok := pt.Pos(id)
			if !ok || inResult[pos] || seen[pos] {
				continue
			}
			seen[pos] = true
			extra = append(extra, pos)
		}
	}
	sort.Ints(extra)
	return extra
}

type pair struct{ t1, t2 int64 }

// naivePairs enumerates violating pairs over (delta × rest, both
// orientations) plus (delta × delta), preferring the forward orientation
// for each unordered pair — the same emission rule as the partitioned
// theta-join, minus the partitioning. Rows order by the constraint's
// primary attribute, as the matrix axes do.
func naivePairs(pt *FlatTable, rule *dc.Constraint, delta, rest []int) []pair {
	primary := pt.Schema.MustIndex(rule.Atoms[0].LeftCol)
	byPrimary := func(idx []int) []int {
		out := append([]int(nil), idx...)
		sort.SliceStable(out, func(a, b int) bool {
			return pt.Tuples[out[a]].Cells[primary].Orig.Less(pt.Tuples[out[b]].Cells[primary].Orig)
		})
		return out
	}
	violates := func(t1, t2 int) bool {
		return rule.Violates(func(tuple int, col string) value.Value {
			r := t1
			if tuple == 2 {
				r = t2
			}
			return pt.Tuples[r].Cells[pt.Schema.MustIndex(col)].Orig
		})
	}
	var out []pair
	d := byPrimary(delta)
	r := byPrimary(rest)
	for _, i := range d {
		for _, j := range r {
			if violates(i, j) {
				out = append(out, pair{pt.Tuples[i].ID, pt.Tuples[j].ID})
			} else if violates(j, i) {
				out = append(out, pair{pt.Tuples[j].ID, pt.Tuples[i].ID})
			}
		}
	}
	for a := 0; a < len(d); a++ {
		for b := a + 1; b < len(d); b++ {
			i, j := d[a], d[b]
			if violates(i, j) {
				out = append(out, pair{pt.Tuples[i].ID, pt.Tuples[j].ID})
			} else if violates(j, i) {
				out = append(out, pair{pt.Tuples[j].ID, pt.Tuples[i].ID})
			}
		}
	}
	return out
}

// applyDCFixes gives each cell touched by a violating pair its original
// value plus the distinct atom-inverting candidate ranges, 1/(k+1)
// probability each (Example 5). The keep-original candidate carries no
// support, so a cell the query already fixed takes the union of its old and
// new ranges when the delta merges — the fixes of a set of pairs, however the
// queries batched them.
func (s *Session) applyDCFixes(st *state, rule *dc.Constraint, pairs []pair) {
	pt := st.pt
	delta := ptable.NewDelta(pt.Name)
	for _, p := range pairs {
		p1, ok1 := pt.Pos(p.t1)
		p2, ok2 := pt.Pos(p.t2)
		if !ok1 || !ok2 {
			continue
		}
		rowOf := func(tuple int) int {
			if tuple == 1 {
				return p1
			}
			return p2
		}
		world := 0
		for _, at := range rule.Atoms {
			world++
			left := rowOf(at.LeftTuple)
			right := rowOf(at.RightTuple)
			lCol := pt.Schema.MustIndex(at.LeftCol)
			rCol := pt.Schema.MustIndex(at.RightCol)
			addRange(delta, pt, left, lCol, at.Op.Negate(),
				pt.Tuples[right].Cells[rCol].Orig, world)
			addRange(delta, pt, right, rCol, mirrorOp(at.Op.Negate()),
				pt.Tuples[left].Cells[lCol].Orig, world)
		}
	}
	// Weight: keep-original plus k distinct ranges share mass evenly.
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
	pt.Apply(delta)
}

func addRange(delta *ptable.Delta, pt *FlatTable, row, col int, op dc.Op, bound value.Value, world int) {
	id := pt.Tuples[row].ID
	cell, _ := delta.Get(id, col)
	if len(cell.Candidates) == 0 {
		cell.Orig = pt.Tuples[row].Cells[col].Orig
		cell.Candidates = []uncertain.Candidate{{Val: cell.Orig, Prob: 0.5, World: 0}}
	}
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

func mirrorOp(op dc.Op) dc.Op {
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
	return op
}
