package core

import (
	"slices"
	"sort"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/ptable"
	"daisy/internal/repair"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

// fdIndex is the FD group index of one rule over one relation: every row's
// group anchor, the clustering of rows into lhs groups with their rhs value
// counts, the inverse rhs→rows index, and the §5.2.3 statistics read off
// them.
// newFDIndex builds it in one pass over original (provenance) values (§4.3),
// and nothing writes to it afterwards: cleaning never rewrites original
// values, so the index is a function of the registration alone and every
// epoch of it shares one index, read concurrently without synchronization.
// The index holds no reference to any PTable generation — methods that need
// cell data take a view argument — so copy-on-write applies never leave it
// pointing at a stale epoch.
type fdIndex struct {
	// anchor names each row's lhs group by the group's anchor, the position
	// of its first member. Anchors are a function of the original values, so
	// they name the same group in every epoch and across a reopen; checked
	// sets mark FD groups by them. rowRHS caches each row's rhs key.
	anchor []int32
	rowRHS []value.MapKey
	groups []*fdGroup // by anchor; nil at rows that anchor no group
	// rhsRows lists, per distinct rhs value, the rows holding it (ascending
	// row order) — the partner index Algorithm 1's relaxation probes.
	rhsRows map[value.MapKey][]int
	// vioSeg counts, per storage segment, the violating-group anchor rows
	// (first members) whose position falls in that segment; violatingScopeIn
	// skips zero-count segments wholesale instead of probing every row.
	vioSeg []int32
	// vioRow marks the rows whose lhs group violates the FD, so pruning a
	// query's rows (Fig 9) costs one slice read per row, not a group lookup.
	vioRow []bool
	stats  fdStats
}

// fdStats are the optimizer statistics of §5.2.3 for one FD over one
// relation.
type fdStats struct {
	// Groups is the number of distinct lhs groups, DirtyGroups the number of
	// violating ones.
	Groups, DirtyGroups int
	// DirtyTuples is the total number of tuples in violating groups — the ε
	// estimate of §5.2.3.
	DirtyTuples int
	// AvgCandidates estimates p: the average number of distinct rhs values
	// per violating group (the candidate-set size an erroneous cell gets).
	AvgCandidates float64
	// AvgLHSPerRHS estimates the reverse direction's candidate size: average
	// distinct lhs values per rhs value (drives the Fig 7 scenario where low
	// rhs selectivity inflates the update cost).
	AvgLHSPerRHS float64
}

// fdGroup is one lhs cluster: member row positions and the count of members
// per distinct rhs value.
type fdGroup struct {
	members []int
	rhs     map[value.MapKey]int
}

// violating reports whether the group violates the FD (≥2 distinct rhs).
func (g *fdGroup) violating() bool { return len(g.rhs) > 1 }

func newFDIndex(pt *ptable.PTable, fd dc.FDSpec) *fdIndex {
	// The build scan is single-threaded, so the view can be cursor-backed: one
	// positional decode per row instead of one per cell. Box it into the
	// interface once, not once per key call.
	var view detect.RowView = detect.NewPTableView(pt)
	cols := detect.CompileFD(view, fd)
	n := view.Len()
	ix := &fdIndex{
		anchor: make([]int32, n), rowRHS: make([]value.MapKey, n),
		groups: make([]*fdGroup, n), rhsRows: make(map[value.MapKey][]int),
		vioSeg: make([]int32, (n+ptable.SegmentSize-1)/ptable.SegmentSize),
		vioRow: make([]bool, n),
	}
	byKey := make(map[value.MapKey]*fdGroup) // lhs key → group, for the build only
	for i := 0; i < n; i++ {
		key, rhs := cols.LHSKey(view, i), cols.RHSKey(view, i)
		g, ok := byKey[key]
		if !ok {
			g = &fdGroup{rhs: make(map[value.MapKey]int, 1)}
			byKey[key] = g
			ix.groups[i] = g
		}
		g.members = append(g.members, i)
		ix.anchor[i], ix.rowRHS[i] = int32(g.members[0]), rhs
		g.rhs[rhs]++
		ix.rhsRows[rhs] = append(ix.rhsRows[rhs], i)
	}
	st := &ix.stats
	st.Groups = len(byKey)
	candidates, pairs := 0, 0
	for _, g := range ix.groups {
		if g == nil {
			continue
		}
		pairs += len(g.rhs)
		if !g.violating() {
			continue
		}
		ix.vioSeg[ptable.SegOf(g.members[0])]++
		for _, r := range g.members {
			ix.vioRow[r] = true
		}
		st.DirtyGroups++
		st.DirtyTuples += len(g.members)
		candidates += len(g.rhs)
	}
	if st.DirtyGroups > 0 {
		st.AvgCandidates = float64(candidates) / float64(st.DirtyGroups)
	}
	if len(ix.rhsRows) > 0 {
		// Σ_g (distinct rhs in g) counts each (lhs-group, rhs-value)
		// co-occurrence once — identical to summing distinct lhs per rhs.
		st.AvgLHSPerRHS = float64(pairs) / float64(len(ix.rhsRows))
	}
	return ix
}

// anchorOf returns the anchor of row i's lhs group in O(1).
func (ix *fdIndex) anchorOf(i int) int { return int(ix.anchor[i]) }

// members returns the row positions of the group with the given anchor.
func (ix *fdIndex) members(anchor int) []int { return ix.groups[anchor].members }

// violating reports whether row r's lhs group violates the FD.
func (ix *fdIndex) violating(r int) bool { return ix.vioRow[r] }

// vioSegStats reports how the segment-skip fast path sees the relation:
// skipped is the number of storage segments holding no
// violating-group anchor (skipped wholesale by violatingScopeIn), total the
// segment count. Read-only; used for trace attributes.
func (ix *fdIndex) vioSegStats() (skipped, total int) {
	for _, c := range ix.vioSeg {
		if c == 0 {
			skipped++
		}
	}
	return skipped, len(ix.vioSeg)
}

// violatingScopeIn collects the members and anchors of every violating,
// unchecked group whose first member lies in [lo, hi) — one chunk of a
// background full-clean sweep, or over [0, n) the inline full clean, in
// group (first-appearance) order. Anchoring a group at its first (lowest)
// member position assigns each group to exactly one chunk, so the union over
// a sweep's chunks equals the full range's scope at the same checked set,
// and whole-group membership keeps per-group fixes byte-identical to a
// monolithic clean. Storage segments whose vioSeg count is zero hold no
// violating-group anchors at all and are skipped wholesale — on a mostly
// clean relation the scan touches only the dirty segments' rows. Skipping is
// valid for any [lo, hi): a zero count means no anchor anywhere in the
// segment, including a partial overlap. Read-only over the index; safe for
// concurrent snapshot readers.
func (ix *fdIndex) violatingScopeIn(lo, hi int, checked *posSet) (scope, anchors []int) {
	hi = min(hi, len(ix.anchor))
	for r := lo; r < hi; {
		s := ptable.SegOf(r)
		if ix.vioSeg[s] == 0 {
			r = (s + 1) * ptable.SegmentSize
			continue
		}
		segEnd := (s + 1) * ptable.SegmentSize
		if segEnd > hi {
			segEnd = hi
		}
		for ; r < segEnd; r++ {
			if ix.anchorOf(r) != r || !ix.vioRow[r] || checked.has(r) {
				continue // not this group's anchor row, or nothing to clean
			}
			anchors = append(anchors, r)
			scope = append(scope, ix.members(r)...)
		}
	}
	return scope, anchors
}

// relax is Algorithm 1 over the group index: the rows outside seed that
// share an lhs group or an rhs value with a seed row. transitive widens the
// frontier with each addition until fixpoint (Lemma 2); otherwise a single
// expansion suffices (Lemma 1). Extras return in ascending row order.
// Metrics count the rows the index reads (Scanned) and the additions
// (Relaxed) — the same work notions as the scan-based relax package, minus
// the avoided full-table scans. relax only reads the index, so any number
// of snapshot readers may call it concurrently.
func (ix *fdIndex) relax(seed []int, transitive bool, m *detect.Metrics) []int {
	var in posSet      // seed ∪ already-added rows
	var lhsSeen posSet // anchors of the groups already expanded
	for _, r := range seed {
		in.add(r)
	}
	rhsSeen := make(map[value.MapKey]bool)
	var extra []int
	frontier := seed
	for len(frontier) > 0 {
		var next []int
		for _, r := range frontier {
			a, rk := ix.anchorOf(r), ix.rowRHS[r]
			if lhsSeen.add(a) {
				for _, p := range ix.members(a) {
					if m != nil {
						m.Scanned++
					}
					if in.add(p) {
						next = append(next, p)
					}
				}
			}
			if !rhsSeen[rk] {
				rhsSeen[rk] = true
				for _, p := range ix.rhsRows[rk] {
					if m != nil {
						m.Scanned++
					}
					if in.add(p) {
						next = append(next, p)
					}
				}
			}
		}
		if len(next) == 0 {
			break
		}
		extra = append(extra, next...)
		if m != nil {
			m.Relaxed += int64(len(next))
		}
		if !transitive {
			break
		}
		frontier = next
	}
	sort.Ints(extra)
	return extra
}

// repair computes the §4.1 candidate fixes of the fix rows straight off the
// index, whose groups and rhs-partner lists are exactly the two frequency
// distributions the fixes need. A fix row in a violating group gets
// P(rhs|lhs) over its whole lhs group and, for a single-attribute lhs,
// P(lhs|rhs) over every row sharing its rhs value when that names two or
// more lhs values (a multi-attribute lhs fix would need a joint distribution;
// the paper's examples and workloads fix single lhs attributes). Rows in
// clean groups get nothing. Each distribution is computed once per key and
// shared by every cell it fixes (Merge copies before mutating). view supplies
// original values and the delta's column positions; fix and the delta's keys
// are row positions. The fixes are a function of original values alone, so a
// group gets identical bytes whichever path — incremental, inline full clean
// or sweep chunk — fixes it.
func (ix *fdIndex) repair(view detect.RowView, fix []int, fd dc.FDSpec, m *detect.Metrics) *ptable.Delta {
	if m == nil {
		m = new(detect.Metrics)
	}
	cols := detect.CompileFD(view, fd)
	lhsCol := -1
	if len(cols.LHS) == 1 {
		lhsCol = cols.LHS[0]
	}
	var rhsTally fdTally[value.MapKey]
	var lhsTally fdTally[int32]
	rhsDist := make(map[int32][]uncertain.Candidate) // by anchor
	lhsDist := make(map[value.MapKey][]uncertain.Candidate)
	delta := ptable.NewDelta("")
	for _, r := range fix {
		if !ix.vioRow[r] {
			continue
		}
		id := int64(r)
		a := ix.anchor[r]
		cands, ok := rhsDist[a]
		if !ok {
			members := ix.groups[a].members
			cands = rhsTally.distribution(view, members, ix.rowRHS, cols.RHS, repair.WorldFixRHS)
			rhsDist[a] = cands
			m.Scanned += int64(len(members))
		}
		delta.Set(id, cols.RHS, uncertain.Cell{Orig: view.ValueAt(r, cols.RHS), Candidates: cands})
		m.Repairs++
		if lhsCol < 0 {
			continue
		}
		rk := ix.rowRHS[r]
		cands, ok = lhsDist[rk]
		if !ok {
			partners := ix.rhsRows[rk]
			cands = lhsTally.distribution(view, partners, ix.anchor, lhsCol, repair.WorldFixLHS)
			lhsDist[rk] = cands
			m.Scanned += int64(len(partners))
		}
		if cands == nil {
			continue // lhs is unambiguous; keep it certain
		}
		delta.Set(id, lhsCol, uncertain.Cell{Orig: view.ValueAt(r, lhsCol), Candidates: cands})
		m.Repairs++
	}
	return delta
}

// tallySpill is the distinct-key count past which an fdTally switches from
// linear probing to a map index.
const tallySpill = 8

// fdTally counts the distinct keys over a row list: rhs keys over a group's
// members, or group anchors over an rhs value's partners. Distinct counts are
// small (the candidate-set size p), so lookups probe a slice linearly; past
// tallySpill keys they go through a map, so a degenerate group never costs
// quadratic work. One tally is reused across distributions.
type fdTally[K comparable] struct {
	entries []tallyEntry[K]
	idx     map[K]int
}

// tallyEntry is one distinct key: its first row in list order, which
// represents the key's value, and its row count.
type tallyEntry[K comparable] struct {
	key K
	row int
	n   int
	val value.Value
}

func (t *fdTally[K]) add(key K, row int) {
	if t.idx != nil {
		if i, ok := t.idx[key]; ok {
			t.entries[i].n++
			return
		}
		t.idx[key] = len(t.entries)
		t.entries = append(t.entries, tallyEntry[K]{key: key, row: row, n: 1})
		return
	}
	for i := range t.entries {
		if t.entries[i].key == key {
			t.entries[i].n++
			return
		}
	}
	t.entries = append(t.entries, tallyEntry[K]{key: key, row: row, n: 1})
	if len(t.entries) > tallySpill {
		t.idx = make(map[K]int, len(t.entries))
		for i := range t.entries {
			t.idx[t.entries[i].key] = i
		}
	}
}

// distribution tallies keys[r] over rows and emits the frequency
// distribution of column col as candidates of the given world, in value
// order (stable, so equal values keep first-appearance order). It returns
// nil when the rows hold fewer than two distinct keys.
func (t *fdTally[K]) distribution(view detect.RowView, rows []int, keys []K, col, world int) []uncertain.Candidate {
	t.entries, t.idx = t.entries[:0], nil
	for _, r := range rows {
		t.add(keys[r], r)
	}
	if len(t.entries) < 2 {
		return nil
	}
	for i := range t.entries {
		t.entries[i].val = view.ValueAt(t.entries[i].row, col)
	}
	slices.SortStableFunc(t.entries, func(a, b tallyEntry[K]) int { return a.val.Compare(b.val) })
	cands := make([]uncertain.Candidate, len(t.entries))
	for i, e := range t.entries {
		cands[i] = uncertain.Candidate{
			Val: e.val, Prob: float64(e.n) / float64(len(rows)),
			World: world, Support: e.n,
		}
	}
	return cands
}

// estimateExtras projects the relaxation size for the cost model from the
// index statistics: each dirty tuple pulls in its group partners.
func (ix *fdIndex) estimateExtras(epsi int) int {
	if ix.stats.DirtyGroups == 0 {
		return epsi
	}
	avgGroup := float64(ix.stats.DirtyTuples) / float64(ix.stats.DirtyGroups)
	return int(float64(epsi) * avgGroup)
}

// boundFDIndexes returns the group index of every FD rule bound to st,
// building any that is missing.
func boundFDIndexes(st *tableState) []*fdIndex {
	var out []*fdIndex
	for _, c := range st.rules {
		if fd, isFD := c.AsFD(); isFD {
			out = append(out, st.reg.fdIndex(st.pt, c.Name, fd))
		}
	}
	return out
}

// costEpsilon estimates the erroneous tuples ε that seed a registration's
// §5.2.3 cost model: the dirty tuples of every bound FD rule. General DCs get
// their error estimates from the rank index at query time (Algorithm 2).
func costEpsilon(st *tableState) int {
	e := 0
	for _, ix := range boundFDIndexes(st) {
		e += ix.stats.DirtyTuples
	}
	return e
}

// costP estimates the candidate-set size p (≥1) across the bound FD rules.
// Both fix directions contribute: rhs candidates per dirty group and lhs
// candidates per rhs value — the latter is what explodes when the rhs has low
// selectivity (each violating suppkey matches many orderkeys, the Fig 7
// scenario), inflating the incremental update cost.
func costP(st *tableState) float64 {
	p := 1.0
	for _, ix := range boundFDIndexes(st) {
		p = max(p, ix.stats.AvgCandidates, ix.stats.AvgLHSPerRHS)
	}
	return p
}
