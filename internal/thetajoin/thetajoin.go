// Package thetajoin implements the self theta-join used to detect general
// denial-constraint violations (§4.2).
//
// Detection runs on an Index, built once per relation and constraint: every
// column the constraint references is decoded into dense int32 ranks of one
// shared domain, the rows are sorted on the primary rank, and an implicit
// binary tree over that order (the rank tree) stores each node's minimum and
// maximum rank per column. The incremental form checks only the sub-matrix
// (query result × unseen data), reproducing the paper's partial theta-join:
// each delta row descends the rank tree, skips every node whose bounds rule
// out both orientations of the constraint against the row — Okcan &
// Riedewald's partition-pruning test, applied to one row against a node — and
// is compared only with the unseen rows and later delta rows of the leaves
// it reaches. Delta rows split into contiguous chunks across a worker pool
// and merge back in order, so the output is identical for every worker count.
//
// The cost is output-sensitive where the constraint's atoms follow the
// order: on data that mostly satisfies the constraint, a delta row reaches
// only the few leaves that hold its partners. The worst case — atoms the
// order says nothing about, as on random data — compares every candidate
// pair, |delta|·|rest| + |delta|(|delta|−1)/2, plus one node test per tree
// node per delta row. EstimateErrors reproduces Algorithm 2's per-range
// violation estimates from partition-boundary overlap.
package thetajoin

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/trace"
	"daisy/internal/value"
)

// Partitions is the number of roughly uniform partitions Algorithm 2's range
// estimates split the relation into: √Partitions ranges on the primary
// attribute.
const Partitions = 64

// leafRows is how many index-order rows one leaf of the rank tree covers.
const leafRows = 32

// chunkRows is how many delta rows make one unit of parallel work; workers
// poll cancellation between chunks, since ctx.Err() can take a shared mutex.
const chunkRows = 64

// Pair is one violating tuple pair, as row positions in the detected view:
// the assignment t1=T1, t2=T2 satisfies every atom of the constraint.
type Pair struct {
	T1, T2 int
}

// compiled is a constraint with its column names resolved to positions in a
// canonical column list, so the per-pair hot path never touches a string.
type compiled struct {
	cols    []string // canonical column order (Constraint.Columns())
	primary int      // position of the sort attribute within cols
	atoms   []catom
}

// catom is one atom with column references as positions into compiled.cols.
type catom struct {
	op                    dc.Op
	leftTuple, rightTuple int
	left, right           int
}

// compile resolves the constraint's columns once. The primary attribute the
// index sorts on is the first atom's left column (the paper focuses on
// same-attribute conditions).
func compile(c *dc.Constraint) compiled {
	cc := compiled{cols: c.Columns()}
	pos := make(map[string]int, len(cc.cols))
	for i, name := range cc.cols {
		pos[name] = i
	}
	cc.primary = pos[c.Atoms[0].LeftCol]
	cc.atoms = make([]catom, len(c.Atoms))
	for i, at := range c.Atoms {
		cc.atoms[i] = catom{
			op: at.Op, leftTuple: at.LeftTuple, rightTuple: at.RightTuple,
			left: pos[at.LeftCol], right: pos[at.RightCol],
		}
	}
	return cc
}

// Index is one relation preprocessed for one constraint: its rows sorted by
// (primary rank, position), with every column the constraint references
// decoded into int32 ranks in that order, and the rank tree over that order.
// Ranks are dense under value.Compare over one domain shared by all
// referenced columns, so a cross-column atom (t1.A<t2.B) compares ranks
// exactly as it would compare values; NULL is rank 0, below every value, as
// Compare orders it. An Index reads original values only, so it stays valid
// for every cleaned state of the relation it was built from. It is immutable
// and safe for concurrent use.
//
// The rank tree is implicit: node 1 is the root, node k's children are 2k
// and 2k+1, and leaf i is node leaves+i, covering index rows
// [i·leafRows, (i+1)·leafRows). Padding leaves past the last row are empty.
// A detection descends it once per delta row (see Detect).
//
// Ranks reproduce value comparisons only where value.Compare is a total
// order. NaN is not ordered by it (it compares equal to every number), so on
// data holding NaN detection is still deterministic — the same for every
// worker count — but need not match a value-by-value scan.
type Index struct {
	cc     compiled
	order  []int32   // row positions sorted by (primary rank, position)
	at     []int32   // row position → its index in order
	ranks  [][]int32 // canonical column position → ranks, in order
	tree   []block   // the rank tree's nodes; tree[0] is unused
	leaves int       // number of leaves, a power of two
}

// NewIndex builds the index of the view under c: one read of each referenced
// column (in segment-sized runs when the view is a detect.ColScanner), two
// sorts and the rank tree. It panics when the view lacks a column the
// constraint names.
func NewIndex(v detect.RowView, c *dc.Constraint) *Index {
	cc := compile(c)
	n := v.Len()
	// Every referenced cell, column after column, ranked in one sort so that
	// all columns share the rank domain.
	vals := make([]value.Value, 0, n*len(cc.cols))
	for _, name := range cc.cols {
		idx := v.ColIndex(name)
		if idx < 0 {
			panic("thetajoin: column " + name + " not in view schema")
		}
		if sc, ok := v.(detect.ColScanner); ok {
			vals = sc.ScanCol(vals, idx, 0, n)
		} else {
			for i := 0; i < n; i++ {
				vals = append(vals, v.ValueAt(i, idx))
			}
		}
	}
	byValue := make([]int32, len(vals))
	for i := range byValue {
		byValue[i] = int32(i)
	}
	slices.SortFunc(byValue, func(a, b int32) int { return vals[a].Compare(vals[b]) })
	rank := make([]int32, len(vals))
	var r int32
	for k, cell := range byValue {
		if vals[cell].IsNull() {
			continue // rank 0
		}
		if r == 0 || vals[byValue[k-1]].Compare(vals[cell]) != 0 {
			r++
		}
		rank[cell] = r
	}

	prim := rank[cc.primary*n : (cc.primary+1)*n]
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(prim[a], prim[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	ix := &Index{cc: cc, order: order, at: make([]int32, n), ranks: make([][]int32, len(cc.cols))}
	for k, pos := range order {
		ix.at[pos] = int32(k)
	}
	sorted := make([]int32, n*len(cc.cols))
	for c := range cc.cols {
		col, dst := rank[c*n:(c+1)*n], sorted[c*n:(c+1)*n]
		for k, pos := range order {
			dst[k] = col[pos]
		}
		ix.ranks[c] = dst
	}
	ix.buildTree()
	return ix
}

// block is a run of index rows with per-column rank bounds, indexed by
// canonical column position.
type block struct {
	lo, hi   int // [lo, hi) positions into the index order
	min, max []int32
}

// buildTree fills the rank tree bottom-up: each leaf's bounds from its rows,
// each inner node's from its two children.
func (ix *Index) buildTree() {
	n, nc := len(ix.order), len(ix.ranks)
	ix.leaves = 1
	for ix.leaves*leafRows < n {
		ix.leaves *= 2
	}
	ix.tree = make([]block, 2*ix.leaves)
	bounds := make([]int32, 2*nc*len(ix.tree))
	for k := len(ix.tree) - 1; k > 0; k-- {
		b := &ix.tree[k]
		b.min, b.max = bounds[2*k*nc:(2*k+1)*nc], bounds[(2*k+1)*nc:(2*k+2)*nc]
		if k >= ix.leaves {
			b.lo = min((k-ix.leaves)*leafRows, n)
			b.hi = min(b.lo+leafRows, n)
			if b.lo < b.hi {
				ix.bound(b)
			}
			continue
		}
		l, r := &ix.tree[2*k], &ix.tree[2*k+1]
		b.lo, b.hi = l.lo, r.hi
		if r.lo == r.hi { // padding on the right: the left child's rows only
			copy(b.min, l.min)
			copy(b.max, l.max)
			continue
		}
		for c := range b.min {
			b.min[c], b.max[c] = min(l.min[c], r.min[c]), max(l.max[c], r.max[c])
		}
	}
}

// bound sets b's rank bounds from its rows, which must not be empty.
func (ix *Index) bound(b *block) {
	for c, col := range ix.ranks {
		b.min[c], b.max[c] = slices.Min(col[b.lo:b.hi]), slices.Max(col[b.lo:b.hi])
	}
}

// blocks splits the index order into ~sqrt(p) blocks (at least 1 row each).
func (ix *Index) blocks(p int) []block {
	n := len(ix.order)
	if n == 0 {
		return nil
	}
	nb := int(math.Sqrt(float64(p)))
	if nb < 1 {
		nb = 1
	}
	if nb > n {
		nb = n
	}
	size := (n + nb - 1) / nb
	var out []block
	for lo := 0; lo < n; lo += size {
		b := block{lo: lo, hi: min(lo+size, n), min: make([]int32, len(ix.ranks)), max: make([]int32, len(ix.ranks))}
		ix.bound(&b)
		out = append(out, b)
	}
	return out
}

// atomPossible reports whether the atom can hold for any pair drawn from the
// two blocks, using only boundary ranges — the partition-pruning test.
func atomPossible(at catom, left, right *block) bool {
	lmin, lmax := left.min[at.left], left.max[at.left]
	rmin, rmax := right.min[at.right], right.max[at.right]
	if lmin == 0 || rmin == 0 {
		return true // a NULL bound: cannot prune
	}
	switch at.op {
	case dc.Lt:
		return lmin < rmax
	case dc.Leq:
		return lmin <= rmax
	case dc.Gt:
		return rmin < lmax
	case dc.Geq:
		return rmin <= lmax
	case dc.Eq:
		return lmin <= rmax && rmin <= lmax
	case dc.Neq:
		return !(lmin == lmax && rmin == rmax && lmin == rmin)
	}
	return true
}

// atomPossible1 checks all atoms of the constraint between two blocks with
// (t1 ← left, t2 ← right).
func atomPossible1(cc compiled, left, right *block) bool {
	for _, at := range cc.atoms {
		lb, rb := left, right
		if at.leftTuple == 2 {
			lb = right
		}
		if at.rightTuple == 1 {
			rb = left
		}
		if !atomPossible(at, lb, rb) {
			return false
		}
	}
	return true
}

// boundAtom is one atom bound to an orientation of a row pair. Each operand
// reads either the inner row's rank (lIn/rIn, indexed per pair) or the outer
// row's (lOut/rOut, loaded into lv/rv once per outer row).
type boundAtom struct {
	accept     uint8 // accepts[op]
	lIn, rIn   []int32
	lOut, rOut []int32
	lv, rv     int32
}

// bind binds the constraint's atoms over the rank columns with t1 the outer
// row (t1Outer) or the inner one.
func bind(cc compiled, cols [][]int32, t1Outer bool) []boundAtom {
	out := make([]boundAtom, len(cc.atoms))
	for k, at := range cc.atoms {
		b := &out[k]
		b.accept = accepts[at.op]
		if (at.leftTuple == 1) == t1Outer {
			b.lOut = cols[at.left]
		} else {
			b.lIn = cols[at.left]
		}
		if (at.rightTuple == 1) == t1Outer {
			b.rOut = cols[at.right]
		} else {
			b.rIn = cols[at.right]
		}
	}
	return out
}

// hoist loads outer row i's operands.
func hoist(atoms []boundAtom, i int) {
	for k := range atoms {
		a := &atoms[k]
		if a.lOut != nil {
			a.lv = a.lOut[i]
		}
		if a.rOut != nil {
			a.rv = a.rOut[i]
		}
	}
}

// holds reports whether every atom holds between the hoisted outer row and
// inner row j.
func holds(atoms []boundAtom, j int) bool {
	for k := range atoms {
		a := &atoms[k]
		l, r := a.lv, a.rv
		if a.lIn != nil {
			l = a.lIn[j]
		}
		if a.rIn != nil {
			r = a.rIn[j]
		}
		if a.accept>>(bit(l >= r)+bit(l > r))&1 == 0 {
			return false
		}
	}
	return true
}

// bit converts a bool to 0/1 without a branch.
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// accepts maps an operator to the comparison outcomes that satisfy it: bit 0
// for l<r, bit 1 for l=r, bit 2 for l>r.
var accepts = map[dc.Op]uint8{dc.Lt: 0b001, dc.Leq: 0b011, dc.Eq: 0b010, dc.Neq: 0b101, dc.Gt: 0b100, dc.Geq: 0b110}

// Row and node membership in one detection: a row is delta or rest (or
// neither, when it was checked before), and a tree node holds the union of
// its rows' bits.
const inDelta, inRest = 1, 2

// scanner is one worker's descent state.
type scanner struct {
	ix         *Index
	mark, live []uint8 // index row → membership; tree node → union of its rows'
	k          int     // the current delta row, as its index in order
	row        block   // the current delta row as a one-row block
	fwd, rev   []boundAtom
	out        []Pair
	cmps       int64
}

// scanRow appends the violating pairs of delta row k against its candidate
// partners: every rest row and every delta row later in the order.
func (s *scanner) scanRow(k int) {
	s.k = k
	for c, col := range s.ix.ranks {
		s.row.min[c] = col[k] // row.max shares row.min
	}
	hoist(s.fwd, k)
	hoist(s.rev, k)
	s.descend(1)
}

// descend visits a tree node unless it holds no candidate partner (as the
// padding nodes past the last row never do) or its bounds rule out both
// orientations; at a leaf it compares the row with each candidate, t1 from
// the delta row first (fwd), else from the partner (rev).
func (s *scanner) descend(node int) {
	b := &s.ix.tree[node]
	if live := s.live[node]; live&inRest == 0 && (live&inDelta == 0 || b.hi <= s.k+1) {
		return
	}
	fwd, rev := atomPossible1(s.ix.cc, &s.row, b), atomPossible1(s.ix.cc, b, &s.row)
	if !fwd && !rev {
		return
	}
	if node < s.ix.leaves {
		s.descend(2 * node)
		s.descend(2*node + 1)
		return
	}
	for j := b.lo; j < b.hi; j++ {
		if mk := s.mark[j]; mk != inRest && (mk != inDelta || j <= s.k) {
			continue
		}
		s.cmps++
		switch {
		case fwd && holds(s.fwd, j):
			s.out = append(s.out, Pair{T1: int(s.ix.order[s.k]), T2: int(s.ix.order[j])})
		case rev && holds(s.rev, j):
			s.out = append(s.out, Pair{T1: int(s.ix.order[j]), T2: int(s.ix.order[s.k])})
		}
	}
}

// ctxErr polls an optional context, wrapping its error for callers.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("thetajoin: detection aborted: %w", err)
	}
	return nil
}

// Detect is DetectCtx on all CPUs, without cancellation or tracing. p is
// ignored: it remains for callers that still pass a partition count.
func Detect(v detect.RowView, c *dc.Constraint, p int, m *detect.Metrics) []Pair {
	pairs, _ := DetectCtx(context.TODO(), trace.Span{}, v, c, 0, m)
	return pairs
}

// DetectCtx indexes the view and runs the full self theta-join over all of
// it; the arguments behave as in (*Index).Detect.
func DetectCtx(ctx context.Context, sp trace.Span, v detect.RowView, c *dc.Constraint, workers int, m *detect.Metrics) ([]Pair, error) {
	all := make([]int, v.Len())
	for i := range all {
		all[i] = i
	}
	return NewIndex(v, c).Detect(ctx, sp, all, nil, workers, m)
}

// Detect runs the incremental theta-join over disjoint row positions of the
// indexed view: it checks (delta × rest) in both orientations plus
// (delta × delta), never re-checking rest × rest — the already-examined
// sub-matrix. This is the paper's partial theta-join: it covers the matrix
// subset that involves the query result and the unseen part of the dataset.
// An empty rest makes it the full self theta-join over delta, which examines
// each unordered pair once and emits its violating orientation.
//
// Each delta row, in index order, descends the rank tree and is compared
// with the rest rows and the later delta rows of the leaves it reaches; a
// pair is emitted with the delta row (or the earlier delta row) as t1 when
// that orientation violates, else reversed. Comparisons counts the pairs
// compared at leaves.
//
// workers bounds the pool (<= 0: all CPUs, 1: sequential) over chunks of
// delta rows, and the result is identical for every worker count. Workers
// poll ctx between chunks and the call returns an error wrapping ctx.Err()
// once it is done, never a partial pair set; a nil ctx disables the checks.
// Each worker records a child span under sp with its chunk (tasks) and
// comparison counts; the zero Span disables tracing at no cost.
func (ix *Index) Detect(ctx context.Context, sp trace.Span, delta, rest []int, workers int, m *detect.Metrics) ([]Pair, error) {
	mark, live := make([]uint8, len(ix.order)), make([]uint8, len(ix.tree))
	add := func(positions []int, bit uint8) {
		for _, pos := range positions {
			k := int(ix.at[pos])
			mark[k] = bit
			live[ix.leaves+k/leafRows] |= bit
		}
	}
	add(delta, inDelta)
	add(rest, inRest)
	for k := ix.leaves - 1; k > 0; k-- {
		live[k] = live[2*k] | live[2*k+1]
	}
	rows := make([]int, 0, len(delta)) // delta rows in index order
	for k, mk := range mark {
		if mk == inDelta {
			rows = append(rows, k)
		}
	}

	chunks := (len(rows) + chunkRows - 1) / chunkRows
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, chunks))
	results := make([][]Pair, chunks)
	cmps := make([]int64, workers)
	var next atomic.Int64
	work := func(w int) {
		wsp := sp.Start("worker")
		row := make([]int32, len(ix.ranks))
		s := &scanner{ix: ix, mark: mark, live: live, row: block{min: row, max: row},
			fwd: bind(ix.cc, ix.ranks, true), rev: bind(ix.cc, ix.ranks, false)}
		ran := 0
		for ci := int(next.Add(1) - 1); ci < chunks && ctxErr(ctx) == nil; ci = int(next.Add(1) - 1) {
			for _, k := range rows[ci*chunkRows : min((ci+1)*chunkRows, len(rows))] {
				s.scanRow(k)
			}
			results[ci], s.out = s.out, nil
			ran++
		}
		cmps[w] = s.cmps
		if wsp.Active() {
			wsp.End(trace.Int("tasks", ran), trace.Int64("comparisons", s.cmps))
		}
	}
	if workers == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				work(w)
			}(w)
		}
		wg.Wait()
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if m != nil {
		for _, c := range cmps {
			m.Comparisons += c
		}
	}
	return slices.Concat(results...), nil
}

// RangeEstimate is one row of Algorithm 2's range_vio table: the estimated
// number of rows of this primary-attribute range involved in at least one
// violation (row counts keep the dirtiness ratio errors/(|qa|+errors)
// dimensionally consistent with the answer size).
type RangeEstimate struct {
	Lo, Hi     value.Value // primary attribute boundary of the range
	Rows       int
	Violations float64
}

// estimateSamples bounds the evenly spaced rows sampled per block when
// estimating violation density.
const estimateSamples = 16

// EstimateErrors reproduces Estimate_Errors of Algorithm 2: split the data
// into sqrt(p) ranges on the primary attribute and, for every range pair,
// estimate the overlap conflicts by probing evenly spaced sample rows from
// each side. A sampled row that violates against any sampled partner marks
// its share of the range as dirty. v is the indexed view (or any cleaned
// state of it); it supplies the boundary values of each range.
func (ix *Index) EstimateErrors(v detect.RowView, p int) []RangeEstimate {
	cc := ix.cc
	blocks := ix.blocks(p)
	primCol, prim := v.ColIndex(cc.cols[cc.primary]), ix.ranks[cc.primary]
	valueAt := func(k int) value.Value { return v.ValueAt(int(ix.order[k]), primCol) }
	out := make([]RangeEstimate, len(blocks))
	samples := make([][]int, len(blocks))
	for i, b := range blocks {
		// The range's upper bound is the first row of its last rank run.
		top := b.hi - 1
		for top > b.lo && prim[top-1] == prim[b.hi-1] {
			top--
		}
		out[i] = RangeEstimate{Lo: valueAt(b.lo), Hi: valueAt(top), Rows: b.hi - b.lo}
		samples[i] = sampleRows(b)
	}
	// violates(si, sj) checks both orientations of the pair with si hoisted.
	fwd, rev := bind(cc, ix.ranks, true), bind(cc, ix.ranks, false)
	violates := func(si, sj int) bool {
		hoist(fwd, si)
		hoist(rev, si)
		return holds(fwd, sj) || holds(rev, sj)
	}
	for i := range blocks {
		lb := &blocks[i]
		dirtySample := make(map[int]bool)
		// Local probe: sampled rows against their index neighbours — catches
		// the dense short-range inversions that block-boundary overlap
		// cannot see.
		for _, si := range samples[i] {
			for d := -2; d <= 2; d++ {
				sj := si + d
				if d == 0 || sj < 0 || sj >= len(ix.order) {
					continue
				}
				if violates(si, sj) {
					dirtySample[si] = true
					break
				}
			}
		}
		for j := range blocks {
			rb := &blocks[j]
			if i == j {
				continue // diagonal coverage is the support metric's job
			}
			if !atomPossible1(cc, lb, rb) && !atomPossible1(cc, rb, lb) {
				continue
			}
			for _, si := range samples[i] {
				if dirtySample[si] {
					continue
				}
				for _, sj := range samples[j] {
					if violates(si, sj) {
						dirtySample[si] = true
						break
					}
				}
			}
		}
		if len(samples[i]) > 0 {
			frac := float64(len(dirtySample)) / float64(len(samples[i]))
			out[i].Violations = frac * float64(out[i].Rows)
		}
	}
	return out
}

// sampleRows picks up to estimateSamples evenly spaced index positions.
func sampleRows(b block) []int {
	n := b.hi - b.lo
	if n <= 0 {
		return nil
	}
	k := estimateSamples
	if k > n {
		k = n
	}
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, b.lo+i*n/k)
	}
	return out
}
