// Package thetajoin implements the partitioned self theta-join used to
// detect general denial-constraint violations (§4.2). Following Okcan &
// Riedewald's matrix framework, the cartesian product is mapped to a matrix
// whose axes are the relation sorted on the constraint's primary attribute;
// the matrix splits into p roughly uniform partitions whose boundary ranges
// prune the block pairs that cannot hold a violation, and every pair of a
// qualifying block pair is checked. Qualifying block pairs are independent,
// so they fan out across a worker pool and merge back in enumeration order —
// the output is byte-identical to the sequential scan.
//
// Detection runs on an Index, built once per relation and constraint: every
// column the constraint references is decoded into dense int32 ranks of one
// shared domain, and the rows are sorted on the primary rank. A detection
// then pays only for filtering that order into its two axes and enumerating
// pairs over flat rank slices. The incremental form checks only the
// sub-matrix (query result × unseen data), reproducing the paper's partial
// theta-join; EstimateErrors reproduces Algorithm 2's per-range violation
// estimates from partition-boundary overlap.
package thetajoin

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/trace"
	"daisy/internal/value"
)

// Partitions is the number of roughly uniform partitions the matrix splits
// into, for detection and for Algorithm 2's range estimates alike.
const Partitions = 64

// Pair is one violating tuple pair: the assignment t1=T1, t2=T2 satisfies
// every atom of the constraint.
type Pair struct {
	T1, T2 int64
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

// compile resolves the constraint's columns once. The primary attribute both
// matrix axes sort on is the first atom's left column (the paper focuses on
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
// decoded into int32 ranks in that order. Ranks are dense under
// value.Compare over one domain shared by all referenced columns, so a
// cross-column atom (t1.A<t2.B) compares ranks exactly as it would compare
// values; NULL is rank 0, below every value, as Compare orders it. An Index
// reads original values only, so it stays valid for every cleaned state of
// the relation it was built from. It is immutable and safe for concurrent
// use.
//
// Ranks reproduce value comparisons only where value.Compare is a total
// order. NaN is not ordered by it (it compares equal to every number), so on
// data holding NaN detection is still deterministic — the same for every
// worker count — but need not match a value-by-value scan.
type Index struct {
	cc    compiled
	order []int32   // row positions sorted by (primary rank, position)
	ids   []int64   // tuple IDs, in order
	ranks [][]int32 // canonical column position → ranks, in order
}

// NewIndex builds the index of the view under c: one read of each referenced
// column (in segment-sized runs when the view is a detect.ColScanner) and
// two sorts. It panics when the view lacks a column the constraint names.
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
	ix := &Index{cc: cc, order: order, ids: make([]int64, n), ranks: make([][]int32, len(cc.cols))}
	byPos := make([]int64, n)
	for i := range byPos {
		byPos[i] = v.ID(i)
	}
	for k, pos := range order {
		ix.ids[k] = byPos[pos]
	}
	sorted := make([]int32, n*len(cc.cols))
	for c := range cc.cols {
		col, dst := rank[c*n:(c+1)*n], sorted[c*n:(c+1)*n]
		for k, pos := range order {
			dst[k] = col[pos]
		}
		ix.ranks[c] = dst
	}
	return ix
}

// axis is one side of the matrix: rows in (primary rank, position) order,
// as tuple IDs plus one rank slice per canonical column.
type axis struct {
	ids  []int64
	cols [][]int32
}

func (a *axis) len() int { return len(a.ids) }

// full is the axis over every indexed row; it shares the index's slices.
func (ix *Index) full() axis { return axis{ids: ix.ids, cols: ix.ranks} }

// axes filters the index order into the delta and rest axes in one walk.
// Both keep the index order, so ties on the primary rank break by position
// whatever order the caller listed the positions in.
func (ix *Index) axes(delta, rest []int) (d, r axis) {
	const inDelta, inRest = 1, 2
	mark := make([]uint8, len(ix.order))
	for _, pos := range delta {
		mark[pos] = inDelta
	}
	for _, pos := range rest {
		mark[pos] = inRest
	}
	d, r = ix.newAxis(len(delta)), ix.newAxis(len(rest))
	for k, pos := range ix.order {
		switch mark[pos] {
		case inDelta:
			d.push(ix, k)
		case inRest:
			r.push(ix, k)
		}
	}
	return d, r
}

func (ix *Index) newAxis(capacity int) axis {
	a := axis{ids: make([]int64, 0, capacity), cols: make([][]int32, len(ix.ranks))}
	for c := range a.cols {
		a.cols[c] = make([]int32, 0, capacity)
	}
	return a
}

// push appends the row at index order k.
func (a *axis) push(ix *Index, k int) {
	a.ids = append(a.ids, ix.ids[k])
	for c := range a.cols {
		a.cols[c] = append(a.cols[c], ix.ranks[c][k])
	}
}

// block is one axis segment with per-column rank bounds, indexed by
// canonical column position.
type block struct {
	lo, hi   int // [lo, hi) positions into the axis
	min, max []int32
}

// blocksOf splits an axis into ~sqrt(p) blocks (at least 1 row each).
func blocksOf(a *axis, p int) []block {
	n := a.len()
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
		hi := min(lo+size, n)
		b := block{lo: lo, hi: hi, min: make([]int32, len(a.cols)), max: make([]int32, len(a.cols))}
		for c, col := range a.cols {
			b.min[c], b.max[c] = slices.Min(col[lo:hi]), slices.Max(col[lo:hi])
		}
		out = append(out, b)
	}
	return out
}

// atomPossible reports whether the atom can hold for any pair drawn from the
// two blocks, using only boundary ranges — the partition-pruning test.
func atomPossible(at catom, left, right block) bool {
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
func atomPossible1(cc compiled, left, right block) bool {
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

// boundAtom is one atom bound to an orientation of a block pair. Each
// operand reads either the inner row's rank (lIn/rIn, indexed per pair) or
// the outer row's (lOut/rOut, loaded into lv/rv once per outer row).
type boundAtom struct {
	accept     uint8 // accepts[op]
	lIn, rIn   []int32
	lOut, rOut []int32
	lv, rv     int32
}

// bind binds the constraint's atoms with t1 on the outer axis (t1Outer) or
// on the inner one.
func bind(cc compiled, outer, inner *axis, t1Outer bool) []boundAtom {
	out := make([]boundAtom, len(cc.atoms))
	for k, at := range cc.atoms {
		b := &out[k]
		b.accept = accepts[at.op]
		if (at.leftTuple == 1) == t1Outer {
			b.lOut = outer.cols[at.left]
		} else {
			b.lIn = inner.cols[at.left]
		}
		if (at.rightTuple == 1) == t1Outer {
			b.rOut = outer.cols[at.right]
		} else {
			b.rIn = inner.cols[at.right]
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

// pairTask is one qualifying block pair: the unit of parallel work. The
// outer rows come from block lb of axis la, the inner rows from rb of ra.
type pairTask struct {
	la, ra   *axis
	lb, rb   block
	fwd, rev bool
	diag     bool // same block on both sides: scan the upper triangle only
}

// appendTask appends the task for (lb of la) × (rb of ra) unless block
// pruning rules out both orientations.
func appendTask(tasks []pairTask, cc compiled, la *axis, lb block, ra *axis, rb block, diag bool) []pairTask {
	fwd := atomPossible1(cc, lb, rb)
	rev := atomPossible1(cc, rb, lb)
	if !fwd && !rev {
		return tasks
	}
	return append(tasks, pairTask{la: la, ra: ra, lb: lb, rb: rb, fwd: fwd, rev: rev, diag: diag})
}

// ctxRowStride is how many outer rows scanTask processes between
// cancellation polls — ctx.Err() can take a shared mutex, so per-row polling
// would contend across workers in the detection hot loop.
const ctxRowStride = 64

// scanTask enumerates the violating pairs of one block pair — t1 from the
// outer row first (fwd), else from the inner row (rev) — counting
// comparisons into m (a task-local metrics bundle under parallel execution).
// A done ctx aborts between outer-row strides; the caller discards the
// partial output.
func scanTask(ctx context.Context, cc compiled, t pairTask, m *detect.Metrics) []Pair {
	la, ra := t.la, t.ra
	var fwd, rev []boundAtom
	if t.fwd {
		fwd = bind(cc, la, ra, true)
	}
	if t.rev {
		rev = bind(cc, la, ra, false)
	}
	var out []Pair
	for i := t.lb.lo; i < t.lb.hi; i++ {
		if ctx != nil && (i-t.lb.lo)%ctxRowStride == 0 && ctx.Err() != nil {
			return out
		}
		jStart := t.rb.lo
		if t.diag {
			jStart = i + 1 // upper triangle within the diagonal block
		}
		if jStart >= t.rb.hi {
			continue
		}
		m.Comparisons += int64(t.rb.hi - jStart)
		hoist(fwd, i)
		hoist(rev, i)
		for j := jStart; j < t.rb.hi; j++ {
			switch {
			case t.fwd && holds(fwd, j):
				out = append(out, Pair{T1: la.ids[i], T2: ra.ids[j]})
			case t.rev && holds(rev, j):
				out = append(out, Pair{T1: ra.ids[j], T2: la.ids[i]})
			}
		}
	}
	return out
}

// runTasks executes the block-pair tasks and concatenates their results in
// task order, so the output is identical regardless of worker count.
// workers <= 0 uses all CPUs; metrics accumulate into m. A done ctx makes
// workers skip their remaining tasks and the call return an error wrapping
// ctx.Err() — partial pair sets are never returned.
func runTasks(ctx context.Context, sp trace.Span, cc compiled, tasks []pairTask, workers int, m *detect.Metrics) ([]Pair, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		wsp := sp.Start("worker")
		var lm detect.Metrics
		var out []Pair
		for _, t := range tasks {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			out = append(out, scanTask(ctx, cc, t, &lm)...)
		}
		if m != nil {
			m.Add(lm)
		}
		if wsp.Active() {
			wsp.End(trace.Int("tasks", len(tasks)), trace.Int64("comparisons", lm.Comparisons))
		}
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		return out, nil
	}
	results := make([][]Pair, len(tasks))
	locals := make([]detect.Metrics, workers)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wsp := sp.Start("worker")
			ran := 0
			lm := &locals[w]
			for ti := range next {
				if ctx != nil && ctx.Err() != nil {
					continue
				}
				results[ti] = scanTask(ctx, cc, tasks[ti], lm)
				ran++
			}
			if wsp.Active() {
				wsp.End(trace.Int("tasks", ran), trace.Int64("comparisons", lm.Comparisons))
			}
		}(w)
	}
	for ti := range tasks {
		next <- ti
	}
	close(next)
	wg.Wait()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	var out []Pair
	for _, r := range results {
		out = append(out, r...)
	}
	if m != nil {
		for i := range locals {
			m.Add(locals[i])
		}
	}
	return out, nil
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

// Detect is DetectCtx on all CPUs, without cancellation or tracing.
func Detect(v detect.RowView, c *dc.Constraint, p int, m *detect.Metrics) []Pair {
	pairs, _ := DetectCtx(context.TODO(), trace.Span{}, v, c, p, 0, m)
	return pairs
}

// DetectCtx indexes the view and runs the full self theta-join over all of
// it; the arguments behave as in (*Index).Detect.
func DetectCtx(ctx context.Context, sp trace.Span, v detect.RowView, c *dc.Constraint, p, workers int, m *detect.Metrics) ([]Pair, error) {
	all := make([]int, v.Len())
	for i := range all {
		all[i] = i
	}
	return NewIndex(v, c).Detect(ctx, sp, all, nil, p, workers, m)
}

// Detect runs the incremental theta-join over disjoint row positions of the
// indexed view: it checks (delta × rest) in both orientations plus
// (delta × delta), never re-checking rest × rest — the already-examined
// sub-matrix. This is the paper's partial theta-join: partitioning the
// matrix subset that involves the query result and the unseen part of the
// dataset. An empty rest makes it the full self theta-join over delta, which
// examines each unordered pair once and emits its violating orientation.
//
// p controls partition granularity; workers bounds the pool (<= 0: all CPUs,
// 1: sequential) and the result is identical for every worker count. The
// block-pair loop polls ctx between tasks (and between outer rows inside a
// task) and returns an error wrapping ctx.Err() once it is done; a nil ctx
// disables the checks. Each worker records a child span under sp with its
// task and comparison counts; the zero Span disables tracing at no cost.
func (ix *Index) Detect(ctx context.Context, sp trace.Span, delta, rest []int, p, workers int, m *detect.Metrics) ([]Pair, error) {
	da, ra := ix.axes(delta, rest)
	dBlocks, rBlocks := blocksOf(&da, p), blocksOf(&ra, p)
	var tasks []pairTask
	for _, db := range dBlocks {
		for _, rb := range rBlocks {
			tasks = appendTask(tasks, ix.cc, &da, db, &ra, rb, false)
		}
	}
	for bi, lb := range dBlocks {
		for bj := bi; bj < len(dBlocks); bj++ {
			tasks = appendTask(tasks, ix.cc, &da, lb, &da, dBlocks[bj], bj == bi)
		}
	}
	return runTasks(ctx, sp, ix.cc, tasks, workers, m)
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
	ax := ix.full()
	blocks := blocksOf(&ax, p)
	primCol, prim := v.ColIndex(cc.cols[cc.primary]), ax.cols[cc.primary]
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
	fwd, rev := bind(cc, &ax, &ax, true), bind(cc, &ax, &ax, false)
	violates := func(si, sj int) bool {
		hoist(fwd, si)
		hoist(rev, si)
		return holds(fwd, sj) || holds(rev, sj)
	}
	for i, lb := range blocks {
		dirtySample := make(map[int]bool)
		// Local probe: sampled rows against their axis neighbours — catches
		// the dense short-range inversions that block-boundary overlap
		// cannot see.
		for _, si := range samples[i] {
			for d := -2; d <= 2; d++ {
				sj := si + d
				if d == 0 || sj < 0 || sj >= ax.len() {
					continue
				}
				if violates(si, sj) {
					dirtySample[si] = true
					break
				}
			}
		}
		for j, rb := range blocks {
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

// sampleRows picks up to estimateSamples evenly spaced axis positions.
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

// Support computes the paper's support metric for Algorithm 2: the fraction
// of diagonal work covered, (1+2+...+√p − unchecked)/(1+2+...+√p).
func Support(p, uncheckedPartitions int) float64 {
	sq := int(math.Sqrt(float64(p)))
	if sq < 1 {
		sq = 1
	}
	total := sq * (sq + 1) / 2
	covered := total - uncheckedPartitions
	if covered < 0 {
		covered = 0
	}
	return float64(covered) / float64(total)
}
