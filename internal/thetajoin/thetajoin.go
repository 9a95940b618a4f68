// Package thetajoin implements the partitioned self theta-join used to
// detect general denial-constraint violations (§4.2). Following Okcan &
// Riedewald's matrix framework, the cartesian product is mapped to a matrix
// whose axes are the relation sorted on the constraint's primary attribute;
// the matrix splits into p roughly uniform partitions whose boundary ranges
// prune non-qualifying blocks, and within a qualifying block the sorted
// order prunes non-qualifying pairs. Qualifying block pairs are independent,
// so they fan out across a worker pool and merge back in enumeration order —
// the output is byte-identical to the sequential scan. The incremental
// variant checks only the sub-matrix (query result × unseen data),
// reproducing the paper's partial theta-join; EstimateErrors reproduces
// Algorithm 2's per-range violation estimates from partition-boundary
// overlap.
package thetajoin

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/trace"
	"daisy/internal/value"
)

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

// axis is the relation sorted by the primary column, materialized into flat
// per-column value slices (canonical column order) plus tuple IDs. Only the
// columns the constraint references are extracted — a rule touching 2 of 12
// columns never reads the other 10 — and extraction happens once, in the
// single-threaded build; the scan workers are pure slice computation and
// never touch the view, so cursor-backed (single-goroutine) views are safe
// to pass in.
type axis struct {
	ids  []int64         // stable tuple IDs, axis order
	cols [][]value.Value // canonical column position → values, axis order
}

func buildAxis(v detect.RowView, cc compiled) axis {
	n := v.Len()
	raw := make([][]value.Value, len(cc.cols))
	for ci, name := range cc.cols {
		idx := v.ColIndex(name)
		if idx < 0 {
			panic("thetajoin: column " + name + " not in view schema")
		}
		col := make([]value.Value, 0, n)
		if sc, ok := v.(detect.ColScanner); ok {
			col = sc.ScanCol(col, idx, 0, n)
		} else {
			for i := 0; i < n; i++ {
				col = append(col, v.ValueAt(i, idx))
			}
		}
		raw[ci] = col
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	pc := raw[cc.primary]
	sort.SliceStable(idx, func(a, b int) bool { return pc[idx[a]].Less(pc[idx[b]]) })
	// Permute into axis order so the scan hot loops read contiguous memory.
	a := axis{ids: make([]int64, n), cols: make([][]value.Value, len(raw))}
	for i, r := range idx {
		a.ids[i] = v.ID(r)
	}
	for ci, col := range raw {
		sorted := make([]value.Value, n)
		for i, r := range idx {
			sorted[i] = col[r]
		}
		a.cols[ci] = sorted
	}
	return a
}

func (a axis) len() int       { return len(a.ids) }
func (a axis) id(i int) int64 { return a.ids[i] }

// valAt reads the canonical column cpos of axis row i off the flat slices.
func (a axis) valAt(i, cpos int) value.Value { return a.cols[cpos][i] }

// block is one axis segment with per-column min/max bounds, indexed by
// canonical column position.
type block struct {
	lo, hi   int // [lo, hi) positions into the axis
	min, max []value.Value
}

func newBlock(a axis, lo, hi int, nCols int) block {
	b := block{lo: lo, hi: hi, min: make([]value.Value, nCols), max: make([]value.Value, nCols)}
	for c := 0; c < nCols; c++ {
		for i := lo; i < hi; i++ {
			v := a.valAt(i, c)
			if i == lo || v.Less(b.min[c]) {
				b.min[c] = v
			}
			if i == lo || b.max[c].Less(v) {
				b.max[c] = v
			}
		}
	}
	return b
}

// atomPossible reports whether the atom can hold for any pair drawn from the
// two blocks, using only boundary ranges — the partition-pruning test.
func atomPossible(at catom, left, right block) bool {
	lmin, lmax := left.min[at.left], left.max[at.left]
	rmin, rmax := right.min[at.right], right.max[at.right]
	if lmin.IsNull() || rmin.IsNull() {
		return true // empty block bounds: cannot prune
	}
	switch at.op {
	case dc.Lt:
		return lmin.Less(rmax)
	case dc.Leq:
		return lmin.Compare(rmax) <= 0
	case dc.Gt:
		return rmin.Less(lmax)
	case dc.Geq:
		return rmin.Compare(lmax) <= 0
	case dc.Eq:
		return lmin.Compare(rmax) <= 0 && rmin.Compare(lmax) <= 0
	case dc.Neq:
		return !(lmin.Equal(lmax) && rmin.Equal(rmax) && lmin.Equal(rmin))
	}
	return true
}

// blocksOf splits an axis into ~sqrt(p) blocks (at least 1 row each).
func blocksOf(a axis, p int, cc compiled) []block {
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
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, newBlock(a, lo, hi, len(cc.cols)))
	}
	return out
}

// evalPair checks every atom for the ordered pair (left axis row i as t1,
// right axis row j as t2) using positional access only.
func evalPair(cc compiled, la, ra axis, i, j int) bool {
	for _, at := range cc.atoms {
		var lv, rv value.Value
		if at.leftTuple == 1 {
			lv = la.valAt(i, at.left)
		} else {
			lv = ra.valAt(j, at.left)
		}
		if at.rightTuple == 1 {
			rv = la.valAt(i, at.right)
		} else {
			rv = ra.valAt(j, at.right)
		}
		if !at.op.Eval(lv, rv) {
			return false
		}
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

// pairTask is one qualifying block pair: the unit of parallel work.
type pairTask struct {
	lb, rb   block
	fwd, rev bool
	diag     bool // same block on both sides: scan the upper triangle only
}

// ctxRowStride is how many outer rows scanTask processes between
// cancellation polls — ctx.Err() can take a shared mutex, so per-row polling
// would contend across workers in the detection hot loop.
const ctxRowStride = 64

// scanTask enumerates the violating pairs of one block pair, counting
// comparisons into m (a task-local metrics bundle under parallel execution).
// A done ctx aborts between outer-row strides; the caller discards the
// partial output.
func scanTask(ctx context.Context, cc compiled, la, ra axis, t pairTask, m *detect.Metrics) []Pair {
	var out []Pair
	for i := t.lb.lo; i < t.lb.hi; i++ {
		if ctx != nil && (i-t.lb.lo)%ctxRowStride == 0 && ctx.Err() != nil {
			return out
		}
		jStart := t.rb.lo
		if t.diag {
			jStart = i + 1 // upper triangle within the diagonal block
		}
		for j := jStart; j < t.rb.hi; j++ {
			if m != nil {
				m.Comparisons++
			}
			switch {
			case t.fwd && evalPair(cc, la, ra, i, j):
				out = append(out, Pair{T1: la.id(i), T2: ra.id(j)})
			case t.rev && evalPair(cc, ra, la, j, i):
				out = append(out, Pair{T1: ra.id(j), T2: la.id(i)})
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
func runTasks(ctx context.Context, sp trace.Span, cc compiled, la, ra axis, tasks []pairTask, workers int, m *detect.Metrics) ([]Pair, error) {
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
			out = append(out, scanTask(ctx, cc, la, ra, t, &lm)...)
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
				results[ti] = scanTask(ctx, cc, la, ra, tasks[ti], lm)
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

// DetectCtx runs the full self theta-join over the view, pruning the
// symmetric half of the matrix (each unordered pair is examined once; the
// violating orientation is emitted). p controls partition granularity;
// workers bounds the pool (<= 0: all CPUs, 1: sequential) and the result is
// identical for every worker count. The block-pair loop polls ctx between
// tasks (and between outer rows inside a task) and returns an error wrapping
// ctx.Err() once it is done; a nil ctx disables the checks. Each worker
// records a child span under sp with its task and comparison counts; the
// zero Span disables tracing at no cost.
func DetectCtx(ctx context.Context, sp trace.Span, v detect.RowView, c *dc.Constraint, p, workers int, m *detect.Metrics) ([]Pair, error) {
	cc := compile(c)
	ax := buildAxis(v, cc)
	blocks := blocksOf(ax, p, cc)
	var tasks []pairTask
	for bi, lb := range blocks {
		for bj := bi; bj < len(blocks); bj++ {
			rb := blocks[bj]
			fwd := atomPossible1(cc, lb, rb)
			rev := atomPossible1(cc, rb, lb)
			if !fwd && !rev {
				continue
			}
			tasks = append(tasks, pairTask{lb: lb, rb: rb, fwd: fwd, rev: rev, diag: bj == bi})
		}
	}
	return runTasks(ctx, sp, cc, ax, ax, tasks, workers, m)
}

// DetectPartial runs the incremental theta-join: it checks (delta × rest) in
// both orientations plus (delta × delta), never re-checking rest × rest —
// the already-examined sub-matrix. This is the paper's partial theta-join:
// partitioning the matrix subset that involves the query result and the
// unseen part of the dataset. ctx, sp and workers behave as in DetectCtx.
func DetectPartial(ctx context.Context, sp trace.Span, delta, rest detect.RowView, c *dc.Constraint, p, workers int, m *detect.Metrics) ([]Pair, error) {
	cc := compile(c)
	da := buildAxis(delta, cc)
	ra := buildAxis(rest, cc)
	dBlocks := blocksOf(da, p, cc)
	rBlocks := blocksOf(ra, p, cc)

	// delta × rest (both orientations, block-pruned independently).
	var tasks []pairTask
	for _, db := range dBlocks {
		for _, rb := range rBlocks {
			fwd := atomPossible1(cc, db, rb)
			rev := atomPossible1(cc, rb, db)
			if !fwd && !rev {
				continue
			}
			tasks = append(tasks, pairTask{lb: db, rb: rb, fwd: fwd, rev: rev})
		}
	}
	out, err := runTasks(ctx, sp, cc, da, ra, tasks, workers, m)
	if err != nil {
		return nil, err
	}
	// delta × delta (upper triangle).
	dd, err := DetectCtx(ctx, sp, delta, c, p, workers, m)
	if err != nil {
		return nil, err
	}
	return append(out, dd...), nil
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
// its share of the range as dirty.
func EstimateErrors(v detect.RowView, c *dc.Constraint, p int) []RangeEstimate {
	cc := compile(c)
	ax := buildAxis(v, cc)
	blocks := blocksOf(ax, p, cc)
	out := make([]RangeEstimate, len(blocks))
	samples := make([][]int, len(blocks))
	for i, b := range blocks {
		out[i] = RangeEstimate{Lo: b.min[cc.primary], Hi: b.max[cc.primary], Rows: b.hi - b.lo}
		samples[i] = sampleRows(b)
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
				if evalPair(cc, ax, ax, si, sj) || evalPair(cc, ax, ax, sj, si) {
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
					if evalPair(cc, ax, ax, si, sj) || evalPair(cc, ax, ax, sj, si) {
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
