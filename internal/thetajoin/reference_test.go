package thetajoin

import (
	"math"
	"sort"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/value"
)

// The reference kernel: the partitioned theta-join evaluated directly on
// value.Value axes that every call sorts afresh, one value comparison per
// atom per pair, sequentially. It shares compile with the rank kernel and
// nothing else; the differential tests hold the Index to its pair set —
// each pair in the reference's orientation — and to its estimates.

// refAxis is the view sorted (stably) by the primary column, materialized
// into per-column value slices plus each row's base position.
type refAxis struct {
	pos  []int // row positions in the base relation, in axis order
	cols [][]value.Value
}

// basePos maps row i of v to its position in the underlying relation: row
// Idx[i] of a SubsetView's base, row i of any other view.
func basePos(v detect.RowView, i int) int {
	if sv, ok := v.(detect.SubsetView); ok {
		return basePos(sv.Base, sv.Idx[i])
	}
	return i
}

func refBuildAxis(v detect.RowView, cc compiled) refAxis {
	n := v.Len()
	raw := make([][]value.Value, len(cc.cols))
	for ci, name := range cc.cols {
		idx := v.ColIndex(name)
		for i := 0; i < n; i++ {
			raw[ci] = append(raw[ci], v.ValueAt(i, idx))
		}
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	pc := raw[cc.primary]
	sort.SliceStable(perm, func(a, b int) bool { return pc[perm[a]].Less(pc[perm[b]]) })
	a := refAxis{pos: make([]int, n), cols: make([][]value.Value, len(raw))}
	for i, r := range perm {
		a.pos[i] = basePos(v, r)
	}
	for ci, col := range raw {
		a.cols[ci] = make([]value.Value, n)
		for i, r := range perm {
			a.cols[ci][i] = col[r]
		}
	}
	return a
}

type refBlock struct {
	lo, hi   int
	min, max []value.Value
}

func refBlocksOf(a refAxis, p int, cc compiled) []refBlock {
	n := len(a.pos)
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
	var out []refBlock
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n)
		b := refBlock{lo: lo, hi: hi, min: make([]value.Value, len(cc.cols)), max: make([]value.Value, len(cc.cols))}
		for c := range cc.cols {
			for i := lo; i < hi; i++ {
				v := a.cols[c][i]
				if i == lo || v.Less(b.min[c]) {
					b.min[c] = v
				}
				if i == lo || b.max[c].Less(v) {
					b.max[c] = v
				}
			}
		}
		out = append(out, b)
	}
	return out
}

func refAtomPossible(at catom, left, right refBlock) bool {
	lmin, lmax := left.min[at.left], left.max[at.left]
	rmin, rmax := right.min[at.right], right.max[at.right]
	if lmin.IsNull() || rmin.IsNull() {
		return true
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

func refAtomPossible1(cc compiled, left, right refBlock) bool {
	for _, at := range cc.atoms {
		lb, rb := left, right
		if at.leftTuple == 2 {
			lb = right
		}
		if at.rightTuple == 1 {
			rb = left
		}
		if !refAtomPossible(at, lb, rb) {
			return false
		}
	}
	return true
}

// refEvalPair checks every atom for t1 = la row i, t2 = ra row j.
func refEvalPair(cc compiled, la, ra refAxis, i, j int) bool {
	for _, at := range cc.atoms {
		lv, rv := ra.cols[at.left][j], ra.cols[at.right][j]
		if at.leftTuple == 1 {
			lv = la.cols[at.left][i]
		}
		if at.rightTuple == 1 {
			rv = la.cols[at.right][i]
		}
		if !at.op.Eval(lv, rv) {
			return false
		}
	}
	return true
}

// refScan enumerates the block pairs of la × ra in task order.
func refScan(cc compiled, la, ra refAxis, lBlocks, rBlocks []refBlock, self bool, m *detect.Metrics) []Pair {
	var out []Pair
	for bi, lb := range lBlocks {
		start := 0
		if self {
			start = bi
		}
		for bj := start; bj < len(rBlocks); bj++ {
			rb := rBlocks[bj]
			fwd, rev := refAtomPossible1(cc, lb, rb), refAtomPossible1(cc, rb, lb)
			if !fwd && !rev {
				continue
			}
			for i := lb.lo; i < lb.hi; i++ {
				jStart := rb.lo
				if self && bj == bi {
					jStart = i + 1
				}
				for j := jStart; j < rb.hi; j++ {
					if m != nil {
						m.Comparisons++
					}
					switch {
					case fwd && refEvalPair(cc, la, ra, i, j):
						out = append(out, Pair{T1: la.pos[i], T2: ra.pos[j]})
					case rev && refEvalPair(cc, ra, la, j, i):
						out = append(out, Pair{T1: ra.pos[j], T2: la.pos[i]})
					}
				}
			}
		}
	}
	return out
}

// refDetect is the full self theta-join over the view.
func refDetect(v detect.RowView, c *dc.Constraint, p int, m *detect.Metrics) []Pair {
	cc := compile(c)
	a := refBuildAxis(v, cc)
	blocks := refBlocksOf(a, p, cc)
	return refScan(cc, a, a, blocks, blocks, true, m)
}

// refDetectPartial is delta × rest in both orientations, then delta × delta.
func refDetectPartial(delta, rest detect.RowView, c *dc.Constraint, p int, m *detect.Metrics) []Pair {
	cc := compile(c)
	da, ra := refBuildAxis(delta, cc), refBuildAxis(rest, cc)
	out := refScan(cc, da, ra, refBlocksOf(da, p, cc), refBlocksOf(ra, p, cc), false, m)
	return append(out, refDetect(delta, c, p, m)...)
}

// refEstimateErrors is Algorithm 2's estimator over value axes.
func refEstimateErrors(v detect.RowView, c *dc.Constraint, p int) []RangeEstimate {
	cc := compile(c)
	ax := refBuildAxis(v, cc)
	blocks := refBlocksOf(ax, p, cc)
	violates := func(si, sj int) bool {
		return refEvalPair(cc, ax, ax, si, sj) || refEvalPair(cc, ax, ax, sj, si)
	}
	out := make([]RangeEstimate, len(blocks))
	samples := make([][]int, len(blocks))
	for i, b := range blocks {
		out[i] = RangeEstimate{Lo: b.min[cc.primary], Hi: b.max[cc.primary], Rows: b.hi - b.lo}
		samples[i] = sampleRows(block{lo: b.lo, hi: b.hi})
	}
	for i, lb := range blocks {
		dirty := make(map[int]bool)
		for _, si := range samples[i] {
			for d := -2; d <= 2; d++ {
				sj := si + d
				if d != 0 && sj >= 0 && sj < len(ax.pos) && violates(si, sj) {
					dirty[si] = true
					break
				}
			}
		}
		for j, rb := range blocks {
			if i == j || (!refAtomPossible1(cc, lb, rb) && !refAtomPossible1(cc, rb, lb)) {
				continue
			}
			for _, si := range samples[i] {
				for _, sj := range samples[j] {
					if !dirty[si] && violates(si, sj) {
						dirty[si] = true
						break
					}
				}
			}
		}
		if len(samples[i]) > 0 {
			out[i].Violations = float64(len(dirty)) / float64(len(samples[i])) * float64(out[i].Rows)
		}
	}
	return out
}
