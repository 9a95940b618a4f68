package core

import (
	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/ptable"
	"daisy/internal/repair"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

// The reference FD repair: the scan-and-hash form of fdIndex.repair.
// It regroups the fix and support rows from their values on every call —
// lhs groups with their rhs tallies, and the rhs-partner lists — and shares
// nothing with the index but CompileFD. Given the support rows the
// one-pass relaxation of the fix rows adds (every fix row's full lhs group
// and rhs partners), its delta must equal the index's cell for cell.

// refRepairFD computes candidate fixes for the FD violations among the fix
// rows, consulting the support rows for distributions only.
func refRepairFD(view detect.RowView, fix, support []int, fd dc.FDSpec) *ptable.Delta {
	all := append(append(make([]int, 0, len(fix)+len(support)), fix...), support...)
	allView := detect.SubsetView{Base: view, Idx: all}
	cols := detect.CompileFD(view, fd)

	groups := make(map[value.MapKey]*refGroup)
	singleLHS := len(fd.LHS) == 1
	byRHS := make(map[value.MapKey][]int)
	for j := range all {
		key := cols.LHSKey(allView, j)
		g := groups[key]
		if g == nil {
			g = &refGroup{}
			groups[key] = g
		}
		g.members = append(g.members, j)
		rv := allView.ValueAt(j, cols.RHS)
		rk := rv.MapKey()
		g.rhs = refAdd(g.rhs, rk, rv)
		byRHS[rk] = append(byRHS[rk], j)
	}

	inFix := make([]bool, view.Len())
	for _, i := range fix {
		inFix[i] = true
	}
	delta := ptable.NewDelta("")
	lhsDistCache := make(map[value.MapKey][]uncertain.Candidate)
	for _, g := range groups {
		if len(g.rhs) < 2 {
			continue // not violating
		}
		rhsCands := refCandidates(g.rhs, repair.WorldFixRHS)
		for _, member := range g.members {
			pos := all[member]
			if !inFix[pos] {
				continue // support-only rows are consulted, not repaired
			}
			id := int64(pos)
			delta.Set(id, cols.RHS, uncertain.Cell{Orig: view.ValueAt(pos, cols.RHS), Candidates: rhsCands})
			if !singleLHS {
				continue
			}
			rhsKey := cols.RHSKey(view, pos)
			cands, ok := lhsDistCache[rhsKey]
			if !ok {
				var tally []refCount
				for _, p := range byRHS[rhsKey] {
					lv := allView.ValueAt(p, cols.LHS[0])
					tally = refAdd(tally, lv.MapKey(), lv)
				}
				if len(tally) >= 2 {
					cands = refCandidates(tally, repair.WorldFixLHS)
				}
				lhsDistCache[rhsKey] = cands
			}
			if len(cands) < 2 {
				continue // lhs is unambiguous; keep it certain
			}
			delta.Set(id, cols.LHS[0], uncertain.Cell{Orig: view.ValueAt(pos, cols.LHS[0]), Candidates: cands})
		}
	}
	return delta
}

// refGroup is one lhs cluster of the fix and support rows: positions into
// the combined row list and the distinct-rhs tally.
type refGroup struct {
	members []int
	rhs     []refCount
}

// refCount is one distinct value with its count; the first occurrence's
// value represents the key.
type refCount struct {
	key value.MapKey
	val value.Value
	n   int
}

// refAdd tallies one value by linear probing.
func refAdd(tally []refCount, key value.MapKey, val value.Value) []refCount {
	for i := range tally {
		if tally[i].key == key {
			tally[i].n++
			return tally
		}
	}
	return append(tally, refCount{key: key, val: val, n: 1})
}

// refCandidates emits a tally as candidates in value order (insertion sort:
// stable, so equal values keep first-appearance order).
func refCandidates(tally []refCount, world int) []uncertain.Candidate {
	tmp := append([]refCount(nil), tally...)
	for i := 1; i < len(tmp); i++ {
		for j := i; j > 0 && tmp[j].val.Less(tmp[j-1].val); j-- {
			tmp[j], tmp[j-1] = tmp[j-1], tmp[j]
		}
	}
	total := 0
	for i := range tmp {
		total += tmp[i].n
	}
	cands := make([]uncertain.Candidate, len(tmp))
	for i := range tmp {
		cands[i] = uncertain.Candidate{
			Val: tmp[i].val, Prob: float64(tmp[i].n) / float64(total),
			World: world, Support: tmp[i].n,
		}
	}
	return cands
}
