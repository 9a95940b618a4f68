// Package relax implements FD query-result relaxation (§4.1): enhancing a
// query result with the correlated tuples an FD ties to it, so that
// violation detection and repair can run over the relaxed result instead of
// the whole dataset. This is Algorithm 1 — a transitive closure over shared
// lhs/rhs values — as a plain scan. Sessions relax through their FD group
// index instead; this package is the reference that index is tested
// against. For general DCs the correlated tuples are the conflict partners
// the incremental theta-join ((*thetajoin.Index).Detect) finds.
package relax

import (
	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/value"
)

// FD computes Algorithm 1: the correlated tuples of the result under an FD.
// view is the full dataset, result lists row positions of the (dirty) query
// answer. The returned positions are the extra tuples (disjoint from
// result); together they form the relaxed result. Metrics (optional) count
// scanned tuples and relaxation additions.
func FD(view detect.RowView, result []int, fd dc.FDSpec, m *detect.Metrics) []int {
	cols := detect.CompileFD(view, fd)
	inResult := make(map[int]bool, len(result))
	for _, i := range result {
		inResult[i] = true
	}
	// Seed the frontier value sets from the answer.
	lhsSeen := make(map[value.MapKey]bool)
	rhsSeen := make(map[value.MapKey]bool)
	for _, i := range result {
		lhsSeen[cols.LHSKey(view, i)] = true
		rhsSeen[cols.RHSKey(view, i)] = true
	}
	var unvisited []int
	for i := 0; i < view.Len(); i++ {
		if !inResult[i] {
			unvisited = append(unvisited, i)
		}
	}
	var total []int
	for {
		var extra []int
		var rest []int
		for _, i := range unvisited {
			if m != nil {
				m.Scanned++
			}
			if lhsSeen[cols.LHSKey(view, i)] || rhsSeen[cols.RHSKey(view, i)] {
				extra = append(extra, i)
			} else {
				rest = append(rest, i)
			}
		}
		if len(extra) == 0 {
			return total
		}
		// Transitive closure: the new tuples widen the frontier sets.
		for _, i := range extra {
			lhsSeen[cols.LHSKey(view, i)] = true
			rhsSeen[cols.RHSKey(view, i)] = true
		}
		total = append(total, extra...)
		if m != nil {
			m.Relaxed += int64(len(extra))
		}
		unvisited = rest
	}
}

// FDOnePass runs a single iteration of Algorithm 1 — sufficient for queries
// filtering on the rhs of the FD (Lemma 1). It adds only tuples sharing an
// lhs or rhs value with the answer, without widening the frontier.
func FDOnePass(view detect.RowView, result []int, fd dc.FDSpec, m *detect.Metrics) []int {
	cols := detect.CompileFD(view, fd)
	inResult := make(map[int]bool, len(result))
	for _, i := range result {
		inResult[i] = true
	}
	lhsSeen := make(map[value.MapKey]bool)
	rhsSeen := make(map[value.MapKey]bool)
	for _, i := range result {
		lhsSeen[cols.LHSKey(view, i)] = true
		rhsSeen[cols.RHSKey(view, i)] = true
	}
	var extra []int
	for i := 0; i < view.Len(); i++ {
		if inResult[i] {
			continue
		}
		if m != nil {
			m.Scanned++
		}
		if lhsSeen[cols.LHSKey(view, i)] || rhsSeen[cols.RHSKey(view, i)] {
			extra = append(extra, i)
			if m != nil {
				m.Relaxed++
			}
		}
	}
	return extra
}
