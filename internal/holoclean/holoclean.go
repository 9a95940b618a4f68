// Package holoclean implements a simplified HoloClean-like baseline for the
// accuracy and response-time comparisons of Tables 5–7. Like the original
// system, it (a) detects cells involved in constraint violations, (b)
// generates a pruned candidate domain for each dirty cell from co-occurrence
// statistics with the tuple's other attribute values, and (c) infers a
// repair by feature-weighted voting over those statistics. The domain source
// is pluggable: InferFromDomains consumes externally generated domains
// (e.g. Daisy's dependency-driven candidates — the paper's DaisyH hybrid,
// which populates HoloClean's cell_domain table from Daisy's fixes).
package holoclean

import (
	"sort"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/ptable"
	"daisy/internal/table"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

// Options configure the repairer.
type Options struct {
	// DomainThreshold prunes domain candidates whose normalized co-occurrence
	// score falls below it (HoloClean's pruning optimization; default 0.05).
	// The paper notes this pruning is why HoloClean loses accuracy once
	// several rules are known (Table 5).
	DomainThreshold float64
}

func (o *Options) defaults() {
	if o.DomainThreshold <= 0 {
		o.DomainThreshold = 0.05
	}
}

// Repairer is a HoloClean-like cleaner.
type Repairer struct {
	Opts Options
}

// Report summarizes a cleaning pass.
type Report struct {
	Metrics      detect.Metrics
	DirtyCells   int
	PrunedValues int
}

// dirtyCells marks the cells involved in violations: for every FD-shaped
// rule, the rhs and lhs cells of every tuple in a violating group, keyed by
// row position.
func dirtyCells(view detect.RowView, sch interface{ MustIndex(string) int }, rules []*dc.Constraint, m *detect.Metrics) map[int]map[int]bool {
	out := make(map[int]map[int]bool)
	mark := func(row, col int) {
		mm, ok := out[row]
		if !ok {
			mm = make(map[int]bool)
			out[row] = mm
		}
		mm[col] = true
	}
	for _, rule := range rules {
		fd, ok := rule.AsFD()
		if !ok {
			continue
		}
		for _, g := range detect.FDViolations(view, fd, m) {
			for _, member := range g.Members {
				mark(member, sch.MustIndex(fd.RHS))
				if len(fd.LHS) == 1 {
					mark(member, sch.MustIndex(fd.LHS[0]))
				}
			}
		}
	}
	return out
}

// Clean runs the full HoloClean-like pipeline over a probabilistic relation:
// domain generation from co-occurrence statistics, then probabilistic repair
// (candidates weighted by score). The inference step (picking one value) is
// available separately via Infer, mirroring the paper's setup where
// HoloClean's inference is disabled for response-time runs.
func (r *Repairer) Clean(pt *ptable.PTable, rules []*dc.Constraint) (Report, error) {
	r.Opts.defaults()
	var rep Report
	view := detect.NewPTableView(pt)
	dirty := dirtyCells(view, pt.Schema, rules, &rep.Metrics)

	delta := ptable.NewDelta(pt.Name)
	for row, cols := range dirty {
		tup := pt.At(row)
		for col := range cols {
			cands, pruned := r.domain(view, pt, row, col, &rep.Metrics)
			rep.PrunedValues += pruned
			if len(cands) == 0 ||
				(len(cands) == 1 && cands[0].Val.Equal(tup.Cells[col].Orig)) {
				continue // domain offers nothing beyond the current value
			}
			cell := uncertain.Cell{Orig: tup.Cells[col].Orig, Candidates: cands}
			cell.Normalize()
			delta.Set(int64(row), col, cell)
			rep.DirtyCells++
		}
	}
	applied := pt.Apply(delta)
	rep.Metrics.Updates += int64(applied)
	return rep, nil
}

// domain builds the pruned candidate domain of one cell from co-occurrence
// with the tuple's other attribute values. Each candidate's score is
// Σ_B P(candidate | t.B) over the other attributes B — the quantitative
// statistics HoloClean featurizes. The scan is one dataset traversal per
// dirty cell, matching HoloClean's Table 6 behaviour of repeatedly
// traversing the dataset per dirty group.
func (r *Repairer) domain(view detect.RowView, pt *ptable.PTable, row, col int, m *detect.Metrics) ([]uncertain.Candidate, int) {
	tup := pt.At(row)
	n := pt.Schema.Len()
	// Context: the tuple's other attribute original values. Column indices
	// are resolved once against the view, not per scanned row.
	type ctxAttr struct {
		col int
		key value.MapKey
	}
	var ctx []ctxAttr
	for b := 0; b < n; b++ {
		if b != col {
			ctx = append(ctx, ctxAttr{view.ColIndex(pt.Schema.Col(b).Name), tup.Cells[b].Orig.MapKey()})
		}
	}
	scores := make(map[value.MapKey]float64)
	vals := make(map[value.MapKey]value.Value)
	ctxCount := make([]int, len(ctx))
	coCount := make([]map[value.MapKey]int, len(ctx))
	for i := range coCount {
		coCount[i] = make(map[value.MapKey]int)
	}
	colIdx := view.ColIndex(pt.Schema.Col(col).Name)
	for i := 0; i < view.Len(); i++ {
		m.Scanned++
		if i == row {
			continue // exclude the dirty tuple from its own statistics
		}
		av := view.ValueAt(i, colIdx)
		ak := av.MapKey()
		for bi, b := range ctx {
			if view.ValueAt(i, b.col).MapKey() == b.key {
				ctxCount[bi]++
				coCount[bi][ak]++
				vals[ak] = av
			}
		}
	}
	for bi := range ctx {
		if ctxCount[bi] == 0 {
			continue
		}
		for k, cnt := range coCount[bi] {
			scores[k] += float64(cnt) / float64(ctxCount[bi])
			m.Comparisons++
		}
	}
	total := 0.0
	for _, s := range scores {
		total += s
	}
	if total == 0 {
		return nil, 0
	}
	var cands []uncertain.Candidate
	pruned := 0
	for k, s := range scores {
		if s/total < r.Opts.DomainThreshold {
			pruned++
			continue
		}
		cands = append(cands, uncertain.Candidate{Val: vals[k], Prob: s / total, World: 1, Support: 1})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Val.Less(cands[j].Val) })
	return cands, pruned
}

// Infer materializes a repaired deterministic table by scoring every
// uncertain cell's candidates against co-occurrence statistics and picking
// the argmax — the inference stage. With domains generated by Clean this is
// plain HoloClean; with domains generated by Daisy it is the DaisyH hybrid.
func (r *Repairer) Infer(pt *ptable.PTable) *table.Table {
	r.Opts.defaults()
	view := detect.NewPTableView(pt)
	out := table.New(pt.Name, pt.Schema)
	for pos, tup := range pt.Rows() {
		row := make(table.Row, len(tup.Cells))
		for col := range tup.Cells {
			cell := &tup.Cells[col]
			if cell.IsCertain() || len(cell.Candidates) == 0 {
				row[col] = cell.Value()
				continue
			}
			row[col] = r.scoreAndPick(view, pt, pos, col)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// scoreAndPick re-scores a cell's candidates by co-occurrence with the
// context of the tuple at position row and returns the best value; candidate
// prior probabilities break ties.
func (r *Repairer) scoreAndPick(view detect.RowView, pt *ptable.PTable, row, col int) value.Value {
	tup := pt.At(row)
	colIdx := view.ColIndex(pt.Schema.Col(col).Name)
	best := value.Value{}
	bestScore := -1.0
	for _, cand := range tup.Cells[col].Candidates {
		score := 0.0
		for b := 0; b < pt.Schema.Len(); b++ {
			if b == col {
				continue
			}
			bIdx := view.ColIndex(pt.Schema.Col(b).Name)
			bKey := tup.Cells[b].Orig.MapKey()
			match, ctxTotal := 0, 0
			for i := 0; i < view.Len(); i++ {
				if i == row {
					continue // exclude the tuple from its own evidence
				}
				if view.ValueAt(i, bIdx).MapKey() == bKey {
					ctxTotal++
					if view.ValueAt(i, colIdx).Equal(cand.Val) {
						match++
					}
				}
			}
			if ctxTotal > 0 {
				score += float64(match) / float64(ctxTotal)
			}
		}
		score += 0.01 * cand.Prob // prior tie-break
		if score > bestScore || (score == bestScore && cand.Val.Less(best)) {
			best = cand.Val
			bestScore = score
		}
	}
	if bestScore < 0 {
		return tup.Cells[col].Value()
	}
	return best
}
