package core

import (
	"sort"

	"daisy/internal/cost"
	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/expr"
	"daisy/internal/repair"
	"daisy/internal/thetajoin"
	"daisy/internal/trace"
)

// cleanFD handles one FD rule inside cleanσ. It returns the extra row
// positions that relaxation added to the query result. All reads come from
// the query's epoch (plus its local overlay); the computed delta applies to
// the overlay immediately and to the canonical state through the
// single-writer loop before returning.
func (qc *queryCtx) cleanFD(st *tableState, tableName string, rule *dc.Constraint, fd dc.FDSpec, rows []int, pred expr.Pred, m *detect.Metrics, parent trace.Span) ([]int, error) {
	idx := st.reg.fdIndex(st.pt, rule.Name, fd)
	checked := qc.checked(tableName, rule.Name)

	// Statistics-driven pruning (Fig 9): only rows in dirty, unchecked
	// groups need cleaning work. Row keys and violation status come from the
	// group index — O(1) per row, no per-query key building.
	prune := !qc.opts.DisableStatsPruning
	detectSp := parent.Start("detect")
	var scope []int
	for ri, r := range rows {
		if ri%ctxCheckEvery == 0 {
			if err := qc.ctxErr(); err != nil {
				return nil, err
			}
		}
		if prune && !idx.violating(r) {
			continue
		}
		if checked.has(idx.anchorOf(r)) {
			continue
		}
		scope = append(scope, r)
	}
	if detectSp.Active() {
		skipped, total := idx.vioSegStats()
		detectSp.End(trace.Str("rule", rule.Name), trace.Int("rows_in", len(rows)),
			trace.Int("scope", len(scope)),
			trace.Int("segments_skipped", skipped), trace.Int("segments_total", total))
	}
	if len(scope) == 0 {
		qc.decisions = append(qc.decisions, Decision{Table: tableName, Rule: rule.Name, Strategy: "skip"})
		return nil, nil
	}

	// Cost model: incremental vs switching to a full clean of the remaining
	// dirty part (§5.2.3). The decision reads the *latest published* model —
	// the writer coalesces every query's cost record into one trajectory, so
	// racing queries that share a stale snapshot still observe the same
	// accumulated spend a serial run would (per-epoch drift would defer the
	// switch point under concurrency). The model update itself lands with
	// the delta through the writer.
	strategy := qc.opts.Strategy
	var costDec Decision // operand snapshot of the §5.2.3 consult, if one ran
	if strategy == StrategyAuto && st.cost != nil {
		decSp := parent.Start("decision")
		qi := len(rows)
		epsi := len(scope)
		ei := idx.estimateExtras(epsi)
		model := qc.latestState(tableName).cost
		if model.ShouldSwitchToFull(qi, ei, epsi) {
			strategy = StrategyFull
		} else {
			strategy = StrategyIncremental
		}
		// Snapshot the inequality's actual operands: cumulative incremental
		// spend + projected next query vs the offline alternative.
		costDec = Decision{
			Qi: qi, Ei: ei, Epsi: epsi,
			CostNext:       model.IncrementalQueryCost(qi, ei, epsi),
			CostCumulative: model.CumulativeIncremental(),
			CostOffline:    model.OfflineCost(model.Queries() + 1),
		}
		if decSp.Active() {
			decSp.End(
				trace.Str("strategy", strategyName(strategy)),
				trace.Int("qi", qi), trace.Int("ei", ei), trace.Int("epsi", epsi),
				trace.Float("cost_next", costDec.CostNext),
				trace.Float("cost_cumulative", costDec.CostCumulative),
				trace.Float("cost_offline", costDec.CostOffline),
			)
		}
	}
	background := false
	if strategy == StrategyFull {
		if qc.opts.Strategy == StrategyAuto && !qc.opts.DisableBackgroundClean {
			// Async §5.2.3 switch: schedule a background sweep (dedup per
			// table/rule; enqueued only if this query commits) and fall
			// through to the incremental path — the triggering query cleans
			// exactly its own scope and returns, instead of paying the full
			// clean inline while every concurrent query waits behind it.
			background = true
			qc.deferFullClean(tableName, rule, fd)
		} else {
			if err := qc.fullCleanFD(tableName, rule, fd, idx, checked, m, parent); err != nil {
				return nil, err
			}
			dec := costDec
			dec.Table, dec.Rule, dec.Strategy = tableName, rule.Name, "full"
			qc.decisions = append(qc.decisions, dec)
			// After a full clean, relaxation extras are the other members of
			// the result's dirty groups (they may qualify probabilistically).
			return groupPartners(idx, scope, rows), nil
		}
	}

	// Incremental: relax the result (Algorithm 1) through the group index.
	// A filter on the lhs requires the transitive closure (Lemma 2);
	// otherwise one pass suffices (Lemma 1).
	repairSp := parent.Start("repair")
	extra := idx.relax(scope, predTouchesLHS(pred, fd), m)
	if err := qc.ctxErr(); err != nil {
		return nil, err
	}
	// Repair is per group, whole and once. Extras whose group is already
	// checked (relaxation can pull them back in) are never re-fixed —
	// re-merging the identical fix would inflate supports, and which query
	// re-pulls a group depends on execution order, which must not show in
	// the converged state. An extra from an unchecked violating group (one
	// sharing a seed row's rhs value) brings every member of its group, so a
	// checked group is always a fully repaired one: the state stays a
	// function of the checked groups, the bytes a full clean or sweep gives.
	// The scope itself holds unchecked groups only.
	var fix, anchors []int
	local := qc.private(tableName, rule.Name)
	for _, rs := range [][]int{scope, extra} {
		for _, r := range rs {
			a := idx.anchorOf(r)
			if !local.add(a) {
				continue // checked, by an epoch or earlier in this query
			}
			anchors = append(anchors, a)
			if idx.violating(r) {
				fix = append(fix, idx.members(a)...)
			}
		}
	}

	base := qc.pt(tableName)
	delta := idx.repair(detect.NewPTableView(base), fix, fd, m)
	if err := qc.ctxErr(); err != nil {
		// The repair was computed but never applied anywhere: drop it.
		return nil, err
	}
	updated := qc.applyLocal(tableName, delta)
	m.Updates += int64(updated)
	if repairSp.Active() {
		repairSp.End(trace.Str("rule", rule.Name), trace.Int("fix", len(fix)),
			trace.Int("relaxed", len(extra)), trace.Int("cells_updated", updated))
	}

	// Buffer the delta plus the groups it checked for the flush at query end
	// (duplicates from racing queries coalesce in the writer).
	qc.submit(&applyReq{
		table: tableName, rule: rule.Name,
		delta: delta, base: base, applied: qc.pt(tableName), marks: anchors,
		costRecord: st.cost != nil,
		costQi:     len(rows), costEi: len(extra), costEpsi: len(scope) + len(extra),
	})
	dec := costDec
	dec.Table, dec.Rule, dec.Strategy = tableName, rule.Name, "incremental"
	if background {
		dec.Strategy = "background"
	}
	qc.decisions = append(qc.decisions, dec)
	return extra, nil
}

// latestState returns the most recently published state of the relation —
// the coalesced counters and checked sets the §5.2.3 and DC decisions read.
func (qc *queryCtx) latestState(tableName string) *tableState {
	return qc.s.w.current().tables[tableName]
}

// predTouchesLHS reports whether the filter references an lhs attribute of
// the FD (the Lemma 2 multi-iteration case).
func predTouchesLHS(pred expr.Pred, fd dc.FDSpec) bool {
	if pred == nil {
		return false
	}
	cols := expr.ColNames(pred)
	for _, l := range fd.LHS {
		if cols[l] {
			return true
		}
	}
	return false
}

// fullCleanFD cleans every remaining dirty group of the relation in one
// pass (the strategy-switch target): the sweep's chunk body over [0, n),
// applied against the query's overlay. Per-group fixes are therefore the
// same bytes whether a group is cleaned incrementally, by this inline pass,
// or by a background sweep chunk — the invariant the async switch's
// convergence rests on.
func (qc *queryCtx) fullCleanFD(tableName string, rule *dc.Constraint, fd dc.FDSpec, idx *fdIndex, checked *posSet, m *detect.Metrics, parent trace.Span) error {
	if err := qc.ctxErr(); err != nil {
		return err
	}
	repairSp := parent.Start("repair")
	base := qc.pt(tableName)
	req, fixed, updated := cleanFDRange(idx, base, tableName, rule.Name, fd, 0, base.Len(), checked, m)
	if err := qc.ctxErr(); err != nil {
		// The repair was computed but never applied anywhere: drop it.
		return err
	}
	if req.applied != nil {
		qc.setLocal(tableName, req.applied)
	}
	local := qc.private(tableName, rule.Name)
	for _, a := range req.marks {
		local.add(a)
	}
	if repairSp.Active() {
		repairSp.End(trace.Str("rule", rule.Name), trace.Bool("full", true),
			trace.Int("fix", fixed), trace.Int("cells_updated", updated))
	}
	qc.submit(req)
	return nil
}

// groupPartners returns the dirty-group members of the scope rows that are
// not already in the result (relaxation extras after a full clean), in
// ascending row order. The group index supplies membership directly — no
// full-table key rescan.
func groupPartners(idx *fdIndex, scope, rows []int) []int {
	var inResult, want posSet
	for _, r := range rows {
		inResult.add(r)
	}
	var extra []int
	for _, r := range scope {
		a := idx.anchorOf(r)
		if !want.add(a) {
			continue
		}
		for _, i := range idx.members(a) {
			if !inResult.has(i) {
				extra = append(extra, i)
			}
		}
	}
	sort.Ints(extra)
	return extra
}

// cleanDC handles one general denial constraint inside cleanσ. It checks the
// query's unchecked tuples (the delta) against every unchecked tuple, so a
// violating pair is detected exactly when the first of its tuples is checked,
// and the fixes of a cell are the set union of the ranges its detected pairs
// imply (repair.DCFixes, uncertain.Cell.Merge). DC state is therefore a
// function of the original values, the rules and the checked tuples, like FD
// state: racing queries need no lock, because a pair two of them both detect
// merges to the same cell as a pair detected once. The clean reads the latest
// published epoch's checked set (a racing DC query may have advanced it past
// the query's snapshot) while detection and repair evaluate original values,
// which every epoch shares.
func (qc *queryCtx) cleanDC(st *tableState, tableName string, rule *dc.Constraint, rows []int, m *detect.Metrics, parent trace.Span) ([]int, error) {
	if err := qc.ctxErr(); err != nil {
		return nil, err
	}

	latest := qc.latestState(tableName)
	view := detect.NewPTableView(qc.pt(tableName))
	checked := latest.checked[rule.Name]
	dx := st.reg.dcIndex(view, rule, parent)

	// Algorithm 2: estimate result dirtiness from precomputed range overlap.
	decSp := parent.Start("decision")
	errors := estimateResultErrors(view, rule, rows, dx.est)
	support := dcSupport(latest, checked)
	decision := cost.DecideDC(errors, len(rows), support, qc.opts.DCThreshold)

	strategy := qc.opts.Strategy
	if strategy == StrategyAuto {
		if decision.FullClean {
			strategy = StrategyFull
		} else {
			strategy = StrategyIncremental
		}
	}
	if decSp.Active() {
		decSp.End(trace.Str("strategy", strategyName(strategy)),
			trace.Float("errors", errors), trace.Float("dirtiness", decision.Dirtiness),
			trace.Float("support", support), trace.Float("threshold", qc.opts.DCThreshold),
			trace.Bool("full", decision.FullClean))
	}
	qc.decisions = append(qc.decisions, Decision{Table: tableName, Rule: rule.Name,
		Strategy: strategyName(strategy), Accuracy: 1 - decision.Dirtiness, Support: support})

	var delta []int // new rows to check
	var rest []int  // unchecked rows outside the result
	var inResult posSet
	for _, r := range rows {
		inResult.add(r)
	}
	for i := 0; i < view.Len(); i++ {
		switch {
		case checked.has(i): // covered: its pairs were detected when it was checked
		case strategy == StrategyFull || inResult.has(i):
			// A full clean makes every unchecked tuple delta, in or out of
			// the result.
			delta = append(delta, i)
		default:
			rest = append(rest, i)
		}
	}
	if len(delta) == 0 {
		return nil, nil
	}

	// Cancellable detection: the theta-join workers poll ctx and the
	// whole rule aborts cleanly — no fixes applied, no tuples marked checked.
	detectSp := parent.Start("detect")
	cmpBefore := m.Comparisons
	pairs, err := dx.ix.Detect(qc.ctx, detectSp, delta, rest, qc.opts.Workers, m)
	if detectSp.Active() {
		detectSp.End(trace.Str("rule", rule.Name),
			trace.Int("delta", len(delta)), trace.Int("rest", len(rest)),
			trace.Int("pairs", len(pairs)),
			trace.Int64("comparisons", m.Comparisons-cmpBefore),
			trace.Int("workers", qc.opts.Workers))
	}
	if err != nil {
		return nil, err
	}
	repairSp := parent.Start("repair")
	fixes := repair.DCFixes(view, pairs, rule, view.P.Schema.MustIndex, m)
	if err := qc.ctxErr(); err != nil {
		return nil, err
	}
	updated := qc.applyLocal(tableName, fixes)
	m.Updates += int64(updated)
	if repairSp.Active() {
		repairSp.End(trace.Str("rule", rule.Name),
			trace.Int("pairs", len(pairs)), trace.Int("cells_updated", updated))
	}

	// Mark the delta tuples checked (full clean marks everything) and buffer
	// the write-back. A racing query that detected some of the same pairs
	// publishes the same ranges, which the writer's merge absorbs.
	qc.submit(&applyReq{table: tableName, rule: rule.Name,
		delta: fixes, base: view.P, applied: qc.pt(tableName), marks: delta})

	// Relaxation extras: conflict partners outside the result.
	var seen posSet
	var extra []int
	for _, p := range pairs {
		for _, pos := range []int{p.T1, p.T2} {
			if inResult.has(pos) || !seen.add(pos) {
				continue
			}
			extra = append(extra, pos)
			m.Relaxed++
		}
	}
	return extra, nil
}

// estimateResultErrors sums the violation estimates of the ranges the query
// answer overlaps (Algorithm 2 lines 4-5).
func estimateResultErrors(view detect.PTableView, rule *dc.Constraint, rows []int, est []thetajoin.RangeEstimate) float64 {
	if len(est) == 0 || len(rows) == 0 {
		return 0
	}
	col := rule.Atoms[0].LeftCol
	// Answer's primary-attribute range.
	lo := view.Value(rows[0], col)
	hi := lo
	for _, r := range rows[1:] {
		v := view.Value(r, col)
		if v.Less(lo) {
			lo = v
		}
		if hi.Less(v) {
			hi = v
		}
	}
	numeric := lo.IsNumeric() && hi.IsNumeric()
	var loF, hiF float64
	if numeric {
		loF, hiF = lo.Float(), hi.Float()
	}
	total := 0.0
	for _, e := range est {
		if e.Hi.Less(lo) || hi.Less(e.Lo) {
			continue
		}
		// Scale the range's violation mass by the fraction of the range the
		// answer actually overlaps, so dirtiness compares like with like.
		frac := 1.0
		if numeric && e.Lo.IsNumeric() && e.Hi.IsNumeric() {
			rLo, rHi := e.Lo.Float(), e.Hi.Float()
			if rHi > rLo {
				ovLo, ovHi := maxF(rLo, loF), minF(rHi, hiF)
				if ovHi <= ovLo {
					continue
				}
				frac = (ovHi - ovLo) / (rHi - rLo)
			}
		}
		total += e.Violations * frac
	}
	return total
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// dcSupport reports the fraction of the relation already theta-join-checked
// under the rule — the diagonal-coverage support of Algorithm 2 line 7.
func dcSupport(st *tableState, checked *posSet) float64 {
	if st.pt.Len() == 0 {
		return 1
	}
	return float64(checked.len()) / float64(st.pt.Len())
}
