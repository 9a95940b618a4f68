// Package offline implements the scale-out offline cleaning baseline the
// paper compares against (§7): an optimized full-dataset cleaner combining
// BigDansing's detection optimizations (hash group-by for FDs instead of a
// self-join, a pruned theta-join for DCs) with probabilistic repairs.
// Repair follows the offline pattern the paper analyzes in §5.2.1: for each
// detected erroneous group it traverses the dataset to compute the candidate
// values — the O(ε·n) term that makes offline cleaning lose to Daisy when
// errors are plentiful (Fig 9) or groups are skewed (Table 8).
package offline

import (
	"context"
	"fmt"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/ptable"
	"daisy/internal/repair"
	"daisy/internal/thetajoin"
	"daisy/internal/trace"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

// Cleaner is a full-dataset offline cleaner.
type Cleaner struct {
	// MaxGroupScans caps the number of per-group dataset traversals; 0 means
	// unbounded. The air-quality experiment uses it to emulate the paper's
	// one-day timeout.
	MaxGroupScans int
}

// ErrTimeout reports that MaxGroupScans was exhausted before cleaning
// finished (the Table 8 "offline unable to terminate" case).
var ErrTimeout = fmt.Errorf("offline: group-scan budget exhausted (timeout)")

// Report summarizes one offline cleaning pass.
type Report struct {
	Metrics         detect.Metrics
	ViolatingGroups int
	ViolatingPairs  int
	UpdatedCells    int
}

// cleanFD repairs every violation of an FD rule over the whole relation.
// The per-group repair loop polls ctx and aborts with an error wrapping
// ctx.Err(), returning the partial report accumulated so far.
func (c *Cleaner) cleanFD(ctx context.Context, pt *ptable.PTable, rule *dc.Constraint) (Report, error) {
	var rep Report
	fd, ok := rule.AsFD()
	if !ok {
		return rep, fmt.Errorf("offline: rule %s is not an FD", rule.Name)
	}
	view := detect.NewPTableView(pt)
	groups := detect.FDViolations(view, fd, &rep.Metrics)
	rep.ViolatingGroups = len(groups)

	cols := detect.CompileFD(view, fd)
	rhsCol := pt.Schema.MustIndex(fd.RHS)
	scans := 0
	for _, g := range groups {
		if err := ctx.Err(); err != nil {
			return rep, fmt.Errorf("offline: cleaning aborted: %w", err)
		}
		scans++
		if c.MaxGroupScans > 0 && scans > c.MaxGroupScans {
			return rep, ErrTimeout
		}
		// Offline repair: one dataset traversal per erroneous group to
		// collect the candidate values (the paper's O(ε·n) repair cost).
		rhsCounts := make(map[value.MapKey]int)
		rhsVals := make(map[value.MapKey]value.Value)
		lhsByRHS := make(map[value.MapKey]map[value.MapKey]int)
		lhsVals := make(map[value.MapKey]value.Value)
		for i := 0; i < view.Len(); i++ {
			rep.Metrics.Scanned++
			if cols.LHSKey(view, i) == g.LHSKey {
				rv := view.ValueAt(i, cols.RHS)
				rk := rv.MapKey()
				rhsCounts[rk]++
				rhsVals[rk] = rv
			}
		}
		// Second traversal: lhs candidates for each distinct rhs of the group.
		if len(fd.LHS) == 1 {
			for i := 0; i < view.Len(); i++ {
				rep.Metrics.Scanned++
				rk := cols.RHSKey(view, i)
				if _, isGroupRHS := rhsCounts[rk]; !isGroupRHS {
					continue
				}
				lv := view.ValueAt(i, cols.LHS[0])
				mm, ok := lhsByRHS[rk]
				if !ok {
					mm = make(map[value.MapKey]int)
					lhsByRHS[rk] = mm
				}
				mm[lv.MapKey()]++
				lhsVals[lv.MapKey()] = lv
			}
		}
		// Build the delta for the group's members.
		delta := ptable.NewDelta(pt.Name)
		total := 0
		for _, n := range rhsCounts {
			total += n
		}
		for _, member := range g.Members {
			id := int64(member)
			cell := uncertain.Cell{Orig: view.ValueAt(member, cols.RHS)}
			for k, n := range rhsCounts {
				cell.Candidates = append(cell.Candidates, uncertain.Candidate{
					Val: rhsVals[k], Prob: float64(n) / float64(total),
					World: repair.WorldFixRHS, Support: n,
				})
			}
			cell.Normalize()
			delta.Set(id, rhsCol, cell)
			rep.Metrics.Repairs++
			if len(fd.LHS) != 1 {
				continue
			}
			rKey := cols.RHSKey(view, member)
			lhsCounts := lhsByRHS[rKey]
			if len(lhsCounts) < 2 {
				continue
			}
			lcell := uncertain.Cell{Orig: view.ValueAt(member, cols.LHS[0])}
			ltotal := 0
			for _, n := range lhsCounts {
				ltotal += n
			}
			for k, n := range lhsCounts {
				lcell.Candidates = append(lcell.Candidates, uncertain.Candidate{
					Val: lhsVals[k], Prob: float64(n) / float64(ltotal),
					World: repair.WorldFixLHS, Support: n,
				})
			}
			lcell.Normalize()
			delta.Set(id, pt.Schema.MustIndex(fd.LHS[0]), lcell)
			rep.Metrics.Repairs++
		}
		rep.UpdatedCells += pt.Apply(delta)
	}
	// Final dataset update pass (the O(n+ε) outer join of §5.2.1).
	rep.Metrics.Updates += int64(view.Len())
	return rep, nil
}

// cleanDC repairs every violation of a general DC via the full self
// theta-join. Cancellation is threaded through the detection workers; no
// fixes apply when detection aborts.
func (c *Cleaner) cleanDC(ctx context.Context, pt *ptable.PTable, rule *dc.Constraint) (Report, error) {
	var rep Report
	view := detect.NewPTableView(pt)
	pairs, err := thetajoin.DetectCtx(ctx, trace.Span{}, view, rule, 0, &rep.Metrics)
	if err != nil {
		return rep, err
	}
	rep.ViolatingPairs = len(pairs)
	fixes := repair.DCFixes(view, pairs, rule, pt.Schema.MustIndex, &rep.Metrics)
	rep.UpdatedCells += pt.Apply(fixes)
	rep.Metrics.Updates += int64(view.Len())
	return rep, nil
}

// CleanAll runs every rule against the relation, merging fixes (Lemma 4
// semantics apply through ptable deltas). It polls ctx cooperatively; on
// abort it returns an error wrapping ctx.Err() and the partial report of the
// work already applied.
func (c *Cleaner) CleanAll(ctx context.Context, pt *ptable.PTable, rules []*dc.Constraint) (Report, error) {
	var total Report
	for _, rule := range rules {
		var rep Report
		var err error
		if rule.IsFD() {
			rep, err = c.cleanFD(ctx, pt, rule)
		} else {
			rep, err = c.cleanDC(ctx, pt, rule)
		}
		total.Metrics.Add(rep.Metrics)
		total.ViolatingGroups += rep.ViolatingGroups
		total.ViolatingPairs += rep.ViolatingPairs
		total.UpdatedCells += rep.UpdatedCells
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
