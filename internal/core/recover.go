package core

import (
	"context"
	"fmt"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/repair"
	"daisy/internal/trace"
	"daisy/internal/wal"
)

// This file is the startup half of durability: Open loads the latest valid
// checkpoint, replays the WAL suffix past it, rebuilds every relation's
// cells once from its checked sets, attaches the log so new work journals,
// and resumes the background sweeps that had not finished. Checkpoint and
// records hold decisions only (see persist.go): decode and replay restore
// original values, bindings, checked sets and the cost model, and
// rebuildCells recomputes the fixes those imply with the same code the live
// paths run. A sweep is pending once its start record or a checkpoint
// names it, and stops being pending at an apply record carrying the switch
// mark for its table and rule. Replay runs against a writer with
// wlog == nil, so the setup paths it reuses (install, AddRule) do not
// re-journal records that are already on disk.

// recoverDurable rebuilds the session state from opts.Dir and arms the
// durability machinery. Called from Open before the finalizer is installed;
// on error the caller tears the half-built session down.
func (s *Session) recoverDurable() error {
	dir, fsys := s.opts.Dir, s.opts.FS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var ckLSN uint64
	pending := make(map[sweepRef]bool)
	if lsn, payload, ok, err := wal.LatestCheckpointFS(fsys, dir); err != nil {
		return err
	} else if ok {
		snap, sweeps, err := decodeCheckpoint(payload)
		if err != nil {
			return fmt.Errorf("core: recover %s: checkpoint @%d: %w", dir, lsn, err)
		}
		s.w.snap.Store(snap)
		for _, sw := range sweeps {
			pending[sw] = true
		}
		ckLSN = lsn
	}
	recs, err := wal.RecordsFS(fsys, dir, ckLSN)
	if err != nil {
		return fmt.Errorf("core: recover %s: %w", dir, err)
	}
	for _, rec := range recs {
		if err := s.replayRecord(rec.Payload, pending); err != nil {
			return fmt.Errorf("core: recover %s: replay lsn %d: %w", dir, rec.LSN, err)
		}
	}
	if err := rebuildCells(s.w.current(), s.opts.Workers); err != nil {
		return fmt.Errorf("core: recover %s: %w", dir, err)
	}
	// Attach the log (flooring the LSN sequence at the checkpoint, for the
	// case where pruning emptied the directory): from here on, every mutation
	// journals.
	wlog, err := wal.OpenLogFS(fsys, dir, s.opts.Sync, ckLSN)
	if err != nil {
		return fmt.Errorf("core: recover %s: %w", dir, err)
	}
	wlog.SetInstruments(s.instr.walInstruments())
	s.w.mu.Lock()
	s.w.ckptNudge = make(chan struct{}, 1)
	s.w.mu.Unlock()
	s.w.attachLog(wlog)
	s.ckpt = newCheckpointer(s.w, s.bg, &s.opts)
	s.ckpt.start()
	// Resume unfinished sweeps, in a fixed order. The recovered checked sets
	// make a resumed sweep skip every group a pre-crash chunk already
	// published: it continues, it does not restart. CleanInBackground
	// re-journals the start, so a second crash still resumes.
	resume := make([]sweepRef, 0, len(pending))
	for ref := range pending {
		resume = append(resume, ref)
	}
	sortSweepRefs(resume)
	for _, ref := range resume {
		s.CleanInBackground(ref.table, ref.rule)
	}
	return nil
}

// replayRecord applies one WAL record to the recovering session. Records were
// appended under the writer mutex in mutation order, so sequential replay
// reproduces the exact sequence of bindings, checked sets and cost states.
func (s *Session) replayRecord(payload []byte, pending map[sweepRef]bool) error {
	if len(payload) == 0 {
		return fmt.Errorf("core: empty WAL record")
	}
	d := &dec{b: payload[1:]}
	switch payload[0] {
	case recRegister:
		name := d.string()
		pt := d.originals(name)
		if d.err != nil {
			return d.err
		}
		return s.install(name, pt)
	case recRule:
		text := d.string()
		if d.err != nil {
			return d.err
		}
		c, err := dc.Parse(text)
		if err != nil {
			return err
		}
		return s.AddRule(c)
	case recApply:
		reqs := d.applyRecord()
		if d.err != nil {
			return d.err
		}
		return s.replayApply(reqs, pending)
	case recSweep:
		table, rule := d.string(), d.string()
		if d.err != nil {
			return d.err
		}
		pending[sweepRef{table: table, rule: rule}] = true
		return nil
	case 1, 3, 4, 7:
		return errOlderBuild(fmt.Sprintf("WAL record type %d", payload[0]))
	default:
		return fmt.Errorf("core: unknown WAL record type %d", payload[0])
	}
}

// replayApply re-runs one logged apply batch's marks and cost charges
// through the live apply machinery (applyOne), exactly as the original batch
// ran. Records store requests post-filter with the effective cost bit (see
// persist.go), so from the identical pre-state the filter passes everything
// through. A request must name an installed relation, a rule bound to it, and
// marks that rule can hold; anything else is a corrupt log. A
// request carrying the switch mark comes from a full clean reaching the
// relation's end, a sweep's last chunk or an inline full clean: the pair's
// sweep is no longer pending.
func (s *Session) replayApply(reqs []*applyReq, pending map[sweepRef]bool) error {
	s.w.mu.Lock()
	defer s.w.mu.Unlock()
	next := s.w.current().derive()
	cloned := make(map[string]bool)
	for _, req := range reqs {
		st, ok := next.tables[req.table]
		if !ok {
			return fmt.Errorf("core: corrupt durable state: apply names unregistered table %q", req.table)
		}
		if err := checkDecisions(st, req.table, req.rule, req.marks); err != nil {
			return err
		}
		applyOne(next, cloned, req)
		if req.markSwitched {
			delete(pending, sweepRef{table: req.table, rule: req.rule})
		}
	}
	s.w.snap.Store(next)
	return nil
}

// rebuildCells gives every relation of a recovered snapshot the cells its
// checked sets imply, in place: each relation holds its original values
// only, and no epoch of it has been published. Per bound rule it runs the
// live paths' fix code once over its checked set — for an FD, the group
// index's repair of every member of every checked group; for a general DC,
// the rank index's detection of checked against unchecked tuples (a pair
// is detected once its first tuple is checked) and the range fixes of the
// pairs. Fixes merge under Lemma 4, which commutes, so applying them rule by
// rule gives the cells the live interleaving did.
func rebuildCells(snap *snapshot, workers int) error {
	for _, st := range snap.tables {
		pt := st.pt
		view := detect.NewPTableView(pt)
		for _, rule := range st.rules {
			checked := st.checked[rule.Name]
			if checked.len() == 0 {
				continue
			}
			if fd, ok := rule.AsFD(); ok {
				ix := st.reg.fdIndex(pt, rule.Name, fd)
				var fix []int
				for a := range checked.all() {
					fix = append(fix, ix.members(a)...)
				}
				pt.Apply(ix.repair(view, fix, fd, nil))
				continue
			}
			var delta, rest []int
			for i := 0; i < view.Len(); i++ {
				if checked.has(i) {
					delta = append(delta, i)
				} else {
					rest = append(rest, i)
				}
			}
			var m detect.Metrics
			dx := st.reg.dcIndex(view, rule, trace.Span{})
			pairs, err := dx.ix.Detect(context.Background(), trace.Span{}, delta, rest, workers, &m)
			if err != nil {
				return err
			}
			pt.Apply(repair.DCFixes(view, pairs, rule, pt.Schema.MustIndex, &m))
		}
	}
	return nil
}
