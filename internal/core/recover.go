package core

import (
	"fmt"

	"daisy/internal/dc"
	"daisy/internal/wal"
)

// This file is the startup half of durability: Open loads the latest valid
// checkpoint, replays the WAL suffix past it, re-enqueues the background
// sweeps that were live at crash time, and only then attaches the log so new
// work journals. Replay runs against a writer with wlog == nil, so the setup
// paths it reuses (install, AddRule) do not re-journal records that are
// already on disk.

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
	// Resume unfinished sweeps. The recovered checked-set bookkeeping makes
	// the resumed sweep skip every group a pre-crash chunk already published —
	// it continues, it does not restart. CleanInBackground re-journals the
	// enqueue, so a second crash still resumes.
	snap := s.w.current()
	for sw := range pending {
		st, ok := snap.tables[sw.table]
		if !ok {
			continue
		}
		if st.cost != nil && st.cost.Switched() {
			continue // the sweep's final chunk landed before the crash
		}
		s.CleanInBackground(sw.table, sw.rule)
	}
	return nil
}

// replayRecord applies one WAL record to the recovering session. Records were
// appended under the writer mutex in mutation order, so sequential replay
// reproduces the exact state sequence.
func (s *Session) replayRecord(payload []byte, pending map[sweepRef]bool) error {
	if len(payload) == 0 {
		return fmt.Errorf("core: empty WAL record")
	}
	d := &dec{b: payload[1:]}
	switch payload[0] {
	case recRegister, recReplace:
		name := d.string()
		pt := d.ptImage()
		if d.err != nil {
			return d.err
		}
		// A replace record, written only by older builds, installs like a
		// register record: the image is the relation's state, and install
		// binds the rules that apply to it.
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
		s.replayApply(reqs)
		return nil
	case recSweep:
		table, rule := d.string(), d.string()
		if d.err != nil {
			return d.err
		}
		pending[sweepRef{table: table, rule: rule}] = true
		return nil
	default:
		return fmt.Errorf("core: unknown WAL record type %d", payload[0])
	}
}

// replayApply re-runs one logged apply batch through the live apply machinery
// (applyOne), exactly as the original batch ran. Records store requests
// post-filter with the effective cost bit (see persist.go), so from the
// identical pre-state the filter passes everything through and the result is
// byte-identical. A request naming no installed table (only a corrupt log
// holds one) is skipped.
func (s *Session) replayApply(reqs []*applyReq) {
	s.w.mu.Lock()
	defer s.w.mu.Unlock()
	next := s.w.current().derive()
	cloned := make(map[string]bool)
	for _, req := range reqs {
		if _, ok := next.tables[req.table]; !ok {
			continue
		}
		applyOne(next, cloned, req)
	}
	s.w.snap.Store(next)
}
