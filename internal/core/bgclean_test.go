package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"daisy/internal/bgclean"
	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/trace"
	"daisy/internal/value"
)

// sweepTable hand-builds a relation shaped for deterministic §5.2.3 switch
// tests: `groups` orderkey groups of 4 rows each, every (groups/dirtyGroups)-th
// violating phi (orderkey → suppkey) with a suppkey that appears nowhere
// else. Dirty groups spread across the whole relation, so a background sweep
// has work in every chunk; no rhs value is shared across groups, so
// relaxation never crosses group boundaries and every query's (qi, ei, epsi)
// trajectory is an exact function of its range — identical whether snapshots
// are fresh or stale.
func sweepTable(groups, dirtyGroups int) *table.Table {
	sch := schema.MustNew(
		schema.Column{Name: "orderkey", Kind: value.Int},
		schema.Column{Name: "suppkey", Kind: value.Int},
	)
	tb := table.New("lineorder", sch)
	stride := groups / dirtyGroups
	for g := 0; g < groups; g++ {
		for r := 0; r < 4; r++ {
			supp := int64(1000 + g)
			if g%stride == 0 && r == 3 {
				supp = int64(1000 + groups + g) // unique wrong value: violation
			}
			tb.MustAppend(table.Row{value.NewInt(int64(g)), value.NewInt(supp)})
		}
	}
	return tb
}

func sweepRule() *dc.Constraint { return dc.FD("phi", "lineorder", "suppkey", "orderkey") }

// sweepQueries are disjoint, group-aligned orderkey ranges: rangeGroups
// groups per query. With stats pruning disabled every query records cost, so
// the §5.2.3 trajectory crosses deterministically mid-workload.
func sweepQueries(groups, rangeGroups int) []string {
	var qs []string
	for lo := 0; lo < groups; lo += rangeGroups {
		qs = append(qs, fmt.Sprintf(
			"SELECT orderkey, suppkey FROM lineorder WHERE orderkey >= %d AND orderkey < %d",
			lo, lo+rangeGroups))
	}
	return qs
}

func newSweepSession(t *testing.T, opts Options, groups, dirtyGroups int) *Session {
	t.Helper()
	s := NewSession(opts)
	if err := s.Register(sweepTable(groups, dirtyGroups)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(sweepRule()); err != nil {
		t.Fatal(err)
	}
	return s
}

// sweepOpts triggers the switch after a few queries: 768 groups (3072 rows,
// six 512-row chunks), 150 dirty groups, 16-group ranges, pruning disabled
// so every query charges the model.
func sweepOpts() Options {
	return Options{Strategy: StrategyAuto, DisableStatsPruning: true, CleanChunkSize: 512}
}

const (
	sweepGroups      = 768
	sweepDirtyGroups = 150
	sweepRangeGroups = 16
)

// runUntilFlip executes queries in order until a decision other than
// "incremental"/"skip" appears, returning the query index, the strategy, and
// the epoch read just before the triggering query ran — a sweep it schedules
// publishes only after that read, however fast its chunks run.
func runUntilFlip(t *testing.T, s *Session, queries []string) (int, string, uint64) {
	t.Helper()
	for i, q := range queries {
		before := s.Epoch()
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Decisions {
			if d.Strategy != "incremental" && d.Strategy != "skip" {
				return i, d.Strategy, before
			}
		}
	}
	return -1, "", 0
}

// TestBackgroundFullCleanConvergesToSynchronous is the tentpole acceptance:
// after the §5.2.3 inequality flips, the triggering query returns with a
// "background" decision having cleaned only its own scope, the sweep
// publishes at least one epoch per chunk, and the quiesced state is
// byte-identical to a synchronous inline full clean from the same pre-switch
// state — and to a pure-incremental covering run, since per-group fixes are
// the same bytes on every path.
func TestBackgroundFullCleanConvergesToSynchronous(t *testing.T) {
	queries := sweepQueries(sweepGroups, sweepRangeGroups)

	// Synchronous reference: identical session/workload, inline switch.
	syncOpts := sweepOpts()
	syncOpts.DisableBackgroundClean = true
	syncS := newSweepSession(t, syncOpts, sweepGroups, sweepDirtyGroups)
	defer syncS.Close()
	syncFlip, syncStrategy, _ := runUntilFlip(t, syncS, queries)
	if syncFlip < 1 || syncStrategy != "full" {
		t.Fatalf("sync run: flip at %d with %q, want mid-workload inline full", syncFlip, syncStrategy)
	}
	want := syncS.Table("lineorder").Fingerprint()

	// Async run: same pre-switch trajectory, then a background sweep.
	s := newSweepSession(t, sweepOpts(), sweepGroups, sweepDirtyGroups)
	defer s.Close()
	dirtyBefore := s.Table("lineorder").DirtyTuples()
	flip, strategy, epochBeforeFlip := runUntilFlip(t, s, queries)
	if flip != syncFlip {
		t.Fatalf("async flip at query %d, sync at %d — pre-switch trajectories must match", flip, syncFlip)
	}
	if strategy != "background" {
		t.Fatalf("async flip strategy = %q, want background", strategy)
	}
	if err := s.WaitCleaning(context.Background()); err != nil {
		t.Fatal(err)
	}
	status := s.CleaningStatus()
	if len(status) != 1 {
		t.Fatalf("CleaningStatus = %d jobs, want 1 (dedup)", len(status))
	}
	job := status[0]
	if job.State != bgclean.Done {
		t.Fatalf("job state = %v (%s), want done", job.State, job.Err)
	}
	if job.RowsTotal != 4*sweepGroups || job.RowsDone != job.RowsTotal {
		t.Errorf("rows = %d/%d, want %d/%d", job.RowsDone, job.RowsTotal, 4*sweepGroups, 4*sweepGroups)
	}
	if job.ChunksDone < 1 {
		t.Errorf("chunksDone = %d, want >= 1", job.ChunksDone)
	}
	if job.GroupsCleaned == 0 {
		t.Error("sweep repaired no groups — the trigger should have left most dirty")
	}
	// One epoch per chunk, at least, counted from before the triggering query
	// (its own write-back adds one more). Sweep chunks may publish before the
	// query returns, so an epoch read after it would undercount. The chunk
	// count itself is adaptive, so the bound comes from the job's own tally.
	if got := s.Epoch() - epochBeforeFlip; got < uint64(job.ChunksDone) {
		t.Errorf("epochs advanced %d during sweep, want >= %d (one per chunk)", got, job.ChunksDone)
	}
	if got := s.Table("lineorder").Fingerprint(); got != want {
		t.Errorf("quiesced background state differs from synchronous full clean\nasync:\n%.1200s\nsync:\n%.1200s", got, want)
	}
	if dirty := s.Table("lineorder").DirtyTuples(); dirty <= dirtyBefore/2 {
		t.Logf("dirty tuples after sweep: %d (probabilistic cells)", dirty)
	}

	// Pure-incremental covering reference: same bytes again.
	incS := newSweepSession(t, Options{Strategy: StrategyIncremental, DisableStatsPruning: true}, sweepGroups, sweepDirtyGroups)
	defer incS.Close()
	if _, err := incS.Query("SELECT orderkey, suppkey FROM lineorder WHERE orderkey >= 0"); err != nil {
		t.Fatal(err)
	}
	if inc := incS.Table("lineorder").Fingerprint(); inc != want {
		t.Error("incremental covering run diverged from full-clean bytes (consult unification broken)")
	}

	// Post-quiesce queries skip: the model recorded the switch and every
	// group is checked.
	res, err := s.Query(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Decisions {
		if d.Strategy != "skip" {
			t.Errorf("post-quiesce decision = %q, want skip", d.Strategy)
		}
	}
}

// cancelSweep stops the live sweep of phi over lineorder at its next chunk
// boundary (a fast sweep may already be done) and waits until it has.
func cancelSweep(t *testing.T, s *Session) {
	t.Helper()
	s.CancelCleaning("lineorder", "phi")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.WaitCleaning(ctx); err != nil {
		t.Fatal(err)
	}
}

// lastSweep returns the status of the most recent sweep of phi over
// lineorder, failing unless every scheduled job is terminal.
func lastSweep(t *testing.T, s *Session) bgclean.Status {
	t.Helper()
	var last *bgclean.Status
	for _, st := range s.CleaningStatus() {
		if !st.State.Terminal() {
			t.Fatalf("job %d not terminal: %v", st.ID, st.State)
		}
		if st.Table == "lineorder" && st.Rule == "phi" {
			last = &st
		}
	}
	if last == nil {
		t.Fatal("no background job scheduled")
	}
	return *last
}

// TestBackgroundSweepConvergesUnderConcurrentQueries triggers the flip with
// a deterministic serial prefix (the racing-flip *decision* is pinned by the
// serial tests; under racing traffic the crossing-to-capped window of the
// cost trajectory is timing-dependent by nature), cancels the sweep at a
// chunk boundary, and then lets 8 goroutines race a re-enqueued sweep over
// the full workload: queries ride the advancing chunk epochs, duplicate
// fixes coalesce in the writer, and the converged state is byte-identical to
// the synchronous reference. Run under -race in CI.
func TestBackgroundSweepConvergesUnderConcurrentQueries(t *testing.T) {
	queries := sweepQueries(sweepGroups, sweepRangeGroups)

	syncOpts := sweepOpts()
	syncOpts.DisableBackgroundClean = true
	syncS := newSweepSession(t, syncOpts, sweepGroups, sweepDirtyGroups)
	defer syncS.Close()
	for _, q := range queries {
		if _, err := syncS.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	want := syncS.Table("lineorder").Fingerprint()

	for trial := 0; trial < 2; trial++ {
		s := newSweepSession(t, sweepOpts(), sweepGroups, sweepDirtyGroups)
		flip, strategy, _ := runUntilFlip(t, s, queries)
		if flip < 0 || strategy != "background" {
			t.Fatalf("serial prefix did not flip (flip=%d strategy=%q)", flip, strategy)
		}
		// Stop the sweep (it may already have finished) and restart it
		// mid-traffic, so the racers demonstrably overlap its chunk epochs;
		// the restarted sweep resumes from the checked sets.
		cancelSweep(t, s)

		const goroutines = 8
		var wg sync.WaitGroup
		errCh := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range queries {
					if i == 2 && g == 0 && !s.CleanInBackground("lineorder", "phi") {
						errCh <- fmt.Errorf("CleanInBackground refused to restart the sweep")
						return
					}
					q := queries[(i+g*3+trial)%len(queries)]
					if _, err := s.Query(q); err != nil {
						errCh <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		if err := s.WaitCleaning(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st := lastSweep(t, s); st.State != bgclean.Done {
			t.Fatalf("last job %d state = %v (%s), want done", st.ID, st.State, st.Err)
		}
		if got := s.Table("lineorder").Fingerprint(); got != want {
			t.Fatalf("trial %d: concurrent quiesced state differs from synchronous reference", trial)
		}
		s.Close()
	}
}

// TestMidSweepCancellationLeavesResumableState drives the sweep job body
// directly (cancellation is cooperative at chunk boundaries, so stopping
// after k chunks IS the canceled state): the partial state is valid — every
// completed chunk's groups repaired exactly, everything else untouched — and
// both a resumed sweep and an ordinary incremental covering query finish it
// to the reference bytes.
func TestMidSweepCancellationLeavesResumableState(t *testing.T) {
	ref := newSweepSession(t, Options{Strategy: StrategyIncremental, DisableStatsPruning: true}, sweepGroups, sweepDirtyGroups)
	defer ref.Close()
	if _, err := ref.Query("SELECT orderkey, suppkey FROM lineorder WHERE orderkey >= 0"); err != nil {
		t.Fatal(err)
	}
	want := ref.Table("lineorder").Fingerprint()

	build := func() (*Session, *fdSweepJob) {
		s := newSweepSession(t, sweepOpts(), sweepGroups, sweepDirtyGroups)
		st := s.w.current().tables["lineorder"]
		fd, _ := sweepRule().AsFD()
		return s, newFDSweepJob(s, "lineorder", sweepRule(), fd, st.pt.Len())
	}

	// Resume path 1: run the first half in 512-row chunks, "cancel", resume
	// the rest under a different (unaligned) chunking — group anchoring makes
	// chunk scopes partition identically for any range choice.
	const step = 512
	s1, job1 := build()
	defer s1.Close()
	total := job1.Total()
	if total < 3*step {
		t.Fatalf("rows = %d, want >= %d for a mid-sweep cut", total, 3*step)
	}
	cut := (total / step / 2) * step
	for lo := 0; lo < cut; lo += step {
		if _, err := job1.RunChunk(context.Background(), lo, lo+step); err != nil {
			t.Fatal(err)
		}
	}
	partial := s1.Table("lineorder").Fingerprint()
	if partial == want {
		t.Fatal("mid-sweep state already converged; cut point too late to test resume")
	}
	// Valid state: the canceled sweep must not have half-applied a chunk —
	// a fresh job resumes purely from the checked-set bookkeeping.
	st := s1.w.current().tables["lineorder"]
	fd, _ := sweepRule().AsFD()
	job1b := newFDSweepJob(s1, "lineorder", sweepRule(), fd, st.pt.Len())
	for lo := 0; lo < job1b.Total(); lo += 700 {
		hi := lo + 700
		if hi > job1b.Total() {
			hi = job1b.Total()
		}
		if _, err := job1b.RunChunk(context.Background(), lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	if got := s1.Table("lineorder").Fingerprint(); got != want {
		t.Error("resumed sweep diverged from reference")
	}

	// Resume path 2: an ordinary incremental covering query finishes the
	// canceled sweep's work through the epoch bookkeeping alone.
	s2, job2 := build()
	defer s2.Close()
	for lo := 0; lo < cut; lo += step {
		if _, err := job2.RunChunk(context.Background(), lo, lo+step); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := s2.QueryContext(context.Background(),
		"SELECT orderkey, suppkey FROM lineorder WHERE orderkey >= 0",
		WithStrategy(StrategyIncremental))
	if err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if got := s2.Table("lineorder").Fingerprint(); got != want {
		t.Error("incremental completion after mid-sweep cancellation diverged from reference")
	}
}

// TestCancelAndCloseStopSweep: CancelCleaning stops a live sweep at its
// boundary with a terminal status, a sweep CleanInBackground re-enqueues
// finishes the work to the fully cleaned bytes, and Session.Close cancels
// live jobs without hanging.
func TestCancelAndCloseStopSweep(t *testing.T) {
	ref := newSweepSession(t, Options{Strategy: StrategyIncremental, DisableStatsPruning: true}, sweepGroups, sweepDirtyGroups)
	defer ref.Close()
	if _, err := ref.Query("SELECT orderkey, suppkey FROM lineorder WHERE orderkey >= 0"); err != nil {
		t.Fatal(err)
	}
	want := ref.Table("lineorder").Fingerprint()

	queries := sweepQueries(sweepGroups, sweepRangeGroups)
	s := newSweepSession(t, sweepOpts(), sweepGroups, sweepDirtyGroups)
	defer s.Close()
	if flip, strategy, _ := runUntilFlip(t, s, queries); flip < 0 || strategy != "background" {
		t.Fatalf("no background flip (flip=%d strategy=%q)", flip, strategy)
	}
	// Cancel → the job must reach a terminal state (Done when the sweep
	// outran the request); a re-enqueued sweep then finishes the work.
	cancelSweep(t, s)
	lastSweep(t, s)
	if !s.CleanInBackground("lineorder", "phi") {
		t.Fatal("CleanInBackground refused to restart the sweep")
	}
	if err := s.WaitCleaning(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := lastSweep(t, s); st.State != bgclean.Done {
		t.Fatalf("restarted job %d state = %v (%s), want done", st.ID, st.State, st.Err)
	}
	if got := s.Table("lineorder").Fingerprint(); got != want {
		t.Error("restarted sweep state differs from the fully cleaned reference")
	}
	if !s.CleanInBackground("lineorder", "phi") {
		t.Fatal("CleanInBackground refused a sweep before Close")
	}
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung with background scheduler")
	}
}

// TestCostModelReadsCoalescedCounters pins the concurrency fix to the
// §5.2.3 decision: a query computes its scope against its own (possibly
// stale) epoch, but the inequality reads the writer's latest coalesced cost
// model. Queries pinned to the pre-workload snapshot — the racing-caller
// shape, every one seeing epoch 0 — must therefore flip at exactly the same
// query index as the serial run. (Reading the stale epoch's model instead
// would observe a virgin trajectory each time and never switch.)
func TestCostModelReadsCoalescedCounters(t *testing.T) {
	queries := sweepQueries(sweepGroups, sweepRangeGroups)

	serial := newSweepSession(t, sweepOpts(), sweepGroups, sweepDirtyGroups)
	defer serial.Close()
	serialFlip, serialStrategy, _ := runUntilFlip(t, serial, queries)
	if serialFlip < 1 || serialStrategy != "background" {
		t.Fatalf("serial run: flip at %d (%q), want background flip after query 0", serialFlip, serialStrategy)
	}

	stale := newSweepSession(t, sweepOpts(), sweepGroups, sweepDirtyGroups)
	defer stale.Close()
	snap := stale.w.current() // every query reuses the pre-workload epoch
	st := snap.tables["lineorder"]
	fd, _ := sweepRule().AsFD()
	staleFlip := -1
	for i := 0; i <= serialFlip && staleFlip < 0; i++ {
		qc := &queryCtx{s: stale, snap: snap, opts: stale.opts}
		// The same disjoint group range the serial query cleaned.
		var rows []int
		for r := i * sweepRangeGroups * 4; r < (i+1)*sweepRangeGroups*4; r++ {
			rows = append(rows, r)
		}
		var m detect.Metrics
		if _, err := qc.cleanFD(st, "lineorder", sweepRule(), fd, rows, nil, &m, trace.Span{}); err != nil {
			t.Fatal(err)
		}
		for _, d := range qc.decisions {
			if d.Strategy == "background" || d.Strategy == "full" {
				staleFlip = i
			}
		}
		qc.flush()
	}
	if staleFlip != serialFlip {
		t.Fatalf("stale-snapshot flip at %d, serial at %d — the decision must read the coalesced trajectory", staleFlip, serialFlip)
	}
	if err := stale.WaitCleaning(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestMarkSwitchedSurvivesDuplicateCoalescing: a sweep's final chunk may
// coalesce as a full duplicate when racing queries cleaned its groups first
// — the writer must still record the switch in the cost model, or every
// subsequent query would re-enqueue a redundant sweep forever.
func TestMarkSwitchedSurvivesDuplicateCoalescing(t *testing.T) {
	s := newSweepSession(t, Options{Strategy: StrategyIncremental, DisableStatsPruning: true}, 64, 16)
	defer s.Close()
	snap0 := s.w.current()
	st0 := snap0.tables["lineorder"]
	// Racing queries clean everything: every violating group becomes checked.
	if _, err := s.Query("SELECT orderkey, suppkey FROM lineorder WHERE orderkey >= 0"); err != nil {
		t.Fatal(err)
	}
	// Replay the sweep's final chunk as computed against the stale pre-clean
	// epoch: every group and cell is dropped as a duplicate at apply time.
	fd, _ := sweepRule().AsFD()
	idx := st0.reg.builtFDIndex("phi")
	scope, keys := idx.violatingScopeIn(0, st0.pt.Len(), func(value.MapKey) bool { return false })
	if len(keys) == 0 {
		t.Fatal("no violating groups in the pre-clean epoch")
	}
	d := idx.repair(detect.PTableView{P: st0.pt}, scope, fd, nil)
	s.w.submit(&applyReq{table: "lineorder", rule: "phi",
		delta: d, base: st0.pt, groups: keys, markSwitched: true})
	cur := s.w.current().tables["lineorder"]
	if cur.cost == nil || !cur.cost.Switched() {
		t.Fatal("markSwitched dropped when the final chunk coalesced as a duplicate")
	}
}
