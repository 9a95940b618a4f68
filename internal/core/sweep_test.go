package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/ptable"
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
// six segments), 150 dirty groups, 16-group ranges, pruning disabled so
// every query charges the model.
func sweepOpts() Options {
	return Options{Strategy: StrategyAuto, DisableStatsPruning: true}
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
	if job.State != CleaningDone {
		t.Fatalf("job state = %v, want done", job.State)
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
func lastSweep(t *testing.T, s *Session) CleaningJob {
	t.Helper()
	var last *CleaningJob
	for _, st := range s.CleaningStatus() {
		if !st.State.Terminal() {
			t.Fatalf("sweep %s/%s not terminal: %v", st.Table, st.Rule, st.State)
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
		if st := lastSweep(t, s); st.State != CleaningDone {
			t.Fatalf("last sweep state = %v, want done", st.State)
		}
		if got := s.Table("lineorder").Fingerprint(); got != want {
			t.Fatalf("trial %d: concurrent quiesced state differs from synchronous reference", trial)
		}
		s.Close()
	}
}

// TestMidSweepCancellationLeavesResumableState drives the sweep's chunk
// body directly (cancellation is cooperative at chunk boundaries, so
// stopping after k chunks IS the canceled state): the partial state is valid
// — every completed chunk's groups repaired exactly, everything else
// untouched — and both a resumed sweep and an ordinary incremental covering
// query finish it to the reference bytes.
func TestMidSweepCancellationLeavesResumableState(t *testing.T) {
	ref := newSweepSession(t, Options{Strategy: StrategyIncremental, DisableStatsPruning: true}, sweepGroups, sweepDirtyGroups)
	defer ref.Close()
	if _, err := ref.Query("SELECT orderkey, suppkey FROM lineorder WHERE orderkey >= 0"); err != nil {
		t.Fatal(err)
	}
	want := ref.Table("lineorder").Fingerprint()

	fd, _ := sweepRule().AsFD()
	// chunk runs one sweep chunk over [lo, hi), as the runner does.
	chunk := func(s *Session, lo, hi int) { s.sweepChunk("lineorder", sweepRule(), fd, lo, hi) }

	// Resume path 1: run the first half in 512-row chunks, "cancel", resume
	// the rest under a different (unaligned) chunking — group anchoring makes
	// chunk scopes partition identically for any range choice.
	const step = 512
	s1 := newSweepSession(t, sweepOpts(), sweepGroups, sweepDirtyGroups)
	defer s1.Close()
	total := s1.Table("lineorder").Len()
	if total < 3*step {
		t.Fatalf("rows = %d, want >= %d for a mid-sweep cut", total, 3*step)
	}
	cut := (total / step / 2) * step
	for lo := 0; lo < cut; lo += step {
		chunk(s1, lo, lo+step)
	}
	partial := s1.Table("lineorder").Fingerprint()
	if partial == want {
		t.Fatal("mid-sweep state already converged; cut point too late to test resume")
	}
	// Valid state: the canceled sweep must not have half-applied a chunk —
	// a fresh sweep resumes purely from the checked-set bookkeeping.
	for lo := 0; lo < total; lo += 700 {
		chunk(s1, lo, min(lo+700, total))
	}
	if got := s1.Table("lineorder").Fingerprint(); got != want {
		t.Error("resumed sweep diverged from reference")
	}

	// Resume path 2: an ordinary incremental covering query finishes the
	// canceled sweep's work through the epoch bookkeeping alone.
	s2 := newSweepSession(t, sweepOpts(), sweepGroups, sweepDirtyGroups)
	defer s2.Close()
	for lo := 0; lo < cut; lo += step {
		chunk(s2, lo, lo+step)
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
	if st := lastSweep(t, s); st.State != CleaningDone {
		t.Fatalf("restarted sweep state = %v, want done", st.State)
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
	scope, anchors := idx.violatingScopeIn(0, st0.pt.Len(), nil)
	if len(anchors) == 0 {
		t.Fatal("no violating groups in the pre-clean epoch")
	}
	d := idx.repair(detect.PTableView{P: st0.pt}, scope, fd, nil)
	s.w.submit(&applyReq{table: "lineorder", rule: "phi",
		delta: d, base: st0.pt, marks: anchors, markSwitched: true})
	cur := s.w.current().tables["lineorder"]
	if cur.cost == nil || !cur.cost.Switched() {
		t.Fatal("markSwitched dropped when the final chunk coalesced as a duplicate")
	}
}

// holdSweeps raises the sweeper's backpressure signal after n chunk
// boundaries have passed, and keeps it raised until the returned allowance
// grows: the way these tests stop a real sweep at a chosen boundary. Call it
// before the session's first sweep starts.
func holdSweeps(s *Session, n int64) *atomic.Int64 {
	var allowed, passed atomic.Int64
	allowed.Store(n)
	s.bg.hold = func() bool {
		if passed.Load() >= allowed.Load() {
			return true
		}
		passed.Add(1)
		return false
	}
	return &allowed
}

// awaitSweep polls the status of the sweep of (table, rule) started last
// until cond holds.
func awaitSweep(t *testing.T, s *Session, table, rule string, cond func(CleaningJob) bool) CleaningJob {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var last CleaningJob
		for _, st := range s.CleaningStatus() {
			if st.Table == table && st.Rule == rule {
				last = st
			}
		}
		if last.Table != "" && cond(last) {
			return last
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s/%s never reached the awaited state; last %+v", table, rule, last)
		}
		time.Sleep(time.Millisecond)
	}
}

// heldAt reports a sweep parked at the boundary after its chunks-th chunk,
// in its yields-th backpressure wait.
func heldAt(chunks, yields int) func(CleaningJob) bool {
	return func(st CleaningJob) bool { return st.ChunksDone == chunks && st.BackpressureWaits == yields }
}

func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestJobRunsAllChunksAndReportsProgress steps a real sweep through every
// chunk boundary: each chunk advances RowsDone by the size the last
// boundary reported, ChunksDone by one, and GroupsCleaned to the dirty
// groups anchored in the rows done so far, until the sweep is Done with
// every row covered. Holding each boundary makes every chunk follow a yield,
// so the size stays at one segment and the chunk count is exact.
func TestJobRunsAllChunksAndReportsProgress(t *testing.T) {
	s := newSweepSession(t, Options{Strategy: StrategyIncremental}, sweepGroups, sweepDirtyGroups)
	defer s.Close()
	const seg = ptable.SegmentSize
	total := 4 * sweepGroups
	chunks := total / seg
	stride := sweepGroups / sweepDirtyGroups
	dirtyIn := func(rows int) int { return (rows/4 + stride - 1) / stride } // groups 0, stride, 2*stride, ... below rows/4
	allowed := holdSweeps(s, 0)
	if !s.CleanInBackground("lineorder", "phi") {
		t.Fatal("CleanInBackground refused a sweep")
	}
	prev := awaitSweep(t, s, "lineorder", "phi", heldAt(0, 1))
	if prev.State != CleaningPending || prev.RowsDone != 0 || prev.RowsTotal != total || prev.ChunkRows != seg {
		t.Fatalf("sweep before its first chunk = %+v, want pending 0/%d rows, next chunk %d", prev, total, seg)
	}
	for k := 1; k < chunks; k++ {
		allowed.Store(int64(k))
		st := awaitSweep(t, s, "lineorder", "phi", heldAt(k, k+1))
		if st.State != CleaningRunning || st.RowsDone != prev.RowsDone+prev.ChunkRows || st.RowsTotal != total {
			t.Fatalf("after chunk %d: %+v, want running with %d/%d rows", k, st, prev.RowsDone+prev.ChunkRows, total)
		}
		if st.GroupsCleaned != dirtyIn(st.RowsDone) || st.CellsUpdated < st.GroupsCleaned || st.CellsUpdated < prev.CellsUpdated {
			t.Fatalf("after chunk %d: %d groups / %d cells (before %d cells), want %d groups and at least a cell each",
				k, st.GroupsCleaned, st.CellsUpdated, prev.CellsUpdated, dirtyIn(st.RowsDone))
		}
		prev = st
	}
	allowed.Store(math.MaxInt64)
	if err := s.WaitCleaning(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	st := lastSweep(t, s)
	if st.State != CleaningDone || st.RowsDone != total || st.ChunksDone != chunks {
		t.Errorf("finished sweep = %+v, want done %d/%d rows in %d chunks", st, total, total, chunks)
	}
	if st.GroupsCleaned != dirtyIn(total) || st.CellsUpdated < st.GroupsCleaned {
		t.Errorf("work counters = %d groups / %d cells, want %d groups", st.GroupsCleaned, st.CellsUpdated, dirtyIn(total))
	}
}

// TestSweepDedupsPerTableRule: starting a live sweep joins it, another rule
// gets its own sweep, and a finished pair accepts a fresh one.
func TestSweepDedupsPerTableRule(t *testing.T) {
	s := newSweepSession(t, Options{Strategy: StrategyIncremental}, sweepGroups, sweepDirtyGroups)
	defer s.Close()
	if err := s.AddRule(dc.FD("phi2", "lineorder", "orderkey", "suppkey")); err != nil {
		t.Fatal(err)
	}
	allowed := holdSweeps(s, 0)
	if !s.CleanInBackground("lineorder", "phi") || !s.CleanInBackground("lineorder", "phi") {
		t.Fatal("CleanInBackground refused a sweep")
	}
	if n := len(s.CleaningStatus()); n != 1 {
		t.Fatalf("two starts of a live sweep gave %d sweeps, want 1", n)
	}
	if !s.CleanInBackground("lineorder", "phi2") {
		t.Fatal("CleanInBackground refused a second rule")
	}
	if n := len(s.CleaningStatus()); n != 2 {
		t.Fatalf("a second rule gave %d sweeps, want 2", n)
	}
	allowed.Store(math.MaxInt64)
	if err := s.WaitCleaning(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	if !s.CleanInBackground("lineorder", "phi") {
		t.Fatal("CleanInBackground refused a finished pair")
	}
	if err := s.WaitCleaning(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	st := s.CleaningStatus()
	if len(st) != 3 {
		t.Fatalf("history = %d sweeps, want 3", len(st))
	}
	for _, j := range st {
		if j.State != CleaningDone {
			t.Errorf("sweep %s/%s = %v, want done", j.Table, j.Rule, j.State)
		}
	}
}

// TestCancelStopsAtChunkBoundaryAndStateIsTerminal: a canceled sweep stops at the next
// boundary with its completed chunk published, and the pair is free again.
func TestCancelStopsAtChunkBoundaryAndStateIsTerminal(t *testing.T) {
	s := newSweepSession(t, Options{Strategy: StrategyIncremental}, sweepGroups, sweepDirtyGroups)
	defer s.Close()
	allowed := holdSweeps(s, 1)
	s.CleanInBackground("lineorder", "phi")
	awaitSweep(t, s, "lineorder", "phi", heldAt(1, 1))
	if !s.CancelCleaning("lineorder", "phi") {
		t.Fatal("CancelCleaning found no live sweep")
	}
	if err := s.WaitCleaning(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	st := lastSweep(t, s)
	if st.State != CleaningCanceled || st.ChunksDone != 1 || st.RowsDone != ptable.SegmentSize || st.RowsDone >= st.RowsTotal {
		t.Fatalf("canceled sweep = %+v, want canceled after one %d-row chunk", st, ptable.SegmentSize)
	}
	if s.CancelCleaning("lineorder", "phi") {
		t.Error("CancelCleaning found a live sweep after the cancel landed")
	}
	allowed.Store(math.MaxInt64)
	if !s.CleanInBackground("lineorder", "phi") {
		t.Fatal("canceled pair refused a fresh sweep")
	}
	if err := s.WaitCleaning(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	if st := lastSweep(t, s); st.State != CleaningDone || len(s.CleaningStatus()) != 2 {
		t.Errorf("restarted sweep = %+v of %d, want the second sweep done", st, len(s.CleaningStatus()))
	}
}

// TestCloseCancelsPendingAndRunning: Close stops the running sweep at
// its boundary and the queued one before it starts, and refuses new sweeps.
func TestCloseCancelsPendingAndRunning(t *testing.T) {
	s := newSweepSession(t, Options{Strategy: StrategyIncremental}, sweepGroups, sweepDirtyGroups)
	if err := s.AddRule(dc.FD("phi2", "lineorder", "orderkey", "suppkey")); err != nil {
		t.Fatal(err)
	}
	holdSweeps(s, 1)
	s.CleanInBackground("lineorder", "phi")
	s.CleanInBackground("lineorder", "phi2") // queued behind phi
	awaitSweep(t, s, "lineorder", "phi", heldAt(1, 1))
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung with a sweep parked at a boundary")
	}
	want := map[string]int{"phi": 1, "phi2": 0} // chunks run
	for _, st := range s.CleaningStatus() {
		if st.State != CleaningCanceled || st.ChunksDone != want[st.Rule] {
			t.Errorf("sweep %s after Close = %v with %d chunks, want canceled with %d", st.Rule, st.State, st.ChunksDone, want[st.Rule])
		}
	}
	s.Close() // idempotent
	if s.CleanInBackground("lineorder", "phi") {
		t.Error("CleanInBackground accepted a sweep after Close")
	}
}

// TestWaitHonorsContext: Wait returns the context's error while a
// sweep is live, and nil once it finished.
func TestWaitHonorsContext(t *testing.T) {
	s := newSweepSession(t, Options{Strategy: StrategyIncremental}, sweepGroups, sweepDirtyGroups)
	defer s.Close()
	allowed := holdSweeps(s, 0)
	s.CleanInBackground("lineorder", "phi")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.WaitCleaning(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitCleaning = %v, want deadline exceeded", err)
	}
	allowed.Store(math.MaxInt64)
	if err := s.WaitCleaning(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
}

// TestStatusETAAppearsMidSweep: a sweep that has run a chunk reports an
// ETA from its pace; a terminal one reports none but keeps its elapsed time.
func TestStatusETAAppearsMidSweep(t *testing.T) {
	s := newSweepSession(t, Options{Strategy: StrategyIncremental}, sweepGroups, sweepDirtyGroups)
	defer s.Close()
	allowed := holdSweeps(s, 1)
	s.CleanInBackground("lineorder", "phi")
	if st := awaitSweep(t, s, "lineorder", "phi", heldAt(1, 1)); st.ETA <= 0 {
		t.Errorf("ETA mid-sweep = %v, want > 0", st.ETA)
	}
	allowed.Store(math.MaxInt64)
	if err := s.WaitCleaning(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	if st := lastSweep(t, s); st.ETA != 0 || st.Elapsed <= 0 {
		t.Errorf("terminal sweep = %+v, want ETA 0 and Elapsed > 0", st)
	}
}

// TestStatusETAWithoutPaceSignal: a live sweep whose chunks all resolved to
// 0ns on a coarse clock has no pace signal, so its ETA stays at the
// "unknown" zero instead of extrapolating a zero rate.
func TestStatusETAWithoutPaceSignal(t *testing.T) {
	j := &sweep{state: CleaningRunning, rowsDone: 512, rowsTotal: 4096, chunksDone: 1}
	if eta := j.status().ETA; eta != 0 {
		t.Errorf("ETA with zero elapsed = %v, want 0 (unknown)", eta)
	}
	j.elapsed = 10 * time.Millisecond
	if eta := j.status().ETA; eta <= 0 {
		t.Errorf("ETA with pace signal = %v, want > 0", eta)
	}
}

// TestBackpressureYieldsBetweenChunks: no chunk runs while query
// write-backs are queued, and the sweep counts the wait and finishes once
// the queue drains.
func TestBackpressureYieldsBetweenChunks(t *testing.T) {
	s := newSweepSession(t, Options{Strategy: StrategyIncremental}, sweepGroups, sweepDirtyGroups)
	defer s.Close()
	allowed := holdSweeps(s, 0)
	s.CleanInBackground("lineorder", "phi")
	awaitSweep(t, s, "lineorder", "phi", heldAt(0, 1))
	time.Sleep(20 * time.Millisecond)
	if st := lastState(s); st != CleaningPending {
		t.Fatalf("sweep %v under backpressure, want pending", st)
	}
	allowed.Store(math.MaxInt64)
	if err := s.WaitCleaning(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	if st := lastSweep(t, s); st.State != CleaningDone || st.BackpressureWaits != 1 {
		t.Errorf("sweep = %+v, want done after one backpressure wait", st)
	}
}

// TestEmptyRelationRunsOneChunk: a sweep over no rows still runs one
// (0, 0) chunk, which records the switch, and finishes Done.
func TestEmptyRelationRunsOneChunk(t *testing.T) {
	s := NewSession(Options{Strategy: StrategyIncremental})
	defer s.Close()
	if err := s.Register(table.New("lineorder", sweepTable(1, 1).Schema)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(sweepRule()); err != nil {
		t.Fatal(err)
	}
	if !s.CleanInBackground("lineorder", "phi") {
		t.Fatal("CleanInBackground refused an empty relation")
	}
	if err := s.WaitCleaning(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	if st := lastSweep(t, s); st.State != CleaningDone || st.ChunksDone != 1 || st.RowsDone != 0 || st.RowsTotal != 0 {
		t.Errorf("empty sweep = %+v, want done after one (0, 0) chunk", st)
	}
	if c := s.w.current().tables["lineorder"].cost; c == nil || !c.Switched() {
		t.Error("the empty sweep's chunk did not record the switch")
	}
}

// TestNextChunkRowsAdaptation pins the sizing policy: latency steering
// bounded to [1/2x, 2x] per step, halving after a yield, alignment to
// segments, the [1, 128]-segment clamp, and the no-signal rule for short
// final chunks.
func TestNextChunkRowsAdaptation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cur  int
		ran  int
		took time.Duration
		bp   bool
		want int
	}{
		{"fast chunk grows at most 2x", 4096, 4096, time.Millisecond, false, 8192},
		{"zero-latency full chunk grows 2x", 4096, 4096, 0, false, 8192},
		{"negative-latency full chunk grows 2x", 4096, 4096, -time.Millisecond, false, 8192},
		{"slow chunk shrinks at most 2x", 4096, 4096, 40 * time.Millisecond, false, 2048},
		{"near target scales and aligns down", 4096, 4096, 4 * time.Millisecond, false, 5120},
		{"backpressure halves", 4096, 4096, time.Millisecond, true, 2048},
		{"short final chunk carries no signal", 4096, 100, time.Nanosecond, false, 4096},
		{"min clamp", 512, 512, 50 * time.Millisecond, false, 512},
		{"max clamp", 1 << 16, 1 << 16, time.Nanosecond, false, 1 << 16},
		{"backpressure respects min clamp", 512, 512, time.Millisecond, true, 512},
	} {
		if got := nextChunkRows(tc.cur, tc.ran, tc.took, tc.bp); got != tc.want {
			t.Errorf("%s: nextChunkRows(%d, %d, %v, %v) = %d, want %d",
				tc.name, tc.cur, tc.ran, tc.took, tc.bp, got, tc.want)
		}
	}
}

// TestAdaptiveChunksGrowWhenFast: chunks far under the latency target
// double per step from the first chunk's one segment until the max clamp,
// so a sweep over cheap (mostly clean) regions coalesces instead of paying
// an epoch per segment. The ranges are cut the way sweepLocked cuts them.
func TestAdaptiveChunksGrowWhenFast(t *testing.T) {
	const seg = ptable.SegmentSize
	// 1+2+...+64 = 127 segments of growth, then two chunks at the clamp
	// (128 segments = sweepMaxChunk) and a short final one.
	total := (127 + 2*128 + 3) * seg
	var want [][2]int
	lo := 0
	for _, segs := range []int{1, 2, 4, 8, 16, 32, 64, 128, 128, 3} {
		want = append(want, [2]int{lo, lo + segs*seg})
		lo += segs * seg
	}
	for _, took := range []time.Duration{0, time.Microsecond} {
		var got [][2]int
		for lo, rows := 0, seg; lo < total; {
			hi := min(lo+rows, total)
			got = append(got, [2]int{lo, hi})
			rows = nextChunkRows(rows, hi-lo, took, false)
			lo = hi
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("chunks taking %v: ranges %v, want %v", took, got, want)
		}
	}
	if sweepMaxChunk != 128*seg {
		t.Errorf("sweepMaxChunk = %d rows, want 128 segments", sweepMaxChunk)
	}
}

// TestBackpressureHalvesNextChunk: the chunk that follows a backpressure wait sets
// the size after it to half its own, whatever its latency, so queries get
// epoch boundaries to slot into sooner while pressure persists.
func TestBackpressureHalvesNextChunk(t *testing.T) {
	s := newSweepSession(t, Options{Strategy: StrategyIncremental}, 4096, 150)
	defer s.Close()
	allowed := holdSweeps(s, 1)
	s.CleanInBackground("lineorder", "phi")
	awaitSweep(t, s, "lineorder", "phi", heldAt(1, 1))
	// Parked after one chunk with one yield counted: size the chunk that
	// follows the wait at 8 segments.
	s.bg.mu.Lock()
	s.bg.live[sweepRef{table: "lineorder", rule: "phi"}].chunkRows = 8 * ptable.SegmentSize
	s.bg.mu.Unlock()
	allowed.Store(2)
	st := awaitSweep(t, s, "lineorder", "phi", heldAt(2, 2))
	if st.RowsDone != 9*ptable.SegmentSize || st.ChunkRows != 4*ptable.SegmentSize {
		t.Errorf("after the yielded chunk: %d rows done, next chunk %d rows; want %d and %d",
			st.RowsDone, st.ChunkRows, 9*ptable.SegmentSize, 4*ptable.SegmentSize)
	}
	allowed.Store(math.MaxInt64)
	if err := s.WaitCleaning(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
}

// TestCancelDuringBackpressureWait: CancelCleaning stops a sweep that is
// waiting out backpressure, without the signal ever dropping.
func TestCancelDuringBackpressureWait(t *testing.T) {
	s := newSweepSession(t, Options{Strategy: StrategyIncremental}, sweepGroups, sweepDirtyGroups)
	defer s.Close()
	holdSweeps(s, 0) // raised for good
	s.CleanInBackground("lineorder", "phi")
	awaitSweep(t, s, "lineorder", "phi", heldAt(0, 1))
	if !s.CancelCleaning("lineorder", "phi") {
		t.Fatal("CancelCleaning found no live sweep")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if err := s.WaitCleaning(ctx); err != nil {
		t.Fatalf("WaitCleaning after cancel under backpressure: %v (state %v)", err, lastState(s))
	}
	if st := lastSweep(t, s); st.State != CleaningCanceled || st.ChunksDone != 0 {
		t.Errorf("sweep = %+v, want canceled before its first chunk", st)
	}
}

func lastState(s *Session) CleaningState {
	st := s.CleaningStatus()
	return st[len(st)-1].State
}
