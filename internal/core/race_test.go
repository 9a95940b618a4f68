package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/engine"
	"daisy/internal/expr"
	"daisy/internal/plan"
	"daisy/internal/ptable"
	"daisy/internal/table"
	"daisy/internal/trace"
	"daisy/internal/uncertain"
	"daisy/internal/value"
	"daisy/internal/workload"
)

// stressTable builds a lineorder-style relation with FD violations injected
// on two independent rhs columns, so two rules have real repair work and
// overlapping lhs-fix targets (both rules may fix orderkey cells — the
// merge-commutativity case).
func stressTable(rows int, seed int64) *table.Table {
	lo := workload.Lineorder(workload.SSBConfig{
		Rows: rows, DistinctOrders: rows / 5, DistinctSupps: rows / 20, Seed: seed,
	})
	workload.InjectFDErrors(lo, "orderkey", "suppkey", 0.4, 0.25, seed+1)
	workload.InjectFDErrors(lo, "orderkey", "custkey", 0.3, 0.2, seed+2)
	return lo
}

// Two FDs sharing the lhs attribute: both may fix orderkey cells, so racing
// applies exercise the Lemma 4 merge path (which must commute).
func stressRules() []*dc.Constraint {
	return []*dc.Constraint{
		dc.FD("phiSupp", "lineorder", "suppkey", "orderkey"),
		dc.FD("phiCust", "lineorder", "custkey", "orderkey"),
	}
}

// stressQueries is a mixed workload of overlapping range scans: racing
// goroutines repeatedly touch the same dirty groups, exercising the
// duplicate-fix coalescing path.
func stressQueries(n int) []string {
	qs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		lo := (i * 7) % 60
		qs = append(qs, fmt.Sprintf(
			"SELECT orderkey, suppkey FROM lineorder WHERE orderkey >= %d AND orderkey <= %d", lo, lo+25))
	}
	// One covering query so every violating group is cleaned by the end.
	qs = append(qs, "SELECT orderkey, suppkey FROM lineorder WHERE orderkey >= 0")
	return qs
}

var stressTableOnce struct {
	sync.Once
	tb *table.Table
}

func newStressSession(t *testing.T, opts Options) *Session {
	t.Helper()
	stressTableOnce.Do(func() { stressTableOnce.tb = stressTable(400, 11) })
	s := NewSession(opts)
	if err := s.Register(stressTableOnce.tb.Clone()); err != nil {
		t.Fatal(err)
	}
	for _, r := range stressRules() {
		if err := s.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestConcurrentQueriesConvergeToSequentialState is the tentpole guarantee:
// N racing Query callers over shared rules converge to a cleaned state that
// is byte-identical (full-precision fingerprint) to running the same
// workload sequentially, for any interleaving.
func TestConcurrentQueriesConvergeToSequentialState(t *testing.T) {
	queries := stressQueries(48)
	opts := Options{Strategy: StrategyIncremental}

	seq := newStressSession(t, opts)
	defer seq.Close()
	for _, q := range queries {
		if _, err := seq.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	want := seq.Table("lineorder").Fingerprint()

	const goroutines = 8
	for trial := 0; trial < 3; trial++ {
		conc := newStressSession(t, opts)
		var wg sync.WaitGroup
		errCh := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Each goroutine runs a rotated view of the workload so every
				// trial exercises different overlaps.
				for i := range queries {
					q := queries[(i+g*5+trial)%len(queries)]
					if _, err := conc.Query(q); err != nil {
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
		// Converge: one final covering pass (racing queries may each have
		// skipped groups the other checked; the covering query cleans any
		// remainder through the published epoch).
		if _, err := conc.Query(queries[len(queries)-1]); err != nil {
			t.Fatal(err)
		}
		got := conc.Table("lineorder").Fingerprint()
		if got != want {
			t.Fatalf("trial %d: converged concurrent state differs from sequential state\nconcurrent:\n%.2000s\nsequential:\n%.2000s", trial, got, want)
		}
		// Idempotence: replaying the whole workload against the converged
		// state must be a no-op — every group is checked, so the writer's
		// batched coalescing must drop every duplicate write-back without
		// re-merging a single cell.
		if trial == 0 {
			for _, q := range queries {
				if _, err := conc.Query(q); err != nil {
					t.Fatal(err)
				}
			}
			if replay := conc.Table("lineorder").Fingerprint(); replay != want {
				t.Fatalf("replaying the workload on the converged state changed it (duplicate write-backs not idempotent)")
			}
		}
		conc.Close()
	}
}

// TestBatchedWriteBacksCoalesceIdempotently submits two identical FD
// write-backs (computed against the same snapshot, the racing-duplicate
// shape) through one submitAll call, so they land in one coalesced batch:
// the second must be filtered against the first's batch-pending marks and
// the published state must be byte-identical to applying the fix once.
func TestBatchedWriteBacksCoalesceIdempotently(t *testing.T) {
	single := newCitySession(t, Options{Strategy: StrategyIncremental})
	defer single.Close()
	singleSnap := single.w.current()
	singleQC := &queryCtx{s: single, snap: singleSnap, opts: single.opts}
	var sm detect.Metrics
	if _, err := singleQC.cleanFD(singleSnap.tables["cities"], "cities", stRule(t), mustFD(t), []int{0, 1, 2}, nil, &sm, trace.Span{}); err != nil {
		t.Fatal(err)
	}
	singleQC.flush()
	want := single.Table("cities").Fingerprint()

	s := newCitySession(t, Options{Strategy: StrategyIncremental})
	defer s.Close()
	snap := s.w.current()
	st := snap.tables["cities"]
	var reqs []*applyReq
	for i := 0; i < 2; i++ {
		qc := &queryCtx{s: s, snap: snap, opts: s.opts}
		var m detect.Metrics
		if _, err := qc.cleanFD(st, "cities", stRule(t), mustFD(t), []int{0, 1, 2}, nil, &m, trace.Span{}); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, qc.pending...)
		qc.pending = nil
	}
	if len(reqs) != 2 {
		t.Fatalf("expected 2 buffered write-backs, got %d", len(reqs))
	}
	s.w.submitAll(reqs)
	if got := s.Table("cities").Fingerprint(); got != want {
		t.Errorf("duplicate write-backs in one batch diverged from a single apply:\n%s\nvs\n%s", got, want)
	}
	checked := s.w.current().tables["cities"].checked[stRule(t).Name]
	wantChecked := single.w.current().tables["cities"].checked[stRule(t).Name]
	if checked.len() != wantChecked.len() {
		t.Errorf("checked groups = %d, want %d", checked.len(), wantChecked.len())
	}
}

// TestConcurrentDCQueriesConverge exercises the general-DC path under racing
// callers with no lock between them: two queries may detect the same pair,
// and the range-set union must absorb it, so the converged state is
// byte-identical to the sequential run's. The mixed table has an FD fixing the
// same tax cells, so FD merges reweight ranges a published epoch shares.
func TestConcurrentDCQueriesConverge(t *testing.T) {
	queries := empQueries()
	for _, mixed := range []bool{false, true} {
		t.Run(fmt.Sprintf("mixed=%v", mixed), func(t *testing.T) {
			seq := newEmpSession(t, Options{Strategy: StrategyIncremental}, mixed)
			defer seq.Close()
			runQueries(t, seq, queries)
			want := seq.Table("emp").Fingerprint()

			conc := newEmpSession(t, Options{Strategy: StrategyIncremental}, mixed)
			defer conc.Close()
			// A reader fingerprints every epoch it sees while the queries
			// run; a published table must never change afterwards.
			stop := make(chan struct{})
			readerDone := make(chan struct{})
			seen := map[*ptable.PTable]string{}
			go func() {
				defer close(readerDone)
				for {
					if pt := conc.Table("emp"); seen[pt] == "" {
						seen[pt] = pt.Fingerprint()
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := range queries {
						if _, err := conc.Query(queries[(i+g)%len(queries)]); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(stop)
			<-readerDone
			for pt, fp := range seen {
				if got := pt.Fingerprint(); got != fp {
					t.Errorf("a published epoch changed after publication:\n%s\nvs\n%s", got, fp)
				}
			}
			if got := conc.Table("emp").Fingerprint(); got != want {
				t.Errorf("concurrent DC state differs from the sequential run:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestSnapshotIsolation: a query's result reflects the epoch it started on
// plus its own fixes, and the published state converges.
func TestSnapshotIsolation(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyIncremental})
	defer s.Close()
	before := s.Table("cities")
	if _, err := s.Query("SELECT zip, city FROM cities WHERE city = 'Los Angeles'"); err != nil {
		t.Fatal(err)
	}
	after := s.Table("cities")
	if before == after {
		t.Fatal("apply must publish a new epoch generation")
	}
	// The pre-query generation is untouched (snapshot readers keep a
	// consistent view).
	if before.DirtyTuples() != 0 {
		t.Error("older epoch mutated by copy-on-write apply")
	}
	if after.DirtyTuples() == 0 {
		t.Error("published epoch missing the applied fixes")
	}
}

// TestEpochAdvances: every apply batch publishes exactly one new epoch in
// the sequential case.
func TestEpochAdvances(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyIncremental})
	defer s.Close()
	e0 := s.Epoch()
	if _, err := s.Query("SELECT zip, city FROM cities WHERE city = 'Los Angeles'"); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() <= e0 {
		t.Fatalf("epoch did not advance: %d -> %d", e0, s.Epoch())
	}
}

// TestQueryAfterClose: Close is idempotent, and queries issued after Close
// fail fast with ErrSessionClosed instead of hanging or panicking.
func TestQueryAfterClose(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyIncremental})
	s.Close()
	s.Close() // idempotent
	if _, err := s.Query("SELECT zip, city FROM cities WHERE city = 'Los Angeles'"); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Query after Close = %v, want ErrSessionClosed", err)
	}
	if _, err := s.QueryContext(context.Background(), "SELECT zip, city FROM cities"); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("QueryContext after Close = %v, want ErrSessionClosed", err)
	}
	if s.Table("cities").DirtyTuples() != 0 {
		t.Error("rejected post-Close queries must not have cleaned anything")
	}
}

// TestInFlightWriteBackAfterClose: a query admitted before Close (here
// simulated by flushing a prepared write-back after the apply goroutine
// stopped) still applies its delta inline instead of deadlocking.
func TestInFlightWriteBackAfterClose(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyIncremental})
	snap := s.w.current()
	st := snap.tables["cities"]
	qc := &queryCtx{s: s, snap: snap, opts: s.opts}
	var m detect.Metrics
	if _, err := qc.cleanFD(st, "cities", stRule(t), mustFD(t), []int{0, 1, 2}, nil, &m, trace.Span{}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	qc.flush() // must apply inline, not hang on the stopped loop
	if s.Table("cities").DirtyTuples() == 0 {
		t.Error("inline apply after Close must still publish the delta")
	}
}

func stRule(t *testing.T) *dc.Constraint {
	t.Helper()
	return dc.FD("phi", "cities", "city", "zip")
}

func mustFD(t *testing.T) dc.FDSpec {
	t.Helper()
	fd, ok := stRule(t).AsFD()
	if !ok {
		t.Fatal("not an FD")
	}
	return fd
}

// TestZoneFilterOnPinnedEpochsDuringSweep has readers filter pinned epochs
// through the engine's zone-pruned base scan while a background sweep
// publishes an epoch per chunk, each cloning the segments (and zones) it
// fixes. Chunks are released one at a time, each once both readers have
// run full rounds on the previous one, so publications overlap the reads and
// every reader sees the chunk epochs. Every result must equal the EvalCell
// row loop over the same epoch. Run under -race in CI.
func TestZoneFilterOnPinnedEpochsDuringSweep(t *testing.T) {
	s := newSweepSession(t, Options{Strategy: StrategyIncremental}, sweepGroups, sweepDirtyGroups)
	defer s.Close()
	ref := func(col string) expr.ColRef { return expr.ColRef{Col: col} }
	preds := []expr.Pred{
		&expr.And{
			L: &expr.Cmp{Ref: ref("orderkey"), Op: dc.Geq, Val: value.NewInt(300)},
			R: &expr.Cmp{Ref: ref("orderkey"), Op: dc.Lt, Val: value.NewInt(316)},
		},
		&expr.Cmp{Ref: ref("suppkey"), Op: dc.Eq, Val: value.NewInt(1000 + sweepGroups + 5*(sweepGroups/sweepDirtyGroups))},
		&expr.Or{
			L: &expr.Cmp{Ref: ref("orderkey"), Op: dc.Lt, Val: value.NewInt(40)},
			R: &expr.Cmp{Ref: ref("suppkey"), Op: dc.Gt, Val: value.NewInt(1000 + sweepGroups - 20)},
		},
	}
	check := func(pt *ptable.PTable) error {
		for _, p := range preds {
			e := &engine.Executor{Tables: map[string]*ptable.PTable{"lineorder": pt}, Workers: 2}
			fr, err := e.Run(&plan.Select{Child: &plan.Scan{Table: "lineorder"}, Table: "lineorder", Pred: p})
			if err != nil {
				return err
			}
			var want []int
			for r, tup := range pt.Rows() {
				if p.EvalCell(func(ref expr.ColRef) *uncertain.Cell { return &tup.Cells[pt.Schema.MustIndex(ref.Col)] }) {
					want = append(want, r)
				}
			}
			if !slices.Equal(fr.Rows, want) {
				return fmt.Errorf("%s: zone filter kept %v, row loop %v", p, fr.Rows, want)
			}
		}
		return nil
	}

	allowed := holdSweeps(s, 0)
	if !s.CleanInBackground("lineorder", "phi") {
		t.Fatal("CleanInBackground refused a sweep")
	}
	var rounds [2]atomic.Int64 // per reader
	stop := make(chan struct{})
	errCh := make(chan error, 2)
	seen := make([]map[*ptable.PTable]bool, 2)
	var wg sync.WaitGroup
	for g := range seen {
		seen[g] = make(map[*ptable.PTable]bool)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pt := s.Table("lineorder") // pinned for the round
				seen[g][pt] = true
				if err := check(pt); err != nil {
					errCh <- err
					return
				}
				rounds[g].Add(1)
			}
		}()
	}
	sweep := func() CleaningJob {
		st := s.CleaningStatus()
		return st[len(st)-1]
	}
	deadline := time.Now().Add(20 * time.Second)
	wait := func(cond func() bool) {
		for !cond() && len(errCh) == 0 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
	}
	for !sweep().State.Terminal() && time.Now().Before(deadline) {
		// Release one chunk and wait until it published, then until each
		// reader has finished a round begun after the publish.
		chunks := sweep().ChunksDone
		allowed.Add(1)
		wait(func() bool { j := sweep(); return j.ChunksDone > chunks || j.State.Terminal() })
		r0, r1 := rounds[0].Load(), rounds[1].Load()
		wait(func() bool { return rounds[0].Load() >= r0+2 && rounds[1].Load() >= r1+2 })
	}
	allowed.Store(math.MaxInt64)
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := s.WaitCleaning(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	if st := lastSweep(t, s); st.State != CleaningDone {
		t.Fatalf("sweep state = %v, want done", st.State)
	}
	final := s.Table("lineorder")
	if final.DirtyTuples() == 0 {
		t.Fatal("the sweep fixed nothing; the test no longer exercises uncertain cells")
	}
	if len(seen[0]) < 3 {
		t.Fatalf("reader saw %d epochs, want the sweep's chunk epochs", len(seen[0]))
	}
	if err := check(final); err != nil {
		t.Fatal(err)
	}
}

// TestPinnedEpochCheckedSetsFrozen: a reader pinned to an epoch keeps seeing
// that epoch's checked sets, FD and DC, unchanged while later queries and a
// background sweep publish: the writer and queries extend clones, never a
// published set. Under -race, a write into a pinned set is a reported race
// with the reader.
func TestPinnedEpochCheckedSetsFrozen(t *testing.T) {
	s := newSweepSession(t, Options{Strategy: StrategyIncremental}, sweepGroups, sweepDirtyGroups)
	defer s.Close()
	if err := s.Register(empTable()); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(dc.MustParse("psi@emp: !(t1.salary<t2.salary & t1.tax>t2.tax)")); err != nil {
		t.Fatal(err)
	}
	fdQueries := sweepQueries(sweepGroups, sweepRangeGroups)
	var dcQueries []string
	for lo := 1000; lo < 3000; lo += 400 {
		dcQueries = append(dcQueries, fmt.Sprintf("SELECT salary, tax FROM emp WHERE salary >= %d AND salary < %d", lo, lo+400))
	}
	runQueries(t, s, []string{fdQueries[0], dcQueries[0]})

	snap := s.w.current()
	pinned := map[string]*posSet{
		"phi": snap.tables["lineorder"].checked["phi"],
		"psi": snap.tables["emp"].checked["psi"],
	}
	want := make(map[string][]int, len(pinned))
	for rule, set := range pinned {
		want[rule] = slices.Collect(set.all())
		if len(want[rule]) == 0 {
			t.Fatalf("the first queries checked nothing under %s", rule)
		}
	}
	same := func() bool {
		for rule, set := range pinned {
			if set.len() != len(want[rule]) || !slices.Equal(slices.Collect(set.all()), want[rule]) {
				return false
			}
		}
		return true
	}

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !same() {
				t.Error("a pinned epoch's checked sets changed under a later publish")
				return
			}
		}
	}()
	var writers sync.WaitGroup
	for _, qs := range [][]string{fdQueries[1:], dcQueries[1:]} {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for _, q := range qs {
				if _, err := s.Query(q); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	if !s.CleanInBackground("lineorder", "phi") {
		t.Error("the sweep did not start")
	}
	writers.Wait()
	if err := s.WaitCleaning(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	reader.Wait()

	if !same() {
		t.Fatal("a pinned epoch's checked sets changed under a later publish")
	}
	latest := s.w.current()
	if phi, psi := latest.tables["lineorder"].checked["phi"].len(), latest.tables["emp"].checked["psi"].len(); phi <= len(want["phi"]) || psi <= len(want["psi"]) {
		t.Fatalf("later epochs checked nothing new: phi %d→%d, psi %d→%d",
			len(want["phi"]), phi, len(want["psi"]), psi)
	}
}
