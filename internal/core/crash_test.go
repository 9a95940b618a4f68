package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"daisy/internal/dc"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/value"
	"daisy/internal/vfs"
	"daisy/internal/wal"
)

// Crash-injection harness. The oracle run executes a seeded FD+DC scenario in
// a durable directory, capturing the state fingerprint at every WAL-logged
// publish (onPublish fires under the writer mutex, so the pair (lsn,
// fingerprint) is exact). The kill loop then reconstructs, for every record
// boundary, the directory a SIGKILL at that instant would have left —
// checkpoint files published at or before the boundary plus the WAL prefix —
// reopens it, and asserts the recovered fingerprint matches the oracle's at
// that exact record.

// durableOpts is the common durable configuration of the crash tests:
// automatic checkpointing off (tests place checkpoints deterministically) and
// one worker so detection-order-dependent DC scenarios are reproducible.
func durableOpts(dir string) Options {
	return Options{Dir: dir, Strategy: StrategyIncremental, Workers: 1, CheckpointBytes: -1}
}

// captureFingerprints hooks the writer's publish path; every logged publish
// records the fingerprint the state had the instant that LSN hit the log.
// Install before any mutation.
func captureFingerprints(s *Session) map[uint64]string {
	fps := make(map[uint64]string)
	s.w.onPublish = func(lsn uint64, snap *snapshot) {
		if lsn != 0 {
			fps[lsn] = stateFingerprint(snap)
		}
	}
	return fps
}

// empTable is the general-DC half of the seeded scenario (salary/tax
// monotonicity inversions).
func empTable() *table.Table {
	sch := schema.MustNew(
		schema.Column{Name: "salary", Kind: value.Float},
		schema.Column{Name: "tax", Kind: value.Float},
	)
	tb := table.New("emp", sch)
	for i := 0; i < 20; i++ {
		tax := 0.1 + float64(i)*0.01
		if i%5 == 0 {
			tax = 0.5 - tax
		}
		tb.MustAppend(table.Row{value.NewFloat(float64(1000 + i*100)), value.NewFloat(tax)})
	}
	return tb
}

// runCrashScenario drives the seeded FD+DC workload against an open durable
// session: registrations, rule binds, FD range queries that repair, repeated
// queries that coalesce to skips, DC queries that grow the checked-tuple
// sets, and a rule added mid-history. mid, when non-nil, runs between the
// two query phases (the checkpoint tests inject a checkpoint there).
func runCrashScenario(t *testing.T, s *Session, mid func()) {
	t.Helper()
	if err := s.Register(citiesTable()); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(empTable()); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(dc.FD("phi", "cities", "city", "zip")); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(dc.MustParse("psi@emp: !(t1.salary<t2.salary & t1.tax>t2.tax)")); err != nil {
		t.Fatal(err)
	}
	phase1 := []string{
		"SELECT zip, city FROM cities WHERE city = 'Los Angeles'",
		"SELECT salary FROM emp WHERE salary < 1500",
	}
	for _, q := range phase1 {
		if _, err := s.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if mid != nil {
		mid()
	}
	phase2 := []string{
		"SELECT zip, city FROM cities WHERE zip = 9001", // repaired + skip mix
		"SELECT salary FROM emp WHERE salary >= 1500 AND salary < 2500",
		"SELECT salary FROM emp WHERE salary < 1500", // converging repeat
	}
	for _, q := range phase2 {
		if _, err := s.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	// Register a relation mid-history, after rules exist: replay must install
	// it through the same path and bind the rules scoped to it.
	towns := citiesTable()
	towns.Name = "towns"
	if err := s.Register(towns); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(dc.FD("phi2", "cities", "city", "zip")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("SELECT zip, city FROM cities WHERE city = 'Los Angeles'"); err != nil {
		t.Fatal(err)
	}
}

// killDir reconstructs the directory a crash at the end of record k would
// have left: every checkpoint published at or before that LSN (a checkpoint
// file with a later LSN cannot exist yet at that instant), every WAL file
// before the record's, and the record's own file truncated at the record
// boundary.
func killDir(t *testing.T, src string, recs []wal.Record, k int) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".ckpt") {
			var lsn uint64
			if _, err := fmt.Sscanf(name, "ckpt-%016x.ckpt", &lsn); err != nil || lsn > recs[k].LSN {
				continue
			}
			copyFile(t, filepath.Join(src, name), filepath.Join(dst, name))
		}
	}
	for i := 0; i <= k; i++ {
		if recs[i].File == recs[k].File {
			// Truncate the boundary file at the record's end offset.
			buf, err := os.ReadFile(recs[k].File)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, filepath.Base(recs[k].File)), buf[:recs[k].End], 0o644); err != nil {
				t.Fatal(err)
			}
			break
		}
		if i == 0 || recs[i].File != recs[i-1].File {
			copyFile(t, recs[i].File, filepath.Join(dst, filepath.Base(recs[i].File)))
		}
	}
	return dst
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	buf, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// expectedAt returns the oracle fingerprint as of record k: the fingerprint
// captured at its LSN, or — for records that publish no state change (sweep
// markers) — at the nearest earlier logged publish.
func expectedAt(t *testing.T, fps map[uint64]string, recs []wal.Record, k int) string {
	t.Helper()
	for i := k; i >= 0; i-- {
		if fp, ok := fps[recs[i].LSN]; ok {
			return fp
		}
	}
	t.Fatalf("no oracle fingerprint at or before record %d (lsn %d)", k, recs[k].LSN)
	return ""
}

// TestDurableRoundTrip: close/reopen restores the exact state and the
// reopened session keeps serving and journaling.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	runCrashScenario(t, s, nil)
	if err := s.DurabilityError(); err != nil {
		t.Fatalf("durability degraded: %v", err)
	}
	want := s.StateFingerprint()
	s.Close()

	s2, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.StateFingerprint(); got != want {
		t.Fatalf("reopened fingerprint differs from pre-close state:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// The reopened session serves and journals further work.
	if _, err := s2.Query("SELECT zip, city FROM cities WHERE zip = 10001"); err != nil {
		t.Fatal(err)
	}
	if err := s2.DurabilityError(); err != nil {
		t.Fatalf("durability degraded after reopen: %v", err)
	}
}

// TestCrashAtEveryRecordBoundary is the kill-anywhere property: for every
// record boundary in the scenario's WAL, a session reopened from exactly that
// prefix fingerprints byte-identically to the in-memory oracle at the instant
// the record was logged.
func TestCrashAtEveryRecordBoundary(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	fps := captureFingerprints(s)
	runCrashScenario(t, s, nil)
	s.Close()

	recs, err := wal.RecordsFS(vfs.OS{}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 8 {
		t.Fatalf("scenario produced only %d records", len(recs))
	}
	for k := range recs {
		sub := killDir(t, dir, recs, k)
		s2, err := Open(durableOpts(sub))
		if err != nil {
			t.Fatalf("kill at record %d (lsn %d): reopen: %v", k, recs[k].LSN, err)
		}
		got := s2.StateFingerprint()
		s2.Close()
		if want := expectedAt(t, fps, recs, k); got != want {
			t.Fatalf("kill at record %d (lsn %d): recovered state diverges from oracle", k, recs[k].LSN)
		}
	}
}

// TestCrashAtCheckpointBoundaries kills around a mid-scenario checkpoint: at
// the checkpoint exactly (no WAL suffix), at every record boundary after it
// (checkpoint + suffix replay), and with an interrupted later checkpoint
// publication (stale .tmp) that recovery must ignore.
func TestCrashAtCheckpointBoundaries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	fps := captureFingerprints(s)
	var fpAtCkpt string
	runCrashScenario(t, s, func() {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		fpAtCkpt = s.StateFingerprint()
	})
	s.Close()

	ckLSN, _, ok, err := wal.LatestCheckpointFS(vfs.OS{}, dir)
	if err != nil || !ok {
		t.Fatalf("no checkpoint after scenario: %v", err)
	}

	// Kill exactly at the checkpoint: recovery from the image alone.
	atCkpt := t.TempDir()
	copyFile(t, filepath.Join(dir, fmt.Sprintf("ckpt-%016x.ckpt", ckLSN)), filepath.Join(atCkpt, fmt.Sprintf("ckpt-%016x.ckpt", ckLSN)))
	s2, err := Open(durableOpts(atCkpt))
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.StateFingerprint(); got != fpAtCkpt {
		t.Fatal("checkpoint-only recovery diverges from the checkpointed state")
	}
	// The LSN sequence must not restart below the checkpoint. The full scan
	// repairs the still-dirty 10001 group — guaranteed fresh durable work at
	// this recovery point (phase1 only cleaned the Los Angeles scope).
	if _, err := s2.Query("SELECT zip, city FROM cities"); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if recs, err := wal.RecordsFS(vfs.OS{}, atCkpt, ckLSN); err != nil || len(recs) == 0 {
		t.Fatalf("post-recovery journaling: recs=%d err=%v", len(recs), err)
	}

	// Kill at every record boundary past the checkpoint (the checkpoint's
	// prune already retired the covered files, so all remaining records
	// replay on top of the image).
	recs, err := wal.RecordsFS(vfs.OS{}, dir, ckLSN)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3 {
		t.Fatalf("only %d records after checkpoint", len(recs))
	}
	for k := range recs {
		sub := killDir(t, dir, recs, k)
		s3, err := Open(durableOpts(sub))
		if err != nil {
			t.Fatalf("kill at post-ckpt record %d: reopen: %v", k, err)
		}
		got := s3.StateFingerprint()
		s3.Close()
		if want := expectedAt(t, fps, recs, k); got != want {
			t.Fatalf("kill at post-ckpt record %d (lsn %d): recovered state diverges", k, recs[k].LSN)
		}
	}

	// A crash mid-checkpoint-publication leaves a stale .tmp; recovery must
	// use the valid checkpoint and the full suffix.
	tornDir := killDir(t, dir, recs, len(recs)-1)
	if err := os.WriteFile(filepath.Join(tornDir, fmt.Sprintf("ckpt-%016x.ckpt.tmp", recs[len(recs)-1].LSN)), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s4, err := Open(durableOpts(tornDir))
	if err != nil {
		t.Fatal(err)
	}
	got := s4.StateFingerprint()
	s4.Close()
	if want := expectedAt(t, fps, recs, len(recs)-1); got != want {
		t.Fatal("recovery with a torn checkpoint publication diverges")
	}
}

// TestCrashMidSweepResumes: a kill while a background full-clean sweep is in
// flight must, on reopen, resume the sweep from the recovered checked-set
// bookkeeping — cleaning only the remainder — and converge to the same bytes
// as the uninterrupted run.
func TestCrashMidSweepResumes(t *testing.T) {
	dir := t.TempDir()
	opts := sweepOpts()
	opts.Dir = dir
	opts.CheckpointBytes = -1
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Register(sweepTable(sweepGroups, sweepDirtyGroups))
	s.AddRule(sweepRule())
	queries := sweepQueries(sweepGroups, sweepRangeGroups)
	if i, strat, _ := runUntilFlip(t, s, queries); i < 0 || strat != "background" {
		t.Fatalf("no background switch (i=%d strat=%q)", i, strat)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.WaitCleaning(ctx); err != nil {
		t.Fatal(err)
	}
	var oracleSweepGroups int
	for _, st := range s.CleaningStatus() {
		oracleSweepGroups += st.GroupsCleaned
	}
	if oracleSweepGroups == 0 {
		t.Fatal("oracle sweep repaired nothing; scenario is mis-seeded")
	}
	want := s.StateFingerprint()
	s.Close()

	recs, err := wal.RecordsFS(vfs.OS{}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	sweepIdx := -1
	for i, r := range recs {
		if len(r.Payload) > 0 && r.Payload[0] == recSweep {
			sweepIdx = i
			break
		}
	}
	if sweepIdx < 0 || sweepIdx >= len(recs)-2 {
		t.Fatalf("no mid-sweep kill window (sweep record at %d of %d)", sweepIdx, len(recs))
	}

	// Two kill points: right at the sweep-enqueue record (nothing swept yet)
	// and just before the final chunk (almost everything swept).
	for _, k := range []int{sweepIdx, len(recs) - 2} {
		sub := killDir(t, dir, recs, k)
		s2, err := Open(Options{Dir: sub, Strategy: StrategyAuto, DisableStatsPruning: true, CheckpointBytes: -1})
		if err != nil {
			t.Fatalf("kill at record %d: reopen: %v", k, err)
		}
		if err := s2.WaitCleaning(ctx); err != nil {
			t.Fatal(err)
		}
		var resumedGroups int
		for _, st := range s2.CleaningStatus() {
			resumedGroups += st.GroupsCleaned
		}
		got := s2.StateFingerprint()
		s2.Close()
		if got != want {
			t.Fatalf("kill at record %d: resumed sweep diverges from uninterrupted run", k)
		}
		if k == len(recs)-2 && resumedGroups >= oracleSweepGroups {
			t.Fatalf("kill just before the final chunk: resumed sweep repaired %d groups (oracle sweep total %d) — it restarted instead of resuming",
				resumedGroups, oracleSweepGroups)
		}
	}
}

// twoRuleTable is sweepTable with a custkey column: every dirty group
// violates orderkey → suppkey in its last row and orderkey → custkey in its
// third, each with a value that appears nowhere else.
func twoRuleTable(groups, dirtyGroups int) *table.Table {
	tb := table.New("lineorder", schema.MustNew(
		schema.Column{Name: "orderkey", Kind: value.Int},
		schema.Column{Name: "suppkey", Kind: value.Int},
		schema.Column{Name: "custkey", Kind: value.Int},
	))
	stride := groups / dirtyGroups
	for g := 0; g < groups; g++ {
		for r := 0; r < 4; r++ {
			supp, cust := int64(1000+g), int64(5000+g)
			if g%stride == 0 && r == 3 {
				supp = int64(1000 + groups + g)
			}
			if g%stride == 0 && r == 2 {
				cust = int64(5000 + groups + g)
			}
			tb.MustAppend(table.Row{value.NewInt(int64(g)), value.NewInt(supp), value.NewInt(cust)})
		}
	}
	return tb
}

// TestCrashBeforeSecondRulesLastChunkResumes: with two FD rules on one
// relation swept one after the other, the first sweep's finish must not
// count as the second's. A kill before the second sweep's last chunk
// resumes that sweep on reopen, and the state converges to the
// uninterrupted run's.
func TestCrashBeforeSecondRulesLastChunkResumes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	fps := captureFingerprints(s)
	if err := s.Register(twoRuleTable(sweepGroups, sweepDirtyGroups)); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*dc.Constraint{sweepRule(), dc.FD("phi_cust", "lineorder", "custkey", "orderkey")} {
		if err := s.AddRule(r); err != nil {
			t.Fatal(err)
		}
		if !s.CleanInBackground("lineorder", r.Name) {
			t.Fatalf("CleanInBackground(%s) refused", r.Name)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.WaitCleaning(ctx); err != nil {
		t.Fatal(err)
	}
	want := s.StateFingerprint()
	s.Close()

	recs, err := wal.RecordsFS(vfs.OS{}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := len(recs) - 2 // the second sweep's last chunk is the last record
	if expectedAt(t, fps, recs, k) == want {
		t.Fatal("the second sweep's last chunk changed nothing; the scenario is mis-seeded")
	}
	s2, err := Open(durableOpts(killDir(t, dir, recs, k)))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var resumed []string
	for _, st := range s2.CleaningStatus() {
		resumed = append(resumed, st.Rule)
	}
	if err := s2.WaitCleaning(ctx); err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || resumed[0] != "phi_cust" {
		t.Errorf("reopen resumed %v, want [phi_cust]", resumed)
	}
	if got := s2.StateFingerprint(); got != want {
		t.Error("reopened state differs from the uninterrupted run")
	}
}

// TestCanceledSweepResumesWithOrWithoutCheckpoint: a sweep canceled
// mid-way is unfinished, and Open resumes it whether or not a checkpoint
// ran after the cancel: the checkpoint stores what the log's records say.
func TestCanceledSweepResumesWithOrWithoutCheckpoint(t *testing.T) {
	ref := newSweepSession(t, Options{Strategy: StrategyIncremental, Workers: 1}, sweepGroups, sweepDirtyGroups)
	defer ref.Close()
	ref.CleanInBackground("lineorder", "phi")
	if err := ref.WaitCleaning(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := ref.StateFingerprint()

	reopen := func(checkpoint bool) []CleaningJob {
		dir := t.TempDir()
		s, err := Open(durableOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register(sweepTable(sweepGroups, sweepDirtyGroups)); err != nil {
			t.Fatal(err)
		}
		if err := s.AddRule(sweepRule()); err != nil {
			t.Fatal(err)
		}
		holdSweeps(s, 1)
		s.CleanInBackground("lineorder", "phi")
		awaitSweep(t, s, "lineorder", "phi", heldAt(1, 1))
		s.CancelCleaning("lineorder", "phi")
		if err := s.WaitCleaning(waitCtx(t)); err != nil {
			t.Fatal(err)
		}
		if checkpoint {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()

		s2, err := Open(durableOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		resumed := s2.CleaningStatus()
		if err := s2.WaitCleaning(waitCtx(t)); err != nil {
			t.Fatal(err)
		}
		if got := s2.StateFingerprint(); got != want {
			t.Errorf("checkpoint=%v: reopened state differs from a finished sweep's", checkpoint)
		}
		return resumed
	}
	for _, checkpoint := range []bool{false, true} {
		if got := reopen(checkpoint); len(got) != 1 || got[0].Rule != "phi" {
			t.Errorf("checkpoint=%v: reopen resumed %d sweeps, want the canceled phi sweep", checkpoint, len(got))
		}
	}
}

// TestApplyRecordBytesODelta: the WAL cost of a fix is a function of the
// decisions it records, not of the relation or the group: a 1-group repair
// journals comparable bytes at 2k and 64k rows, and a dirty group of 200
// members journals what a 2-member group does — its key, not its cells.
func TestApplyRecordBytesODelta(t *testing.T) {
	applyBytes := func(tb *table.Table) int {
		dir := t.TempDir()
		s, err := Open(durableOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register(tb); err != nil {
			t.Fatal(err)
		}
		if err := s.AddRule(sweepRule()); err != nil {
			t.Fatal(err)
		}
		// Group 0 is the single dirty group; repair it.
		if _, err := s.Query("SELECT orderkey, suppkey FROM lineorder WHERE orderkey >= 0 AND orderkey < 1"); err != nil {
			t.Fatal(err)
		}
		s.Close()
		recs, err := wal.RecordsFS(vfs.OS{}, dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, r := range recs {
			if len(r.Payload) > 0 && r.Payload[0] == recApply {
				total += len(r.Payload)
			}
		}
		if total == 0 {
			t.Fatal("no apply record journaled")
		}
		return total
	}
	small := applyBytes(sweepTable(2048/4, 1))
	big := applyBytes(sweepTable(65536/4, 1))
	if big > 2*small {
		t.Fatalf("apply-record bytes grew with relation size: %d bytes at 2k rows, %d at 64k", small, big)
	}
	// The cost operands count the group's rows, so each may take one more
	// varint byte for the wide group; nothing else may grow.
	narrow := applyBytes(oneDirtyGroup(2))
	wide := applyBytes(oneDirtyGroup(200))
	if wide > narrow+3 {
		t.Fatalf("apply-record bytes grew with group size: %d bytes for 2 members, %d for 200", narrow, wide)
	}
}

// oneDirtyGroup is a lineorder whose orderkey 0 group has the given number
// of members, half of them with a second suppkey, next to 100 clean groups.
func oneDirtyGroup(members int) *table.Table {
	tb := table.New("lineorder", sweepTable(1, 1).Schema)
	for r := 0; r < members; r++ {
		tb.MustAppend(table.Row{value.NewInt(0), value.NewInt(int64(1000 + r%2))})
	}
	for g := 1; g <= 100; g++ {
		tb.MustAppend(table.Row{value.NewInt(int64(g)), value.NewInt(int64(2000 + g))})
	}
	return tb
}

// TestCloseRacesSweepSubmit (satellite: Close/finalizer ordering) hammers
// Close from several goroutines while background sweep chunks are submitting
// through the writer and queries are in flight. Must be race-free (run under
// -race), deadlock-free, and idempotent; every Close returns only after the
// teardown fully finished.
func TestCloseRacesSweepSubmit(t *testing.T) {
	for i := 0; i < 20; i++ {
		s := NewSession(Options{Strategy: StrategyIncremental})
		if err := s.Register(sweepTable(768, 150)); err != nil {
			t.Fatal(err)
		}
		if err := s.AddRule(sweepRule()); err != nil {
			t.Fatal(err)
		}
		if !s.CleanInBackground("lineorder", "phi") {
			t.Fatal("sweep did not start")
		}
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = s.Query("SELECT orderkey, suppkey FROM lineorder WHERE orderkey < 40")
			}()
		}
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Close()
			}()
		}
		wg.Wait()
		s.Close() // late close after full teardown is a no-op
		if _, err := s.Query("SELECT orderkey FROM lineorder"); err != ErrSessionClosed {
			t.Fatalf("query after close = %v, want ErrSessionClosed", err)
		}
	}
}

// TestWALAppendFailureDegradesAndReattaches pins the full degraded-mode
// lifecycle: with retries disabled, the first append failure detaches the
// log — a failed write does not consume its LSN, so journaling anything
// afterwards would replay a history with the failed record's state change
// missing. The session keeps serving from memory with DurabilityError set
// and the directory frozen at the pre-failure prefix; once the fault heals,
// a full checkpoint re-attaches the log and subsequent mutations journal
// again.
func TestWALAppendFailureDegradesAndReattaches(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS{})
	opts := durableOpts(dir)
	opts.FS = ffs
	opts.WALRetries = -1 // degrade on the first failure, no retry episode
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(citiesTable()); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(dc.FD("phi", "cities", "city", "zip")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("SELECT zip, city FROM cities WHERE city = 'Los Angeles'"); err != nil {
		t.Fatal(err)
	}
	prefix := s.StateFingerprint()

	// Disk full, forever (until healed), on log-file writes only.
	ffs.Arm(vfs.Fault{Count: -1, Err: vfs.ENOSPC("wal"), Match: func(op vfs.Op, name string) bool {
		return op == vfs.OpWrite && strings.Contains(name, "wal-")
	}})

	// Fresh repair work forces an apply record; its append fails and, with
	// retries disabled, degrades immediately.
	if _, err := s.Query("SELECT zip, city FROM cities WHERE zip = 10001"); err != nil {
		t.Fatal(err)
	}
	if st := s.DurabilityState(); st != DurabilityDegraded {
		t.Fatalf("DurabilityState = %v, want degraded", st)
	}
	if err := s.DurabilityError(); err == nil || !strings.Contains(err.Error(), "no space") {
		t.Fatalf("DurabilityError = %v, want ENOSPC", err)
	}
	s.w.mu.Lock()
	detached := s.w.wlog == nil
	s.w.mu.Unlock()
	if !detached {
		t.Fatal("log still attached after append failure")
	}
	// Memory-only operation continues: more repair work, no new error.
	if _, err := s.Query("SELECT zip, city FROM cities"); err != nil {
		t.Fatal(err)
	}
	degraded := s.StateFingerprint()
	if degraded == prefix {
		t.Fatal("post-failure queries made no in-memory progress")
	}

	// The fault heals; a full checkpoint supersedes the holed history and
	// re-attaches the log.
	ffs.Disarm()
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after heal: %v", err)
	}
	if st := s.DurabilityState(); st != DurabilityReattached {
		t.Fatalf("DurabilityState after checkpoint = %v, want reattached", st)
	}
	if err := s.DurabilityError(); err != nil {
		t.Fatalf("DurabilityError after re-attach = %v, want nil", err)
	}
	// Journaling resumed: a post-reattach mutation must survive reopen via
	// the fresh WAL (it is not in the checkpoint image).
	if err := s.Register(empTable()); err != nil {
		t.Fatal(err)
	}
	final := s.StateFingerprint()
	s.Close()

	r, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.StateFingerprint(); got != final {
		t.Fatalf("reopened fingerprint is not the healed state:\ngot:\n%s\nwant:\n%s", got, final)
	}
}
