package bgclean

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeJob is a scriptable Job: per-chunk results, optional error injection,
// optional gate channel released per chunk, optional simulated work time.
type fakeJob struct {
	rows  int
	delay time.Duration // simulated per-chunk work
	err   map[int]error // chunk lo → error to return
	ran   atomic.Int32

	mu      sync.Mutex
	ranges  [][2]int      // every [lo, hi) received, in order
	started chan int      // receives each chunk's lo as it starts (if set)
	release chan struct{} // each chunk blocks for one token (if set)
}

func (f *fakeJob) Total() int { return f.rows }

func (f *fakeJob) RunChunk(ctx context.Context, lo, hi int) (ChunkResult, error) {
	if f.started != nil {
		f.started <- lo
	}
	if f.release != nil {
		select {
		case <-f.release:
		case <-ctx.Done():
			return ChunkResult{}, ctx.Err()
		}
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if err := f.err[lo]; err != nil {
		return ChunkResult{}, err
	}
	f.mu.Lock()
	f.ranges = append(f.ranges, [2]int{lo, hi})
	f.mu.Unlock()
	f.ran.Add(1)
	return ChunkResult{Groups: 1, Cells: hi - lo}, nil
}

// fixedOpts pins the adaptive sizing to one row per chunk so the lifecycle
// tests get deterministic chunk counts (chunk index == row index).
func fixedOpts(o Options) Options {
	o.ChunkAlign = 1
	o.InitChunkRows = 1
	o.MinChunkRows = 1
	o.MaxChunkRows = 1
	return o
}

func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestJobRunsAllChunksAndReportsProgress(t *testing.T) {
	s := New(fixedOpts(Options{}))
	defer s.Close()
	j := &fakeJob{rows: 5}
	id, fresh := s.Enqueue("t", "phi", j)
	if id == 0 || !fresh {
		t.Fatalf("Enqueue = (%d, %v), want fresh job", id, fresh)
	}
	if err := s.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if len(st) != 1 {
		t.Fatalf("status len = %d, want 1", len(st))
	}
	got := st[0]
	if got.State != Done || got.RowsDone != 5 || got.RowsTotal != 5 || got.ChunksDone != 5 {
		t.Errorf("status = %+v, want done 5/5 rows in 5 chunks", got)
	}
	if got.GroupsCleaned != 5 || got.CellsUpdated != 5 {
		t.Errorf("work counters = %d groups / %d cells", got.GroupsCleaned, got.CellsUpdated)
	}
	if j.ran.Load() != 5 {
		t.Errorf("chunks run = %d, want 5", j.ran.Load())
	}
}

func TestEnqueueDedupsPerTableRule(t *testing.T) {
	s := New(fixedOpts(Options{}))
	defer s.Close()
	gate := make(chan struct{})
	j1 := &fakeJob{rows: 2, release: gate}
	id1, fresh1 := s.Enqueue("t", "phi", j1)
	if !fresh1 {
		t.Fatal("first enqueue must be fresh")
	}
	// Same key while live: deduped onto the running job.
	id2, fresh2 := s.Enqueue("t", "phi", &fakeJob{rows: 2})
	if fresh2 || id2 != id1 {
		t.Fatalf("duplicate enqueue = (%d, %v), want (%d, false)", id2, fresh2, id1)
	}
	// Different rule: independent job.
	if _, fresh3 := s.Enqueue("t", "psi", &fakeJob{rows: 1}); !fresh3 {
		t.Fatal("different rule must enqueue fresh")
	}
	close(gate)
	if err := s.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	// After the job completes the key is free again.
	if _, fresh4 := s.Enqueue("t", "phi", &fakeJob{rows: 1}); !fresh4 {
		t.Fatal("re-enqueue after completion must be fresh")
	}
	if err := s.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Status()); n != 3 {
		t.Errorf("status history = %d jobs, want 3", n)
	}
}

func TestCancelStopsAtChunkBoundaryAndStateIsTerminal(t *testing.T) {
	s := New(fixedOpts(Options{}))
	defer s.Close()
	started := make(chan int, 16)
	release := make(chan struct{}, 16)
	j := &fakeJob{rows: 10, started: started, release: release}
	s.Enqueue("t", "phi", j)
	<-started // chunk 0 started, blocked on its release token
	if !s.Cancel("t", "phi") {
		t.Fatal("Cancel must find the live job")
	}
	release <- struct{}{} // chunk 0 completes; the boundary must now cancel
	if err := s.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	st := s.Status()[0]
	if st.State != Canceled {
		t.Fatalf("state = %v, want canceled", st.State)
	}
	if st.RowsDone >= st.RowsTotal || st.RowsDone < 1 {
		t.Errorf("canceled mid-sweep: %d/%d rows", st.RowsDone, st.RowsTotal)
	}
	// The key is free: a fresh job can resume the remaining work.
	if _, fresh := s.Enqueue("t", "phi", &fakeJob{rows: 1}); !fresh {
		t.Error("canceled key must accept a fresh job")
	}
}

func TestFailedJobRecordsError(t *testing.T) {
	s := New(fixedOpts(Options{}))
	defer s.Close()
	j := &fakeJob{rows: 3, err: map[int]error{1: errors.New("boom")}}
	s.Enqueue("t", "phi", j)
	if err := s.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	st := s.Status()[0]
	if st.State != Failed || st.Err != "boom" || st.RowsDone != 1 {
		t.Errorf("failed job = %+v", st)
	}
}

func TestBackpressureYieldsBetweenChunks(t *testing.T) {
	var pressured atomic.Bool
	pressured.Store(true)
	s := New(fixedOpts(Options{
		Backpressure: func() bool { return pressured.Load() },
		PollInterval: 100 * time.Microsecond,
	}))
	defer s.Close()
	j := &fakeJob{rows: 2}
	s.Enqueue("t", "phi", j)
	// Under pressure no chunk may run.
	time.Sleep(20 * time.Millisecond)
	if j.ran.Load() != 0 {
		t.Fatal("chunk ran despite backpressure")
	}
	pressured.Store(false)
	if err := s.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	st := s.Status()[0]
	if st.State != Done || st.BackpressureWaits < 1 {
		t.Errorf("status = %+v, want done with >=1 backpressure wait", st)
	}
}

func TestCloseCancelsPendingAndRunning(t *testing.T) {
	s := New(fixedOpts(Options{}))
	started := make(chan int, 16)
	release := make(chan struct{}, 16)
	j1 := &fakeJob{rows: 4, started: started, release: release}
	s.Enqueue("t", "phi", j1)
	s.Enqueue("t", "psi", &fakeJob{rows: 4}) // stays pending behind j1
	release <- struct{}{}
	<-started
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	// Close waits for the in-flight chunk; release it.
	release <- struct{}{}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	for _, st := range s.Status() {
		if !st.State.Terminal() {
			t.Errorf("job %d/%s not terminal after Close: %v", st.ID, st.Rule, st.State)
		}
		if st.State == Done {
			t.Errorf("job %d/%s completed, want canceled", st.ID, st.Rule)
		}
	}
	s.Close() // idempotent
	if id, fresh := s.Enqueue("t", "phi", &fakeJob{rows: 1}); id != 0 || fresh {
		t.Error("Enqueue after Close must be rejected")
	}
}

func TestWaitHonorsContext(t *testing.T) {
	s := New(fixedOpts(Options{}))
	defer s.Close()
	gate := make(chan struct{})
	s.Enqueue("t", "phi", &fakeJob{rows: 1, release: gate})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v, want deadline exceeded", err)
	}
	close(gate)
	if err := s.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
}

func TestStatusETAAppearsMidSweep(t *testing.T) {
	s := New(fixedOpts(Options{}))
	defer s.Close()
	started := make(chan int, 16)
	release := make(chan struct{}, 16)
	j := &fakeJob{rows: 3, started: started, release: release}
	s.Enqueue("t", "phi", j)
	release <- struct{}{}
	<-started
	<-started // chunk 1 started → chunk 0 done
	st := s.Status()[0]
	if st.RowsDone != 1 {
		t.Fatalf("rowsDone = %d, want 1", st.RowsDone)
	}
	if st.ETA <= 0 {
		t.Errorf("ETA = %v, want > 0 mid-sweep", st.ETA)
	}
	release <- struct{}{}
	release <- struct{}{}
	if err := s.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	if st := s.Status()[0]; st.ETA != 0 || st.Elapsed <= 0 {
		t.Errorf("terminal status = %+v, want ETA 0 and Elapsed > 0", st)
	}
}

// TestEmptyRelationRunsOneChunk: a zero-row job still gets one (0, 0)
// RunChunk call (the terminal bookkeeping hook) and finishes Done.
func TestEmptyRelationRunsOneChunk(t *testing.T) {
	s := New(fixedOpts(Options{}))
	defer s.Close()
	j := &fakeJob{rows: 0}
	s.Enqueue("t", "phi", j)
	if err := s.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	st := s.Status()[0]
	if st.State != Done || st.ChunksDone != 1 || st.RowsDone != 0 {
		t.Errorf("empty job = %+v, want done after one (0,0) chunk", st)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.ranges) != 1 || j.ranges[0] != [2]int{0, 0} {
		t.Errorf("ranges = %v, want one (0,0) call", j.ranges)
	}
}

// TestNextChunkRowsAdaptation pins the sizing policy: latency steering
// bounded to [1/2x, 2x] per step, backpressure halving, alignment and
// clamping, and the no-signal rule for short final chunks.
func TestNextChunkRowsAdaptation(t *testing.T) {
	o := Options{ChunkAlign: 512, MinChunkRows: 512, MaxChunkRows: 1 << 16, TargetChunkTime: 5 * time.Millisecond}
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
		if got := o.nextChunkRows(tc.cur, tc.ran, tc.took, tc.bp); got != tc.want {
			t.Errorf("%s: nextChunkRows(%d, %d, %v, %v) = %d, want %d",
				tc.name, tc.cur, tc.ran, tc.took, tc.bp, got, tc.want)
		}
	}
}

// TestStatusETAWithoutPaceSignal: a mid-flight job whose chunks all resolved
// to 0ns on a coarse clock has no pace signal — ETA must stay at its
// documented "unknown" zero instead of extrapolating a zero rate.
func TestStatusETAWithoutPaceSignal(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	j := &job{id: 1, table: "t", rule: "phi", state: Running,
		rowsDone: 512, rowsTotal: 4096, chunksDone: 1}
	if st := s.statusLocked(j); st.ETA != 0 {
		t.Errorf("ETA with zero elapsed = %v, want 0 (unknown)", st.ETA)
	}
	j.elapsed = 10 * time.Millisecond
	if st := s.statusLocked(j); st.ETA <= 0 {
		t.Errorf("ETA with pace signal = %v, want > 0", st.ETA)
	}
}

// TestAdaptiveChunksGrowWhenFast: chunks far under the latency target must
// double per step until the max clamp, so a sweep over cheap (mostly clean)
// regions coalesces instead of paying a fixed epoch toll per 4096 rows.
func TestAdaptiveChunksGrowWhenFast(t *testing.T) {
	s := New(Options{
		ChunkAlign: 4, InitChunkRows: 4, MinChunkRows: 4, MaxChunkRows: 32,
		TargetChunkTime: time.Hour, // every chunk is "fast"
	})
	defer s.Close()
	j := &fakeJob{rows: 60, delay: 100 * time.Microsecond}
	s.Enqueue("t", "phi", j)
	if err := s.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	// 4 + 8 + 16 + 32 = 60: doubling per step, capped at MaxChunkRows.
	want := [][2]int{{0, 4}, {4, 12}, {12, 28}, {28, 60}}
	if len(j.ranges) != len(want) {
		t.Fatalf("ranges = %v, want %v", j.ranges, want)
	}
	for i := range want {
		if j.ranges[i] != want[i] {
			t.Fatalf("ranges = %v, want %v", j.ranges, want)
		}
	}
	if st := s.Status()[0]; st.State != Done || st.RowsDone != 60 || st.ChunksDone != 4 {
		t.Errorf("status = %+v, want done 60/60 in 4 chunks", st)
	}
}

// TestBackpressureHalvesNextChunk: a chunk boundary that waited for the
// writer halves the chunk size that follows, so foreground queries get
// epoch boundaries to slot into sooner while pressure persists.
func TestBackpressureHalvesNextChunk(t *testing.T) {
	var pressured atomic.Bool
	s := New(Options{
		Backpressure: func() bool { return pressured.Load() },
		PollInterval: 50 * time.Microsecond,
		ChunkAlign:   2, InitChunkRows: 8, MinChunkRows: 2, MaxChunkRows: 8,
		TargetChunkTime: time.Hour,
	})
	defer s.Close()
	started := make(chan int, 16)
	release := make(chan struct{}, 16)
	j := &fakeJob{rows: 24, delay: 50 * time.Microsecond, started: started, release: release}
	s.Enqueue("t", "phi", j)
	<-started // chunk (0,8) in flight
	pressured.Store(true)
	release <- struct{}{} // chunk completes; the boundary now waits
	time.Sleep(5 * time.Millisecond)
	pressured.Store(false)
	for i := 0; i < 8; i++ {
		release <- struct{}{}
	}
	if err := s.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	st := s.Status()[0]
	if st.State != Done || st.BackpressureWaits < 1 {
		t.Fatalf("status = %+v, want done with >=1 backpressure wait", st)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	// The wait is observed by the chunk that follows it, so the halving
	// lands one chunk later: (0,8) ran clean, (8,16) ran after the wait,
	// (16,20) is the halved chunk.
	want := [2]int{16, 20}
	if len(j.ranges) < 3 || j.ranges[2] != want {
		t.Errorf("ranges = %v, want third chunk %v (halved after backpressure)", j.ranges, want)
	}
}
