package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"daisy"
)

// env is what one workload run is given besides its inputs.
type env struct {
	sc      scale
	seconds float64 // timed-phase budget of the end-to-end pass
	tmp     string  // directory durable sessions are created under
	clients int     // serve_warm clients: nproc, never more
}

// qsig is the verified signature of one query's answer.
type qsig struct {
	rows int
	hash uint64
}

// meter accumulates one run's samples. A repetition — a fresh-session
// episode, or a fixed slice of a steady workload's timed phase — adds one
// value to each per-repetition series and its query latencies to the pooled
// one; the reported value of a series is its median.
type meter struct {
	latMS   []float64 // pooled per-query latencies
	qps     []float64 // per repetition
	allocKB []float64 // per repetition
	setupS  []float64 // per set-up
	heapB   []float64 // per set-up
	sweep   []float64 // rows/s per sweep
	reopenS []float64 // per reopen

	timed     time.Duration // wall time spent inside repetitions
	attempted int
	failed    int
	n429      int
	n503      int
	notes     []string

	// sigs holds, per query index, the answer every repetition must return.
	sigs map[int]qsig
	// fps holds the state digest every repetition must end in, per label.
	fps map[string]string
}

func newMeter() *meter { return &meter{sigs: map[int]qsig{}, fps: map[string]string{}} }

// fail counts one failed operation and keeps the first few reasons.
func (m *meter) fail(format string, args ...any) {
	m.failed++
	if len(m.notes) < 8 {
		m.notes = append(m.notes, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation and, when err is set, its failure.
func (m *meter) op(what string, err error) bool {
	m.attempted++
	if err == nil {
		return true
	}
	var se *statusError
	if errors.As(err, &se) {
		switch se.code {
		case 429:
			m.n429++
		case 503:
			m.n503++
		}
	}
	m.fail("%s: %v", what, err)
	return false
}

// absorb adds another meter's operation counts and notes: a client's share
// of a slice, or an untimed reference episode.
func (m *meter) absorb(o *meter) {
	m.attempted += o.attempted
	m.failed += o.failed
	m.n429 += o.n429
	m.n503 += o.n503
	m.notes = append(m.notes, o.notes...)
}

// one issues queries[i], times it and verifies the answer against the
// signature earlier repetitions recorded for i. check is false where answers
// legitimately depend on timing (reads racing a background sweep).
func (m *meter) one(ctx context.Context, t target, queries []string, i int, check bool) {
	t0 := time.Now()
	r, err := t.query(ctx, queries[i], false)
	d := time.Since(t0)
	if !m.op("query "+queries[i], err) {
		return
	}
	m.latMS = append(m.latMS, float64(d)/float64(time.Millisecond))
	if check {
		m.verify(i, queries[i], r)
	}
}

func (m *meter) verify(i int, text string, r qres) {
	sig := qsig{r.rows, r.hash}
	if want, ok := m.sigs[i]; !ok {
		m.sigs[i] = sig
	} else if want != sig {
		m.fail("query %d %q: %d rows fnv %x, earlier repetition had %d rows fnv %x",
			i, text, sig.rows, sig.hash, want.rows, want.hash)
	}
}

// sameState checks that every repetition reaches the same state digest under
// a label, or the digest a reference run produced.
func (m *meter) sameState(label, fp string, err error) {
	if !m.op("fingerprint "+label, err) {
		return
	}
	if want, ok := m.fps[label]; !ok {
		m.fps[label] = fp
	} else if want != fp {
		m.fail("state %s: fingerprint %s, expected %s", label, fp, want)
	}
}

// settledHeap forces the collector to finish with everything unreachable —
// twice, with a yield between, because a closed session is freed only after
// its finalizer has run — and returns the live heap.
func settledHeap() uint64 {
	runtime.GC()
	runtime.Gosched()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapSamples is how many set-ups of a run measure the heap they leave
// behind: the second settling costs two more collections of a heap holding
// the table, and the reading barely varies.
const heapSamples = 3

// setup runs build — inputs already in memory → first query answerable —
// and records its duration and, for the first few set-ups, the heap it
// leaves behind per registered row. The heap is settled before every set-up:
// a repetition that starts with the previous repetition's closed session
// still awaiting its finalizer runs its sweep and its reads twice as slow,
// with the collector marking the dead table beside them.
func setup[T target](m *meter, rows int, build func() (T, error)) (T, bool) {
	sample := len(m.heapB) < heapSamples
	before := settledHeap()
	t0 := time.Now()
	t, err := build()
	d := time.Since(t0)
	if !m.op("set-up", err) {
		return t, false
	}
	m.setupS = append(m.setupS, d.Seconds())
	if sample {
		m.heapB = append(m.heapB, (float64(settledHeap())-float64(before))/float64(rows))
	}
	return t, true
}

// sampleSetups sets up as often as the scale asks, closing every target but
// the last, which the steady workloads then measure.
func sampleSetups[T target](m *meter, e *env, rows int, build func() (T, error)) (t T, ok bool) {
	for i := 0; i < e.sc.Setups; i++ {
		if i > 0 {
			t.close()
		}
		if t, ok = setup(m, rows, build); !ok {
			return t, false
		}
	}
	return t, true
}

// warmUp converges t and issues the first n queries untimed. Every answer's
// signature is recorded the first time it is seen, here or in the timed
// phase, and checked on every later cycle.
func (m *meter) warmUp(ctx context.Context, t target, in *inputs, n int) bool {
	if !m.op("converge", t.converge(ctx)) {
		return false
	}
	for i, q := range in.queries[:n] {
		r, err := t.query(ctx, q, false)
		if m.op("warm-up query", err) {
			m.verify(i, q, r)
		}
	}
	fp, err := t.fingerprint(ctx)
	m.sameState("converged", fp, err)
	return true
}

// rep brackets one repetition's timed window.
type rep struct {
	start time.Time
	alloc uint64
}

func beginRep() rep {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rep{start: time.Now(), alloc: ms.TotalAlloc}
}

// end closes the window over n completed queries.
func (m *meter) end(r rep, n int) time.Duration {
	wall := time.Since(r.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.timed += wall
	if n > 0 {
		m.qps = append(m.qps, float64(n)/wall.Seconds())
		m.allocKB = append(m.allocKB, float64(ms.TotalAlloc-r.alloc)/1024/float64(n))
	}
	return wall
}

// aborted reports that repeating is pointless: the run is out of time or has
// already failed, and a failing repetition may take no time at all.
func (m *meter) aborted(ctx context.Context) bool { return ctx.Err() != nil || m.failed > 0 }

// spent reports that the timed-phase budget is used up.
func (m *meter) spent(ctx context.Context, e *env) bool {
	return m.aborted(ctx) || m.timed.Seconds() >= e.seconds
}

// lastRep reports, after fresh-session repetition i's timed window, whether
// it was the last one: the budget is spent and the minimum count reached.
func (m *meter) lastRep(ctx context.Context, e *env, i int) bool {
	return m.aborted(ctx) || (i+1 >= e.sc.MinReps && m.spent(ctx, e))
}

// endState verifies a fresh-session repetition's final state outside the
// timed window. Every repetition's dirty-tuple and candidate counts — sums
// over per-segment counters — must agree; the full StateFingerprint renders
// every cell (about 4 µs a row), so only the first and the last repetition
// pay for it.
func (m *meter) endState(t *memTarget, full bool) {
	m.sameState("counts", t.counts(), nil)
	if full {
		m.sameState("final", digest(t.s.StateFingerprint()), nil)
	}
}

// workloadDef names one workload, says why it is in the benchmark and how to
// run its end-to-end pass.
type workloadDef struct {
	Name string
	Why  string
	run  func(ctx context.Context, e *env, in *inputs, m *meter)
}

var workloads = []workloadDef{
	{"warm_select", "steady state after exploration cleaned the data: engine scan/filter dominates and the cleaning modules idle, so a scan kernel must move it and a cleaning change must not", runWarmSelect},
	{"cold_fd", "the paper's core path on a fresh session: relax, detect, repair, ApplyCOW and publish do the work while the engine does little; the write side of ptable", runCold},
	{"cold_dc", "general denial constraints with inequalities: the partitioned theta-join dominates here and runs in no other workload", runCold},
	{"durable_fd", "cold_fd's exact queries against a durable directory: adds WAL append, checkpoints and recovery, so its ratio to cold_fd is the durability overhead; reopened state must match", runDurableFD},
	{"serve_warm", "converged data behind the HTTP server with nproc keep-alive clients: admission, NDJSON encoding and the HTTP stack dominate", runServeWarm},
	{"sweep_bg", "reads beside writes: a background sweep publishes an epoch per chunk while one client scans pinned snapshots, exercising segment skip and repair", runSweepBG},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// steadyChunk is how many queries make one repetition of a steady workload.
const steadyChunk = 20

// runWarmSelect samples set-up a few times, converges the last session and
// cycles one client through the selective query list.
func runWarmSelect(ctx context.Context, e *env, in *inputs, m *meter) {
	t, ok := sampleSetups(m, e, in.table.Len(), func() (*memTarget, error) { return openSession(daisy.Options{}, in, nil) })
	if !ok {
		return
	}
	defer t.close()
	if !m.warmUp(ctx, t, in, min(len(in.queries), 2*steadyChunk)) {
		return
	}
	for next := 0; !m.spent(ctx, e); {
		r := beginRep()
		for k := 0; k < steadyChunk; k++ {
			m.one(ctx, t, in.queries, next, true)
			next = (next + 1) % len(in.queries)
		}
		m.end(r, steadyChunk)
	}
	// Reads over converged data must leave the state as they found it.
	fp, err := t.fingerprint(ctx)
	m.sameState("converged", fp, err)
}

// coldEpisode is fresh-session repetition i: set-up, the whole query list
// once on one client, then the state checks outside the timed window. It
// reports whether it was the last repetition.
func coldEpisode(ctx context.Context, e *env, in *inputs, m *meter, opts daisy.Options, i int) (last bool) {
	t, ok := setup(m, in.table.Len(), func() (*memTarget, error) { return openSession(opts, in, nil) })
	if !ok {
		return true
	}
	defer t.close()
	r := beginRep()
	for q := range in.queries {
		m.one(ctx, t, in.queries, q, true)
	}
	m.end(r, len(in.queries))
	last = m.lastRep(ctx, e, i)
	m.endState(t, i == 0 || last)
	return last
}

func coldOptions() daisy.Options { return daisy.Options{Strategy: daisy.StrategyIncremental} }

// runCold is cold_fd and cold_dc: fresh in-memory episodes until the budget
// is spent.
func runCold(ctx context.Context, e *env, in *inputs, m *meter) {
	for i := 0; !coldEpisode(ctx, e, in, m, coldOptions(), i); i++ {
	}
	// cold_dc fits only three or four episodes in its budget and sets up in
	// milliseconds: top the set-up samples up so their median holds still.
	for len(m.setupS) < e.sc.Setups {
		t, ok := setup(m, in.table.Len(), func() (*memTarget, error) { return openSession(coldOptions(), in, nil) })
		if !ok {
			return
		}
		t.close()
	}
}

// runDurableFD is cold_fd against a durable directory, followed by reopen
// cycles. The flush policy is fixed at SyncOS with the default
// CheckpointBytes. An in-memory episode runs first, untimed, so that the
// durable and the reopened state are checked against what cold_fd computes.
func runDurableFD(ctx context.Context, e *env, in *inputs, m *meter) {
	ref := newMeter()
	coldEpisode(ctx, e, in, ref, coldOptions(), 0)
	m.absorb(ref)
	m.sigs, m.fps = ref.sigs, ref.fps

	for i, last := 0, false; !last; i++ {
		dir, err := os.MkdirTemp(e.tmp, "durable-")
		if !m.op("temp dir", err) {
			return
		}
		opts := coldOptions()
		opts.Dir, opts.Sync = dir, daisy.SyncOS
		last = coldEpisode(ctx, e, in, m, opts, i)
		for k := 0; k < e.sc.Reopens; k++ {
			t0 := time.Now()
			s, err := daisy.Open(opts)
			d := time.Since(t0)
			if !m.op("reopen", err) {
				break
			}
			m.reopenS = append(m.reopenS, d.Seconds())
			if k == 0 {
				// Every acknowledged write is readable after the restart.
				m.endState(&memTarget{s: s}, i == 0 || last)
			}
			s.Close()
		}
		m.op("remove temp dir", os.RemoveAll(dir))
	}
}

// runServeWarm seeds one tenant over HTTP, converges it, and drives it with
// nproc keep-alive clients, each cycling through its own share of the query
// list.
func runServeWarm(ctx context.Context, e *env, in *inputs, m *meter) {
	t, ok := sampleSetups(m, e, in.table.Len(), func() (*httpTarget, error) { return openServer(ctx, in, e.clients, nil) })
	if !ok {
		return
	}
	defer t.close()
	// Warming the whole list records every signature, so the concurrent
	// clients below only read the map.
	if !m.warmUp(ctx, t, in, len(in.queries)) {
		return
	}
	next := make([]int, e.clients) // each client's position in its share
	for c := range next {
		next[c] = c
	}
	for !m.spent(ctx, e) {
		parts := make([]*meter, e.clients)
		r := beginRep()
		var wg sync.WaitGroup
		for c := 0; c < e.clients; c++ {
			parts[c] = &meter{sigs: m.sigs}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := 0; k < steadyChunk; k++ {
					parts[c].one(ctx, t, in.queries, next[c]%len(in.queries), true)
					next[c] += e.clients
				}
			}(c)
		}
		wg.Wait()
		m.end(r, e.clients*steadyChunk)
		for _, p := range parts {
			m.latMS = append(m.latMS, p.latMS...)
			m.absorb(p)
		}
	}
	fp, err := t.fingerprint(ctx)
	m.sameState("converged", fp, err)
}

// runSweepBG starts a background sweep on a fresh session and issues
// selective reads beside it until the sweep has converged. The reads' answers
// depend on how far the sweep has come, so only the converged table is
// verified: it must equal an inline incremental clean by one covering query.
func runSweepBG(ctx context.Context, e *env, in *inputs, m *meter) {
	oracle, err := openSession(coldOptions(), in, nil)
	if !m.op("oracle set-up", err) {
		return
	}
	_, err = oracle.query(ctx, "SELECT orderkey, suppkey FROM "+tableName, false)
	if m.op("oracle covering query", err) {
		m.fps["table"], m.fps["counts"] = oracle.tableFingerprint(), oracle.counts()
	}
	oracle.close()

	for i, last := 0, false; !last; i++ {
		t, ok := setup(m, in.table.Len(), func() (*memTarget, error) { return openSession(daisy.Options{}, in, nil) })
		if !ok {
			return
		}
		s := t.s
		swept := make(chan time.Duration, 1)
		r := beginRep()
		if !m.op("CleanInBackground", boolErr(s.CleanInBackground(tableName, fdRule))) {
			t.close()
			return
		}
		go func() {
			err := s.WaitCleaning(ctx)
			if err != nil {
				swept <- -1
				return
			}
			swept <- time.Since(r.start)
		}()
		var took time.Duration
		reads := 0
		for done := false; !done; reads++ {
			m.one(ctx, t, in.queries, reads%len(in.queries), false)
			select {
			case took = <-swept:
				done = true
			default:
			}
		}
		m.end(r, reads)
		if m.op("WaitCleaning", boolErr(took > 0)) {
			m.sweep = append(m.sweep, float64(in.table.Len())/took.Seconds())
		}
		last = m.lastRep(ctx, e, i)
		m.sameState("counts", t.counts(), nil)
		if i == 0 || last {
			m.sameState("table", t.tableFingerprint(), nil)
		}
		t.close()
	}
}

func boolErr(ok bool) error {
	if ok {
		return nil
	}
	return errors.New("refused or failed")
}
