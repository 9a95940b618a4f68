package main

// The traced pass: each workload once, a fixed amount of work, with
// WithTrace() (?trace=1 over HTTP) on every query and harness-side spans
// around the harness's own calls. Span self times aggregate into the
// per-layer table; a few layers that no span covers are timed by calling the
// module's exported function directly. This file is the only one that
// reaches below the public daisy API (sql, plan, relax, thetajoin, ptable,
// wal): if those signatures change, the fix is local.

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"daisy"
	"daisy/internal/detect"
	"daisy/internal/plan"
	"daisy/internal/ptable"
	"daisy/internal/relax"
	"daisy/internal/sql"
	"daisy/internal/table"
	"daisy/internal/thetajoin"
	"daisy/internal/vfs"
	"daisy/internal/wal"
	"daisy/internal/workload"
)

// layerRun is the state of one workload's traced pass.
type layerRun struct {
	m    *meter
	sp   *spans
	st   *selfTimes
	file *traceFile
	out  map[string]metric

	untracedMS, tracedMS []float64 // the same queries' latencies, both ways
	consumeUS            float64   // Σ (harness latency − root span)
	firstRowMS           []float64
	bodyBytes, bodyRows  int
}

func (l *layerRun) set(name string, value float64, unit string) {
	l.out[name] = metric{Value: value, Unit: unit}
}

// pass issues every query once. Untraced passes give the latency the traced
// ones are compared with; traced passes feed the span aggregate and the
// trace file. check is false where answers depend on timing.
func (l *layerRun) pass(ctx context.Context, t target, queries []string, traced, check bool) {
	for i, q := range queries {
		t0 := time.Now()
		r, err := t.query(ctx, q, traced)
		d := time.Since(t0)
		if !l.m.op("query "+q, err) {
			continue
		}
		if check {
			l.m.verify(i, q, r)
		}
		ms := float64(d) / float64(time.Millisecond)
		if !traced {
			l.untracedMS = append(l.untracedMS, ms)
			continue
		}
		l.tracedMS = append(l.tracedMS, ms)
		if r.trace == nil {
			l.m.fail("query %d: traced but no span tree came back", i)
			continue
		}
		l.sp.add("query", i, t0, d)
		l.st.addQuery(r.trace)
		l.consumeUS += float64(d)/float64(time.Microsecond) - float64(r.trace.DurUS)
		l.file.Queries = append(l.file.Queries, tracedQuery{ID: i, SQL: q, LatencyUS: ms * 1000, Tree: r.trace})
		if r.bytes > 0 {
			l.firstRowMS = append(l.firstRowMS, float64(r.firstRow)/float64(time.Millisecond))
			l.bodyBytes += r.bytes
			l.bodyRows += r.rows
		}
	}
}

// tracedPass runs one workload's traced pass and returns every layer metric
// it yields, the universal ones of perLayer included.
func tracedPass(ctx context.Context, e *env, name string, seed int64, in *inputs, m *meter) (map[string]metric, *traceFile) {
	l := &layerRun{
		m: m, sp: newSpans(), st: newSelfTimes(), out: map[string]metric{},
		file: &traceFile{Workload: name, Seed: seed, Scale: e.sc.Name},
	}
	var sess *daisy.Session // an in-process session holding the workload's table, for plan.Build
	switch name {
	case "warm_select":
		t, err := openSession(daisy.Options{}, in, l.sp)
		if !m.op("set-up", err) {
			break
		}
		l.steady(ctx, t, in)
		l.writerLayer(t.s)
		sess = t.s
		defer t.close()
	case "serve_warm":
		sess = l.serveWarm(ctx, e, in)
		if sess != nil {
			defer sess.Close()
		}
	case "cold_fd", "cold_dc":
		if t := l.episodes(ctx, in, coldOptions()); t != nil {
			sess = t.s
			defer t.close()
			l.writerLayer(t.s)
			if name == "cold_fd" {
				l.relaxProbe(ctx, in)
				l.applyCOWProbe(in, t.s)
			} else {
				l.thetaProbe(e.sc, seed, in)
			}
		}
	case "durable_fd":
		dir, err := os.MkdirTemp(e.tmp, "durable-")
		if !m.op("temp dir", err) {
			break
		}
		defer os.RemoveAll(dir)
		opts := coldOptions()
		opts.Dir, opts.Sync = dir, daisy.SyncOS
		if t := l.episodes(ctx, in, opts); t != nil {
			l.relaxProbe(ctx, in)
			l.applyCOWProbe(in, t.s)
			l.writerLayer(t.s)
			l.walLayer(t.s, dir, in.table.Len())
			t.close()
			sess = l.recoveryLayer(opts)
			if sess != nil {
				defer sess.Close()
			}
		}
	case "sweep_bg":
		t, err := openSession(daisy.Options{}, in, l.sp)
		if !m.op("set-up", err) {
			break
		}
		l.sweep(ctx, t, in)
		l.writerLayer(t.s)
		sess = t.s
		defer t.close()
	}
	l.parsePlanProbe(sess, in.queries)
	l.universal()
	l.file.Harness = l.sp.list
	return l.out, l.file
}

// steadyTraced caps how much of a steady workload's query list the traced
// pass issues (three times: warm-up, untraced, traced).
const steadyTraced = 60

func steadyQueries(in *inputs) []string { return in.queries[:min(len(in.queries), steadyTraced)] }

// steady converges t, warms it, and runs the head of the query list untraced
// then traced.
func (l *layerRun) steady(ctx context.Context, t target, in *inputs) {
	queries := steadyQueries(in)
	done := l.sp.start("converge")
	err := t.converge(ctx)
	done()
	if !l.m.op("converge", err) {
		return
	}
	l.set("converge_ms", l.sp.ms("converge"), "ms")
	for i, q := range queries { // warm-up; records the signatures
		r, err := t.query(ctx, q, false)
		if l.m.op("warm-up query", err) {
			l.m.verify(i, q, r)
		}
	}
	l.pass(ctx, t, queries, false, true)
	l.pass(ctx, t, queries, true, true)
}

// episodes runs the query list on two fresh sessions, untraced then traced,
// and returns the traced one still open.
func (l *layerRun) episodes(ctx context.Context, in *inputs, opts daisy.Options) *memTarget {
	plainOpts := opts
	if opts.Dir != "" {
		plainOpts.Dir = opts.Dir + "-untraced"
		defer os.RemoveAll(plainOpts.Dir)
	}
	plain, err := openSession(plainOpts, in, nil)
	if !l.m.op("set-up", err) {
		return nil
	}
	l.pass(ctx, plain, in.queries, false, true)
	fp, err := plain.fingerprint(ctx)
	l.m.sameState("final", fp, err)
	plain.close()

	t, err := openSession(opts, in, l.sp)
	if !l.m.op("set-up", err) {
		return nil
	}
	l.pass(ctx, t, in.queries, true, true)
	fp, err = t.fingerprint(ctx)
	l.m.sameState("final", fp, err)
	return t
}

// serveWarm traces the HTTP server, then runs the same queries against an
// in-process twin seeded from the same CSV bytes, so that the server's share
// of a query is a subtraction. It returns the twin.
func (l *layerRun) serveWarm(ctx context.Context, e *env, in *inputs) *daisy.Session {
	t, err := openServer(ctx, in, e.clients, l.sp)
	if !l.m.op("set-up", err) {
		return nil
	}
	l.steady(ctx, t, in)
	t.close()
	httpP50 := median(l.untracedMS)
	l.set("first_row_ms", median(l.firstRowMS), "ms")
	if l.bodyRows > 0 {
		l.set("ndjson_bytes_per_row", float64(l.bodyBytes)/float64(l.bodyRows), "B")
	}
	l.set("status_429", float64(l.m.n429), "count")
	l.set("status_503", float64(l.m.n503), "count")

	// table layer: what seeding costs before Register sees a row.
	t0 := time.Now()
	tb, err := table.ReadCSV(tableName, bytes.NewReader(in.csv), nil)
	d := time.Since(t0)
	if !l.m.op("ReadCSV", err) {
		return nil
	}
	l.set("csv_rows_per_s", float64(tb.Len())/d.Seconds(), "rows/s")

	twin, err := openSession(daisy.Options{}, &inputs{table: tb, rule: in.rule}, nil)
	if !l.m.op("twin set-up", err) {
		return nil
	}
	if !l.m.op("twin converge", twin.converge(ctx)) {
		twin.close()
		return nil
	}
	var twinMS []float64
	for pass := 0; pass < 2; pass++ { // the first pass warms
		twinMS = twinMS[:0]
		for _, q := range steadyQueries(in) {
			t0 := time.Now()
			_, err := twin.query(ctx, q, false)
			if l.m.op("twin query", err) {
				twinMS = append(twinMS, float64(time.Since(t0))/float64(time.Millisecond))
			}
		}
	}
	l.set("inprocess_p50_ms", median(twinMS), "ms")
	l.set("http_overhead_ms", httpP50-median(twinMS), "ms")
	return twin.s
}

// sweep traces the reads issued beside one background sweep and reads the
// sweep's own progress counters once it has converged.
func (l *layerRun) sweep(ctx context.Context, t *memTarget, in *inputs) {
	if !l.m.op("CleanInBackground", boolErr(t.s.CleanInBackground(tableName, fdRule))) {
		return
	}
	begin := time.Now()
	swept := make(chan time.Duration, 1)
	var sweepErr error
	go func() {
		sweepErr = t.s.WaitCleaning(ctx)
		swept <- time.Since(begin)
	}()
	// Fixed work: the head of the query list once, however far the sweep has
	// come, then wait for it.
	queries := steadyQueries(in)
	l.pass(ctx, t, queries, true, false)
	l.sp.add("sweep", -1, begin, <-swept)
	if !l.m.op("WaitCleaning", sweepErr) {
		return
	}
	l.set("sweep_ms", l.sp.ms("sweep"), "ms")
	for _, job := range t.s.CleaningStatus() {
		l.set("bgclean_chunks", float64(job.ChunksDone), "count")
		if job.ChunksDone > 0 {
			l.set("bgclean_rows_per_chunk", float64(job.RowsTotal)/float64(job.ChunksDone), "rows")
		}
		l.set("bgclean_backpressure_yields", float64(job.BackpressureWaits), "count")
		l.set("bgclean_last_chunk_ms", float64(job.LastChunkDuration)/float64(time.Millisecond), "ms")
		l.set("bgclean_cells_updated", float64(job.CellsUpdated), "count")
	}
	// The same reads again over the converged table, untraced: the baseline
	// the traced latencies are compared with is then free of the sweep.
	l.pass(ctx, t, queries, false, false)
}

// counter reads one instrument of a session's metrics snapshot.
func counter(s *daisy.Session, name string) (daisy.MetricSnapshot, bool) {
	for _, snap := range s.MetricsSnapshot() {
		if snap.Name == name {
			return snap, true
		}
	}
	return daisy.MetricSnapshot{}, false
}

// writerLayer reads the single-writer apply loop's instruments.
func (l *layerRun) writerLayer(s *daisy.Session) {
	reqs, _ := counter(s, "daisy_writer_apply_requests_total")
	coalesced, _ := counter(s, "daisy_writer_coalesced_requests_total")
	batch, _ := counter(s, "daisy_writer_batch_size")
	l.set("writer_requests", float64(reqs.Value), "count")
	if reqs.Value > 0 {
		l.set("writer_coalesced_ratio", float64(coalesced.Value)/float64(reqs.Value), "ratio")
	}
	if batch.Count > 0 {
		l.set("writer_batch_size", batch.Sum/float64(batch.Count), "requests")
	}
}

// parsePlanProbe times sql.Parse and plan.Build directly: their spans are
// recorded in whole microseconds, too coarse for calls this short.
func (l *layerRun) parsePlanProbe(s *daisy.Session, queries []string) {
	if s == nil {
		return
	}
	const rounds = 20
	var parseNS, planNS time.Duration
	n := 0
	for r := 0; r < rounds; r++ {
		for _, text := range queries {
			t0 := time.Now()
			q, err := sql.Parse(text)
			parseNS += time.Since(t0)
			if err != nil {
				l.m.fail("sql.Parse %q: %v", text, err)
				return
			}
			t0 = time.Now()
			_, err = plan.Build(q, s, s.Rules())
			planNS += time.Since(t0)
			if err != nil {
				l.m.fail("plan.Build %q: %v", text, err)
				return
			}
			n++
		}
	}
	l.set("parse_us", float64(parseNS)/float64(n)/1000, "us")
	l.set("plan_us", float64(planNS)/float64(n)/1000, "us")
}

const relaxProbeQueries = 6

// relaxProbe times relax.FD — Algorithm 1 as the scan-based package
// implements it — on each query's dirty answer. The session relaxes through
// its group index inside the repair span, which has no span of its own.
func (l *layerRun) relaxProbe(ctx context.Context, in *inputs) {
	fd, ok := in.rule.AsFD()
	if !ok {
		return
	}
	// Dirty answers: the rows each filter selects before any cleaning.
	dirty, err := openSession(daisy.Options{DisableCleaning: true}, in, nil)
	if !l.m.op("relax probe set-up", err) {
		return
	}
	defer dirty.close()
	view := detect.TableView{T: in.table}
	var total time.Duration
	var resultRows, relaxed int
	// The scan-based relaxation reads the whole table per iteration; a few
	// queries of each shape are enough to time it.
	probed := in.queries[:min(len(in.queries), relaxProbeQueries)]
	for _, q := range probed {
		rows, err := dirty.s.QueryContext(ctx, q)
		if !l.m.op("relax probe query", err) {
			return
		}
		var result []int
		for rows.Next() {
			result = append(result, int(rows.Row().ID)) // a base tuple's id is its row position
		}
		rows.Close()
		var dm detect.Metrics
		t0 := time.Now()
		extra := relax.FD(view, result, fd, &dm)
		total += time.Since(t0)
		resultRows += len(result)
		relaxed += len(extra)
	}
	l.set("relax_ms", float64(total)/float64(len(probed))/float64(time.Millisecond), "ms")
	if resultRows > 0 {
		l.set("relaxed_per_result_row", float64(relaxed)/float64(resultRows), "ratio")
	}
}

// applyCOWProbe replays the cleaned session's repairs through
// PTable.ApplyCOW: the repaired cells, split into as many deltas as there
// were queries, applied copy-on-write to a fresh image of the dirty table.
func (l *layerRun) applyCOWProbe(in *inputs, s *daisy.Session) {
	cleaned := s.Table(tableName)
	var dirtyTuples []*daisy.Tuple
	for _, t := range cleaned.Rows() {
		if t.Dirty() {
			dirtyTuples = append(dirtyTuples, t)
		}
	}
	if len(dirtyTuples) == 0 {
		return
	}
	per := (len(dirtyTuples) + len(in.queries) - 1) / len(in.queries)
	var deltas []*ptable.Delta
	for lo := 0; lo < len(dirtyTuples); lo += per {
		d := ptable.NewDelta(tableName)
		for _, t := range dirtyTuples[lo:min(lo+per, len(dirtyTuples))] {
			for col := range t.Cells {
				if !t.Cells[col].IsCertain() {
					d.Set(t.ID, col, t.Cells[col].Clone()) // ApplyCOW takes ownership
				}
			}
		}
		deltas = append(deltas, d)
	}
	pt := ptable.FromTable(in.table)
	cells := 0
	t0 := time.Now()
	for _, d := range deltas {
		var n int
		pt, n = pt.ApplyCOW(d)
		cells += n
	}
	l.set("apply_cow_ms", float64(time.Since(t0))/float64(len(deltas))/float64(time.Millisecond), "ms")
	l.set("apply_cow_cells", float64(cells), "count")
}

// thetaProbe times thetajoin.Detect over the full matrix of a small table:
// end to end the theta-join's share depends on which queries tip a rule into
// a full clean, so the kernel is also timed alone.
func (l *layerRun) thetaProbe(sc scale, seed int64, in *inputs) {
	t := workload.Lineorder(workload.SSBConfig{Rows: sc.ProbeRows, Seed: seed})
	workload.InjectDCOutliers(t, "extended_price", "discount", 0.02, seed+1)
	var dm detect.Metrics
	t0 := time.Now()
	pairs := thetajoin.Detect(detect.TableView{T: t}, in.rule, 64, &dm)
	l.set("dc_probe_ms", float64(time.Since(t0))/float64(time.Millisecond), "ms")
	l.set("dc_probe_comparisons", float64(dm.Comparisons), "count")
	if dm.Comparisons > 0 {
		l.set("dc_probe_pairs_per_comparison", float64(len(pairs))/float64(dm.Comparisons), "ratio")
	}
}

// walLayer reads what the durable episode wrote: log bytes against the exact
// number of cells it fixed, checkpoints taken, and the directory's size.
func (l *layerRun) walLayer(s *daisy.Session, dir string, rows int) {
	appended, _ := counter(s, "daisy_wal_appended_bytes_total")
	appends, _ := counter(s, "daisy_wal_appends_total")
	ckpts, _ := counter(s, "daisy_checkpoints_total")
	l.set("wal_appends", float64(appends.Value), "count")
	l.set("wal_appended_bytes", float64(appended.Value), "B")
	if l.st.cellsUpdated > 0 {
		// Apply records only: the registration image and the rule text are
		// appended before the first query and carry no fixed cell.
		l.set("wal_bytes_per_fixed_cell", l.st.walBytes/l.st.cellsUpdated, "B")
	}
	l.set("checkpoints", float64(ckpts.Value), "count")
	var size int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			size += info.Size()
		}
		return err
	})
	if l.m.op("walk "+dir, err) {
		l.set("dir_bytes_per_row", float64(size)/float64(rows), "B")
	}
}

// recoveryLayer splits reopen_s: reading the newest checkpoint, reading the
// log records past it, and the remainder (decode, replay, index rebuild).
// It returns the reopened session.
func (l *layerRun) recoveryLayer(opts daisy.Options) *daisy.Session {
	t0 := time.Now()
	lsn, _, _, err := wal.LatestCheckpointFS(vfs.OS{}, opts.Dir)
	ckptRead := time.Since(t0)
	if !l.m.op("LatestCheckpointFS", err) {
		return nil
	}
	t0 = time.Now()
	recs, err := wal.RecordsFS(vfs.OS{}, opts.Dir, lsn)
	recRead := time.Since(t0)
	if !l.m.op("RecordsFS", err) {
		return nil
	}
	done := l.sp.start("reopen")
	s, err := daisy.Open(opts)
	done()
	if !l.m.op("reopen", err) {
		return nil
	}
	l.m.sameState("final", digest(s.StateFingerprint()), nil)
	reopen := l.sp.ms("reopen")
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	l.set("reopen_ms", reopen, "ms")
	l.set("reopen_checkpoint_read_ms", ms(ckptRead), "ms")
	l.set("reopen_records_read_ms", ms(recRead), "ms")
	l.set("reopen_replay_ms", reopen-ms(ckptRead)-ms(recRead), "ms")
	l.set("reopen_records", float64(len(recs)), "count")
	return s
}

// universal derives the metrics every workload reports from the span
// aggregate and the harness spans, and the workload-specific ones whose
// spans occurred.
func (l *layerRun) universal() {
	st := l.st
	l.set("engine_ms", st.perQueryMS(engineSpans...), "ms")
	l.set("engine_pct", st.pct(engineSpans...), "%")
	l.set("clean_pct", st.pct(cleanSpans...), "%")
	l.set("publish_pct", st.pct(publishSpans...), "%")
	l.set("unattributed_pct", st.pct("query"), "%")
	l.set("register_ms", l.sp.ms("register"), "ms")
	l.set("addrule_ms", l.sp.ms("addrule"), "ms")
	l.set("cells_updated", st.cellsUpdated, "count")
	l.set("traced_queries", float64(st.queries), "count")
	l.set("rows_returned", st.rowsReturned, "count")
	if u := median(l.untracedMS); u > 0 {
		l.set("trace_overhead_pct", 100*(median(l.tracedMS)-u)/u, "%")
	}
	// A query that selects nothing still examined rows: count it as one.
	l.set("rows_examined_per_row_returned", st.filterIn/max(st.filterOut, 1), "ratio")
	if st.queries > 0 {
		l.set("consume_ms", l.consumeUS/float64(st.queries)/1000, "ms")
	}
	for _, name := range []string{"scan", "filter", "project", "groupby", "cleanselect", "repair", "publish"} {
		if us, ok := st.us[name]; ok {
			l.set(name+"_ms", us/float64(st.queries)/1000, "ms")
		}
	}
	if us, ok := st.us["decision"]; ok {
		l.set("decision_us", us/float64(st.queries), "us")
	}
	if us, ok := st.us["detect.fd"]; ok {
		l.set("fd_detect_ms", us/float64(st.queries)/1000, "ms")
		if st.segTotal > 0 {
			l.set("segments_skipped_ratio", st.segSkipped/st.segTotal, "ratio")
		}
		l.set("segments_skipped", st.segSkipped, "count")
	}
	if us, ok := st.us["detect.dc"]; ok {
		l.set("dc_detect_ms", us/float64(st.queries)/1000, "ms")
		l.set("thetajoin_pct", st.pct("detect.dc"), "%")
		l.set("comparisons", st.dcComparisons, "count")
		if st.dcComparisons > 0 {
			l.set("pairs_per_comparison", st.dcPairs/st.dcComparisons, "ratio")
		}
		if len(st.workerMaxOverMean) > 0 {
			l.set("worker_slowest_over_mean", median(st.workerMaxOverMean), "ratio")
		}
	}
	if us, ok := st.us["wal.append"]; ok {
		l.set("wal_append_us", (us+st.us["wal.fsync"])/float64(st.queries), "us")
		l.set("wal_fsync_us", st.us["wal.fsync"]/float64(st.queries), "us")
	}
}

// findings checks that the traced pass shows each workload stressing what it
// was chosen for; a miss is reported, not hidden.
func findings(name string, out map[string]metric) []string {
	var notes []string
	want := func(ok bool, format string, args ...any) {
		if !ok {
			notes = append(notes, "finding: "+fmt.Sprintf(format, args...))
		}
	}
	switch name {
	case "warm_select":
		want(out["engine_pct"].Value >= 80, "engine is %.1f%% of query time, expected >= 80%%", out["engine_pct"].Value)
	case "cold_dc":
		want(out["thetajoin_pct"].Value >= 80, "thetajoin is %.1f%% of query time, expected >= 80%%", out["thetajoin_pct"].Value)
	case "cold_fd":
		share := out["clean_pct"].Value + out["publish_pct"].Value
		want(share >= 50, "detect+relax+repair+publish is %.1f%% of query time, expected >= 50%%", share)
	}
	if name != "serve_warm" {
		want(out["unattributed_pct"].Value <= 10, "%.1f%% of query time is in no span, expected <= 10%%", out["unattributed_pct"].Value)
	}
	return notes
}
