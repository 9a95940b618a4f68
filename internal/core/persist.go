package core

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"daisy/internal/cost"
	"daisy/internal/dc"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/value"
	"daisy/internal/vfs"
	"daisy/internal/wal"
)

// This file encodes and decodes the session's durable forms: the per-batch
// WAL records the writer appends under its mutex, and the checkpoint images
// the background checkpointer publishes. The framing, torn-tail, and
// retention mechanics live in internal/wal; this file owns only what the
// bytes mean.
//
// Both forms store decisions, never cells. Cleaned state is a function of
// each relation's original values, its bound rules and its checked sets
// (the FD groups and DC tuples cleaning has covered): cleaning never
// rewrites original values (§4.3), FD fixes are the group index's repair of
// whole groups, DC fixes the set of ranges the detected pairs imply, and
// Lemma 4's merge commutes. A checked set is a set of row positions — an FD
// group's anchor (its first member's position, a function of the original
// values) or a DC tuple's position — and has one codec: a count and
// uvarint positions (appendPositions). So a register record holds the
// original values, an apply record the positions it marks with the
// cost-model charge, and a checkpoint the originals, bindings, cost state
// and checked sets of every relation. Recovery replays the marks and cost
// through applyOne and then rebuilds every relation's cells once
// (rebuildCells, recover.go). Structures derived from original values
// (group and rank indexes, range estimates) live on the registration and
// are never logged.
//
// Replay correctness rests on one invariant: applyOne is a deterministic
// function of (pre-state, request). Apply records therefore store requests
// *post-filter* — after filterCheckedFD dropped groups already checked —
// together with the effective costRecord bit the original apply resolved, so
// replaying them from the identical pre-state charges the cost model exactly
// as the original run did.
//
// Directories written by older builds fail to open with errOlderBuild:
// those that stored cleaned cells (checkpoint version 1, record types 1, 3
// and 4) and those that stored checked sets as lhs group keys and tuple IDs
// (checkpoint version 2, record type 7).

// WAL record types. Types 1, 3, 4 and 7 were written by older builds.
const (
	recRule     byte = 2 // AddRule: constraint text (name@table: body)
	recSweep    byte = 5 // background sweep enqueued for (table, rule)
	recRegister byte = 6 // Register: table name + original values
	recApply    byte = 8 // one coalesced apply batch: checked positions + cost
)

// checkpoint payload version.
const ckptVersion byte = 3

// errOlderBuild reports a durable form this build no longer reads.
func errOlderBuild(what string) error {
	return fmt.Errorf("core: %s was written by an older build, which stored cleaned cells or "+
		"checked sets as group keys and tuple IDs; this build stores checked row positions "+
		"and cannot read it: clean into a new directory", what)
}

// sweepRef names the background sweep of one rule over one relation.
type sweepRef struct {
	table, rule string
}

// ---------------------------------------------------------------------------
// primitives

func appendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

func appendVarint(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) }

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

func appendValue(buf []byte, v value.Value) []byte {
	buf = append(buf, byte(v.Kind()))
	switch v.Kind() {
	case value.Null:
	case value.Int:
		buf = appendVarint(buf, v.Int())
	case value.Float:
		buf = appendFloat(buf, v.Float())
	case value.String:
		buf = appendString(buf, v.Str())
	}
	return buf
}

// dec is a cursor over one record payload; the first decode error sticks and
// every subsequent read returns zero values, so decoders read linearly and
// check err once.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("core: corrupt durable record: truncated %s", what)
	}
}

// setErr records err as the sticky error unless an earlier one is set.
func (d *dec) setErr(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads an element count and fails, with the sticky error, when the
// remaining payload cannot hold that many elements of at least minSize
// encoded bytes each — so a corrupt or hostile count can never size an
// allocation beyond the bytes actually present.
func (d *dec) count(minSize int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)/minSize) {
		d.err = fmt.Errorf("core: corrupt durable record: count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *dec) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.fail("string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *dec) value() value.Value {
	switch value.Kind(d.byte()) {
	case value.Int:
		return value.NewInt(d.varint())
	case value.Float:
		return value.NewFloat(d.float())
	case value.String:
		return value.NewString(d.string())
	default:
		return value.NewNull()
	}
}

// ---------------------------------------------------------------------------
// checked sets (apply records, checkpoint tables)

// appendPositions renders marks or a checked set: a count, then each
// position as a uvarint.
func appendPositions(buf []byte, ps []int) []byte {
	buf = appendUvarint(buf, uint64(len(ps)))
	for _, p := range ps {
		buf = appendUvarint(buf, uint64(p))
	}
	return buf
}

// positions decodes appendPositions; checkDecisions validates the result.
func (d *dec) positions() []int {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	ps := make([]int, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		ps = append(ps, int(d.uvarint()))
	}
	return ps
}

// ---------------------------------------------------------------------------
// original values (register records, checkpoint tables)

// appendOriginals renders a registered relation as its schema and original
// values, row-major. Registered relations number their tuples by position
// (ptable.FromTable), so no tuple ID is stored.
func appendOriginals(buf []byte, pt *ptable.PTable) []byte {
	sc := pt.Schema
	buf = appendUvarint(buf, uint64(sc.Len()))
	for i := 0; i < sc.Len(); i++ {
		col := sc.Col(i)
		buf = appendString(buf, col.Name)
		buf = append(buf, byte(col.Kind))
	}
	buf = appendUvarint(buf, uint64(pt.Len()))
	for _, t := range pt.Rows() {
		for i := range t.Cells {
			buf = appendValue(buf, t.Cells[i].Orig)
		}
	}
	return buf
}

// originals decodes appendOriginals into the relation Register installs.
func (d *dec) originals(name string) *ptable.PTable {
	ncols := d.count(2) // name, kind
	cols := make([]schema.Column, 0, ncols)
	for i := 0; i < ncols && d.err == nil; i++ {
		cols = append(cols, schema.Column{Name: d.string(), Kind: value.Kind(d.byte())})
	}
	if d.err != nil {
		return nil
	}
	sc, err := schema.New(cols...)
	if err != nil {
		d.err = err
		return nil
	}
	width := sc.Len()
	nrows := d.count(max(width, 1)) // one kind byte per value
	vals := make([]value.Value, 0, nrows*width)
	tb := table.New(name, sc)
	tb.Rows = make([]table.Row, 0, nrows)
	for i := 0; i < nrows && d.err == nil; i++ {
		lo := len(vals)
		for j := 0; j < width; j++ {
			vals = append(vals, d.value())
		}
		tb.Rows = append(tb.Rows, table.Row(vals[lo:len(vals):len(vals)]))
	}
	if d.err != nil {
		return nil
	}
	return ptable.FromTable(tb)
}

// ---------------------------------------------------------------------------
// WAL records

// ruleText renders a constraint in the form dc.Parse round-trips, including
// the @table binding Constraint.String omits.
func ruleText(c *dc.Constraint) string {
	s := c.String()
	if c.Table == "" || c.Name == "" {
		return s
	}
	body := strings.TrimSpace(strings.TrimPrefix(s, c.Name+":"))
	return c.Name + "@" + c.Table + ": " + body
}

func encodeRegisterRecord(name string, pt *ptable.PTable) []byte {
	buf := append(make([]byte, 0, 256), recRegister)
	buf = appendString(buf, name)
	return appendOriginals(buf, pt)
}

func encodeRuleRecord(c *dc.Constraint) []byte {
	return appendString([]byte{recRule}, ruleText(c))
}

func encodeSweepRecord(table, rule string) []byte {
	return appendString(appendString([]byte{recSweep}, table), rule)
}

const (
	applyFlagCost     byte = 1 << 0
	applyFlagSwitched byte = 1 << 1
)

// encodeApplyRecord renders one apply batch: per request the relation, the
// rule, the positions it marks checked, and the cost charge.
// Its cells are not stored; recovery recomputes them from the checked sets.
// Requests that ended up pure no-ops (fully coalesced duplicates without a
// switch mark) are skipped; a batch with nothing durable returns nil and
// appends no record at all.
func encodeApplyRecord(reqs []*applyReq) []byte {
	durable := reqs[:0:0]
	for _, r := range reqs {
		if len(r.marks) == 0 && !r.costRecord && !r.markSwitched {
			continue
		}
		durable = append(durable, r)
	}
	if len(durable) == 0 {
		return nil
	}
	buf := append(make([]byte, 0, 256), recApply)
	buf = appendUvarint(buf, uint64(len(durable)))
	for _, r := range durable {
		buf = appendString(buf, r.table)
		buf = appendString(buf, r.rule)
		var flags byte
		if r.costRecord {
			flags |= applyFlagCost
		}
		if r.markSwitched {
			flags |= applyFlagSwitched
		}
		buf = append(buf, flags)
		buf = appendPositions(buf, r.marks)
		if r.costRecord {
			buf = appendUvarint(buf, uint64(r.costQi))
			buf = appendUvarint(buf, uint64(r.costEi))
			buf = appendUvarint(buf, uint64(r.costEpsi))
		}
	}
	return buf
}

// applyRecord decodes an apply batch's requests; replayApply checks each
// against the relation and rules it names.
func (d *dec) applyRecord() []*applyReq {
	n := d.count(4) // table, rule, flags, mark count
	reqs := make([]*applyReq, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		r := &applyReq{table: d.string(), rule: d.string()}
		flags := d.byte()
		r.costRecord = flags&applyFlagCost != 0
		r.markSwitched = flags&applyFlagSwitched != 0
		r.marks = d.positions()
		if r.costRecord {
			r.costQi = int(d.uvarint())
			r.costEi = int(d.uvarint())
			r.costEpsi = int(d.uvarint())
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// checkDecisions fails unless a durable form may mark the positions checked
// under rule on the relation: the relation binds the rule, every position
// names a tuple of the relation, and under an FD every position is a group
// anchor.
func checkDecisions(st *tableState, table, rule string, marks []int) error {
	i := slices.IndexFunc(st.rules, func(c *dc.Constraint) bool { return c.Name == rule })
	if i < 0 {
		return fmt.Errorf("core: corrupt durable state: rule %q is not bound to %q", rule, table)
	}
	var ix *fdIndex
	if fd, isFD := st.rules[i].AsFD(); isFD {
		ix = st.reg.fdIndex(st.pt, rule, fd)
	}
	for _, p := range marks {
		if p < 0 || p >= st.pt.Len() {
			return fmt.Errorf("core: corrupt durable state: checked position %d is not in %q", p, table)
		}
		if ix != nil && ix.anchorOf(p) != p {
			return fmt.Errorf("core: corrupt durable state: checked position %d under FD %q on %q is not a group anchor", p, rule, table)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// checkpoint image

// encodeCheckpoint renders the durable state of one published snapshot plus
// the background sweeps that have not finished: everything Open needs to
// rebuild a session without any WAL prefix. Per relation it stores the
// original values, the bound rules, the cost state and the checked sets —
// not the cells, which recovery recomputes from those, nor derived
// structures (FD indexes, DC rank indexes and estimates), which rebuild on
// first use.
func encodeCheckpoint(snap *snapshot, sweeps []sweepRef) []byte {
	buf := []byte{ckptVersion}
	buf = appendUvarint(buf, snap.epoch)
	buf = appendUvarint(buf, uint64(len(snap.rules)))
	for _, c := range snap.rules {
		buf = appendString(buf, ruleText(c))
	}
	names := slices.Sorted(maps.Keys(snap.tables))
	buf = appendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		st := snap.tables[name]
		buf = appendString(buf, name)
		buf = appendOriginals(buf, st.pt)
		buf = appendUvarint(buf, uint64(len(st.rules)))
		for _, c := range st.rules {
			buf = appendString(buf, c.Name)
		}
		if st.cost != nil {
			cs := st.cost.State()
			buf = append(buf, 1)
			buf = appendUvarint(buf, uint64(cs.N))
			buf = appendUvarint(buf, uint64(cs.Epsilon))
			buf = appendFloat(buf, cs.P)
			buf = appendUvarint(buf, uint64(cs.Seen))
			buf = appendUvarint(buf, uint64(cs.CleanedErr))
			buf = appendFloat(buf, cs.CumIncremental)
			buf = appendUvarint(buf, uint64(cs.Queries))
			if cs.Switched {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		} else {
			buf = append(buf, 0)
		}
		buf = appendUvarint(buf, uint64(len(st.checked)))
		for _, rule := range slices.Sorted(maps.Keys(st.checked)) {
			buf = appendString(buf, rule)
			buf = appendPositions(buf, slices.Collect(st.checked[rule].all()))
		}
	}
	buf = appendUvarint(buf, uint64(len(sweeps)))
	for _, sw := range sweeps {
		buf = appendString(buf, sw.table)
		buf = appendString(buf, sw.rule)
	}
	return buf
}

// decodeCheckpoint rebuilds the snapshot — fresh registrations over the
// original values, with their bindings, cost models and checked sets — and
// returns it with the live-sweep list. Its relations hold no fixes yet:
// recovery calls rebuildCells once the WAL suffix has replayed.
func decodeCheckpoint(payload []byte) (*snapshot, []sweepRef, error) {
	d := &dec{b: payload}
	switch v := d.byte(); {
	case d.err != nil:
		return nil, nil, d.err
	case v == 1 || v == 2:
		return nil, nil, errOlderBuild(fmt.Sprintf("checkpoint version %d", v))
	case v != ckptVersion:
		return nil, nil, fmt.Errorf("core: unsupported checkpoint version %d", v)
	}
	snap := &snapshot{epoch: d.uvarint(), tables: make(map[string]*tableState)}
	nrules := d.count(1)
	for i := 0; i < nrules && d.err == nil; i++ {
		c, err := dc.Parse(d.string())
		if err != nil {
			d.setErr(err)
			break
		}
		snap.rules = append(snap.rules, c)
	}
	byName := make(map[string]*dc.Constraint, len(snap.rules))
	for _, c := range snap.rules {
		if byName[c.Name] != nil {
			d.setErr(fmt.Errorf("core: checkpoint adds rule %q twice", c.Name))
		}
		byName[c.Name] = c
	}
	ntables := d.count(6) // name, column and row counts, rule count, cost flag, set count
	for i := 0; i < ntables && d.err == nil; i++ {
		name := d.string()
		pt := d.originals(name)
		if d.err != nil {
			break
		}
		st := newTableState(pt)
		nbound := d.count(1)
		for j := 0; j < nbound && d.err == nil; j++ {
			rname := d.string()
			c, ok := byName[rname]
			if !ok {
				d.setErr(fmt.Errorf("core: checkpoint binds unknown rule %q on %q", rname, name))
				break
			}
			if !hasColumns(pt.Schema, c) {
				d.setErr(fmt.Errorf("core: checkpoint binds rule %q to %q, which lacks its columns", rname, name))
				break
			}
			if slices.Contains(st.rules, c) {
				d.setErr(fmt.Errorf("core: checkpoint binds rule %q to %q twice", rname, name))
				break
			}
			st.rules = append(st.rules, c)
		}
		if d.byte() == 1 {
			cs := cost.State{
				N: int(d.uvarint()), Epsilon: int(d.uvarint()), P: d.float(),
				Seen: int(d.uvarint()), CleanedErr: int(d.uvarint()),
				CumIncremental: d.float(), Queries: int(d.uvarint()),
				Switched: d.byte() == 1,
			}
			st.cost = cost.FromState(cs)
		}
		nsets := d.count(2) // rule, position count
		for j := 0; j < nsets && d.err == nil; j++ {
			rule, marks := d.string(), d.positions()
			if d.err != nil {
				break
			}
			if err := checkDecisions(st, name, rule, marks); err != nil {
				d.setErr(err)
				break
			}
			st.checked[rule] = st.checked[rule].with(marks...)
		}
		snap.tables[name] = st
	}
	nsweeps := d.count(2) // table, rule
	var sweeps []sweepRef
	for i := 0; i < nsweeps && d.err == nil; i++ {
		sweeps = append(sweeps, sweepRef{table: d.string(), rule: d.string()})
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	return snap, sweeps, nil
}

// ---------------------------------------------------------------------------
// state fingerprint

// stateFingerprint renders everything durable about a snapshot canonically:
// per-table probabilistic state, checked-set bookkeeping, cost-model state,
// bound rules, and the global rule list. Registrations with their derived
// indexes and estimates, and epoch counters, are excluded — they are session-local or recomputed. The crash-injection
// tests assert a recovered session fingerprints byte-identically to the
// uninterrupted oracle run.
func stateFingerprint(snap *snapshot) string {
	var b strings.Builder
	for _, name := range slices.Sorted(maps.Keys(snap.tables)) {
		st := snap.tables[name]
		fmt.Fprintf(&b, "== table %s\n", name)
		b.WriteString(st.pt.Fingerprint())
		for _, c := range st.rules {
			fmt.Fprintf(&b, "rule %s\n", c.Name)
		}
		for _, rule := range slices.Sorted(maps.Keys(st.checked)) {
			fmt.Fprintf(&b, "checked[%s]=%v\n", rule, slices.Collect(st.checked[rule].all()))
		}
		if st.cost != nil {
			fmt.Fprintf(&b, "cost=%+v\n", st.cost.State())
		}
	}
	for _, c := range snap.rules {
		fmt.Fprintf(&b, "rule: %s\n", ruleText(c))
	}
	return b.String()
}

// StateFingerprint renders the current epoch's durable state canonically —
// the comparison unit of the crash-recovery tests and the durability
// experiment in cmd/daisy-bench.
func (s *Session) StateFingerprint() string {
	return stateFingerprint(s.w.current())
}

// ---------------------------------------------------------------------------
// checkpointer

// checkpointer publishes full-state checkpoints in the background, rotating
// and pruning the WAL behind each one — and, when the session has degraded,
// runs the re-attach cycle: a successful full checkpoint supersedes the
// holed WAL history, so the log can rotate to a fresh file and resume. It
// holds the writer and the sweeper — never the Session — so a
// dropped session can still be finalized while the goroutine is parked.
type checkpointer struct {
	w             *writer
	fs            vfs.FS
	dir           string
	mode          SyncMode
	threshold     int64
	reattachEvery time.Duration
	sweeps        *sweeper

	quit     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	started  bool

	lastAttempt time.Time // re-attach pacing; run goroutine only

	mu      sync.Mutex // serializes whole checkpoint cycles
	lastErr error
}

func newCheckpointer(w *writer, sweeps *sweeper, opts *Options) *checkpointer {
	return &checkpointer{
		w: w, sweeps: sweeps, fs: opts.FS, dir: opts.Dir, mode: opts.Sync,
		threshold: opts.CheckpointBytes, reattachEvery: opts.ReattachInterval,
		quit: make(chan struct{}), done: make(chan struct{}),
	}
}

// start launches the automatic trigger loop (skipped when automatic
// checkpointing is disabled; manual Session.Checkpoint still works, and is
// then also the only path out of degraded mode).
func (c *checkpointer) start() {
	if c.threshold <= 0 {
		return
	}
	c.started = true
	go c.run()
}

func (c *checkpointer) run() {
	defer close(c.done)
	// The ticker drives degraded-mode re-attach attempts even when no
	// traffic nudges the loop — a fail-closed tenant with its writes
	// rejected must still find its way back to healthy.
	tick := time.NewTicker(c.reattachEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.w.ckptNudge:
			if c.w.durabilityState() == DurabilityDegraded {
				c.tryReattach()
			} else if c.w.logTail() >= c.threshold {
				_ = c.checkpoint()
			}
		case <-tick.C:
			if c.w.durabilityState() == DurabilityDegraded {
				c.tryReattach()
			}
		case <-c.quit:
			return
		}
	}
}

// tryReattach runs a checkpoint cycle to exit degraded mode, paced by
// reattachEvery so a hard-down disk is not hammered with full-state writes
// on every nudge.
func (c *checkpointer) tryReattach() {
	if time.Since(c.lastAttempt) < c.reattachEvery {
		return
	}
	c.lastAttempt = time.Now()
	_ = c.checkpoint()
}

// stop halts the trigger loop and waits for an in-flight checkpoint cycle to
// finish, so Session.Close can close the log without racing a checkpoint
// append. Idempotent.
func (c *checkpointer) stop() {
	c.stopOnce.Do(func() {
		close(c.quit)
		if c.started {
			<-c.done
		}
		// Barrier: an in-flight checkpoint() holds c.mu until its writes end.
		c.mu.Lock()
		c.mu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	})
}

// errState returns the last checkpoint failure.
func (c *checkpointer) errState() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}

// checkpoint captures (snapshot, lastLSN) atomically under the writer mutex
// — appends publish their snapshot before releasing it, so the image covers
// exactly the records up to lastLSN — writes the checkpoint file, rotates
// the log (or, when degraded, re-attaches a fresh one), and prunes covered
// files. Safe to run concurrently with appends: records landing after
// lastLSN stay in un-pruned files and replay on top. Capture waits out any
// live retry episode first (see captureForCheckpoint) — a flush racing the
// capture would put effects inside the image AND records above its LSN.
func (c *checkpointer) checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap, lsn, degraded := c.w.captureForCheckpoint()
	payload := encodeCheckpoint(snap, c.sweeps.unfinished())
	if err := wal.WriteCheckpointFS(c.fs, c.dir, lsn, payload); err != nil {
		c.lastErr = err
		c.w.instr.ckptFailures.Inc()
		return err
	}
	c.w.instr.checkpoints.Inc()
	if degraded {
		// The checkpoint covers the whole degraded era (memory state included),
		// superseding the holed journal: re-attach and resume logging.
		if err := c.reattach(lsn); err != nil {
			c.lastErr = err
			c.w.instr.ckptFailures.Inc()
			return err
		}
	} else {
		c.w.mu.Lock()
		if c.w.wlog != nil {
			_ = c.w.wlog.Rotate()
		}
		c.w.mu.Unlock()
	}
	st, err := wal.PruneFS(c.fs, c.dir, lsn)
	if err != nil {
		c.lastErr = err
		return err
	}
	if st.Failed > 0 {
		// Surface stuck files: they grow the directory forever, and only
		// cost replay time — so count and report, don't fail the cycle.
		c.w.instr.pruneFailures.Add(int64(st.Failed))
		c.lastErr = fmt.Errorf("core: wal prune left %d file(s) behind: %w", st.Failed, st.FirstErr)
	} else {
		c.lastErr = nil
	}
	return nil
}

// reattach opens a fresh append view of the directory after a degraded
// period and rotates it so post-reattach records land in a fresh WAL file.
// ckLSN — the just-published checkpoint's cover — floors the LSN sequence;
// records before it were either durable (still on disk, now redundant) or
// dropped while degraded (their effects are inside the checkpoint image).
// Records *past* ckLSN are zombies — frames whose bytes landed but whose
// append was never acknowledged (fsync failed and the undo-truncate failed
// too); their effects are also inside the image, so they are trimmed away
// before the log reopens, or replay would double-apply them.
func (c *checkpointer) reattach(ckLSN uint64) error {
	if err := wal.TrimAfterFS(c.fs, c.dir, ckLSN); err != nil {
		return err
	}
	wlog, err := wal.OpenLogFS(c.fs, c.dir, c.mode, ckLSN)
	if err != nil {
		return err
	}
	if err := wlog.Rotate(); err != nil {
		wlog.Close()
		return err
	}
	wlog.SetInstruments(c.w.instr.walInstruments())
	if !c.w.reattachLog(wlog) {
		// The writer is closing (or recovered by other means): back out.
		wlog.Close()
	}
	return nil
}
