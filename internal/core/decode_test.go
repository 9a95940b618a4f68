package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/value"
	"daisy/internal/vfs"
	"daisy/internal/wal"
)

// TestDecodersRejectOversizedCounts: an element count larger than the bytes
// left to hold it is a decode error, never an allocation sized from it.
func TestDecodersRejectOversizedCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<62)
	// A checkpoint holding one table "t" whose image claims 1<<62 columns.
	ckpt := []byte{ckptVersion}
	ckpt = appendUvarint(ckpt, 0) // epoch
	ckpt = appendUvarint(ckpt, 0) // rules
	ckpt = appendUvarint(ckpt, 1) // tables
	ckpt = appendString(ckpt, "t")
	ckpt = append(ckpt, huge...)
	cases := []struct {
		name   string
		decode func() error
	}{
		{"apply record count", func() error {
			d := &dec{b: huge}
			d.applyRecord()
			return d.err
		}},
		{"checkpoint column count", func() error {
			_, _, err := decodeCheckpoint(ckpt)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.decode(); err == nil {
				t.Fatal("decoded an impossible count without error")
			}
		})
	}
}

// durableSeeds runs a small durable session — an FD table and a DC table,
// one repairing query each — and returns its final snapshot and the bodies
// of its apply records. Small seeds keep the fuzzer mutating rather than
// minimizing.
func durableSeeds(f *testing.F) (*snapshot, [][]byte) {
	dir := f.TempDir()
	s, err := Open(durableOpts(dir))
	if err != nil {
		f.Fatal(err)
	}
	emp := table.New("emp", schema.MustNew(
		schema.Column{Name: "salary", Kind: value.Float},
		schema.Column{Name: "tax", Kind: value.Float},
	))
	for i, tax := range []float64{0.1, 0.3, 0.2, 0.4} {
		emp.MustAppend(table.Row{value.NewFloat(float64(1000 + 100*i)), value.NewFloat(tax)})
	}
	for _, err := range []error{
		s.Register(citiesTable()), s.Register(emp),
		s.AddRule(dc.FD("phi", "cities", "city", "zip")),
		s.AddRule(dc.MustParse("psi@emp: !(t1.salary<t2.salary & t1.tax>t2.tax)")),
	} {
		if err != nil {
			f.Fatal(err)
		}
	}
	for _, q := range []string{"SELECT zip, city FROM cities WHERE zip = 9001", "SELECT salary FROM emp WHERE salary < 1200"} {
		if _, err := s.Query(q); err != nil {
			f.Fatal(err)
		}
	}
	snap := s.w.current()
	s.Close()
	recs, err := wal.RecordsFS(vfs.OS{}, dir, 0)
	if err != nil {
		f.Fatal(err)
	}
	var applies [][]byte
	for _, r := range recs {
		if r.Payload[0] == recApply {
			applies = append(applies, r.Payload[1:])
		}
	}
	if len(applies) == 0 || snap.tables["cities"].checked["phi"].len() == 0 || snap.tables["emp"].checked["psi"].len() == 0 {
		f.Fatal("seed session holds no FD and DC state")
	}
	return snap, applies
}

// checkpointFingerprint renders a decoded checkpoint: its state and sweeps.
func checkpointFingerprint(snap *snapshot, sweeps []sweepRef) string {
	return fmt.Sprintf("%s\nsweeps=%v", stateFingerprint(snap), sweeps)
}

// FuzzDecodeCheckpoint: arbitrary bytes never panic the checkpoint decoder,
// whatever decodes re-encodes to a checkpoint that decodes to the same
// state, and its cells rebuild. The seeds are real checkpoints of a session
// holding FD and DC state; decoding one and rebuilding its cells from the
// checked sets must give the state it encodes.
func FuzzDecodeCheckpoint(f *testing.F) {
	snap, _ := durableSeeds(f)
	want := checkpointFingerprint(snap, []sweepRef{{table: "cities", rule: "phi"}})
	seed := encodeCheckpoint(snap, []sweepRef{{table: "cities", rule: "phi"}})
	got, sweeps, err := decodeCheckpoint(seed)
	if err != nil {
		f.Fatal(err)
	}
	if err := rebuildCells(got, 1); err != nil {
		f.Fatal(err)
	}
	if checkpointFingerprint(got, sweeps) != want {
		f.Fatal("a real checkpoint does not decode to the state it encodes")
	}
	f.Add(seed)
	f.Add(encodeCheckpoint(snap, nil))
	f.Fuzz(func(t *testing.T, payload []byte) {
		snap, sweeps, err := decodeCheckpoint(payload)
		if err != nil {
			return
		}
		again, againSweeps, err := decodeCheckpoint(encodeCheckpoint(snap, sweeps))
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if checkpointFingerprint(again, againSweeps) != checkpointFingerprint(snap, sweeps) {
			t.Fatal("checkpoint changed through decode(encode(·))")
		}
		// Open rebuilds the cells of whatever decodes.
		if err := rebuildCells(snap, 1); err != nil {
			t.Fatalf("decoded checkpoint does not rebuild: %v", err)
		}
	})
}

// applyFingerprint renders decoded apply requests canonically, keeping
// exactly what encodeApplyRecord keeps.
func applyFingerprint(reqs []*applyReq) []byte {
	var buf []byte
	for _, r := range reqs {
		if len(r.marks) == 0 && !r.costRecord && !r.markSwitched {
			continue
		}
		buf = appendString(appendString(buf, r.table), r.rule)
		buf = fmt.Appendf(buf, "%v%v%v", r.costRecord, r.markSwitched, r.marks)
		if r.costRecord {
			buf = fmt.Appendf(buf, "%d,%d,%d", r.costQi, r.costEi, r.costEpsi)
		}
	}
	return buf
}

// decodeApply decodes one apply record body.
func decodeApply(body []byte) ([]*applyReq, error) {
	d := &dec{b: body}
	reqs := d.applyRecord()
	return reqs, d.err
}

// FuzzApplyRecord: arbitrary bytes never panic the apply-record decoder, and
// whatever decodes re-encodes to a record that decodes to the same requests.
// The seeds are the apply records a session holding FD and DC state logged.
func FuzzApplyRecord(f *testing.F) {
	_, applies := durableSeeds(f)
	for _, body := range applies {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		reqs, err := decodeApply(body)
		if err != nil {
			return
		}
		want := applyFingerprint(reqs)
		rec := encodeApplyRecord(reqs)
		if rec == nil {
			if len(want) != 0 {
				t.Fatal("durable requests encoded to no record")
			}
			return
		}
		again, err := decodeApply(rec[1:])
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !bytes.Equal(applyFingerprint(again), want) {
			t.Fatal("apply record changed through decode(encode(·))")
		}
	})
}

// TestDecodersRejectHostileInput: a durable directory whose decisions do not
// fit its relations and rules, or that an older build wrote, fails Open with
// an error — never a panic, never a session with made-up state.
func TestDecodersRejectHostileInput(t *testing.T) {
	// A real snapshot: cities binds FD phi with checked groups (anchors 0
	// and 3: rows 0-2 share zip 9001, rows 3-4 zip 10001), emp binds DC psi
	// with checked tuples.
	s := NewSession(Options{Strategy: StrategyIncremental, Workers: 1})
	defer s.Close()
	emp := empTable()
	for _, err := range []error{
		s.Register(citiesTable()), s.Register(emp),
		s.AddRule(dc.FD("phi", "cities", "city", "zip")),
		s.AddRule(dc.MustParse("psi@emp: !(t1.salary<t2.salary & t1.tax>t2.tax)")),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	runQueries(t, s, []string{"SELECT zip, city FROM cities WHERE zip = 9001", "SELECT salary FROM emp WHERE salary < 1500"})
	base := s.w.current()
	// ckpt encodes base with one relation's checked sets replaced by a
	// single rule's marks.
	ckpt := func(table, rule string, marks ...int) []byte {
		snap := base.derive()
		st := snap.mutableTable(table, make(map[string]bool))
		if rule != "" {
			st.checked = map[string]*posSet{rule: new(posSet).with(marks...)}
		}
		return encodeCheckpoint(snap, nil)
	}
	// Rule names key checked sets and indexes, so a checkpoint may add a
	// rule, and bind it to a relation, once.
	twice := func(bind bool) []byte {
		snap := base.derive()
		if bind {
			st := snap.mutableTable("cities", make(map[string]bool))
			st.rules = append(slices.Clip(st.rules), st.rules[0])
		} else {
			snap.rules = append(slices.Clip(snap.rules), snap.rules[0])
		}
		return encodeCheckpoint(snap, nil)
	}
	cities := citiesTable()
	register := encodeRegisterRecord("cities", ptable.FromTable(cities))
	rule := encodeRuleRecord(dc.FD("phi", "cities", "city", "zip"))
	apply := func(req *applyReq) []byte { return encodeApplyRecord([]*applyReq{req}) }
	// retag swaps a checkpoint's version byte or a record's type byte.
	retag := func(tag byte, b []byte) []byte { return append([]byte{tag}, b[1:]...) }

	cases := []struct {
		name    string
		ckpt    []byte   // nil: no checkpoint
		records [][]byte // the WAL past the checkpoint
		want    string
	}{
		{"checkpoint/groups-under-unbound-rule", ckpt("cities", "psi", 0), nil, "not bound"},
		// Row 1 is a member of anchor 0's group, not an anchor.
		{"checkpoint/tuples-under-fd-rule", ckpt("cities", "phi", 1), nil, "is not a group anchor"},
		{"checkpoint/tuple-not-in-relation", ckpt("emp", "psi", emp.Len()), nil, "is not in"},
		{"checkpoint/fd-position-past-end", ckpt("cities", "phi", 0, cities.Len()), nil, "is not in"},
		{"checkpoint/rule-added-twice", twice(false), nil, "adds rule \"phi\" twice"},
		{"checkpoint/rule-bound-twice", twice(true), nil, "binds rule \"phi\" to \"cities\" twice"},
		{"apply/unbound-rule", nil, [][]byte{register, rule, apply(&applyReq{table: "cities", rule: "psi", marks: []int{0}})}, "not bound"},
		{"apply/unregistered-table", nil, [][]byte{register, rule, apply(&applyReq{table: "emp", rule: "phi", marks: []int{0}})}, "unregistered table"},
		{"apply/tuples-under-fd-rule", nil, [][]byte{register, rule, apply(&applyReq{table: "cities", rule: "phi", marks: []int{1}})}, "is not a group anchor"},
		{"apply/position-past-end", nil, [][]byte{register, rule, apply(&applyReq{table: "cities", rule: "phi", marks: []int{3, 64}})}, "is not in"},
		{"older/checkpoint-v1", retag(1, ckpt("cities", "")), nil, "older build"},
		{"older/checkpoint-v2", retag(2, ckpt("cities", "")), nil, "older build"},
		{"older/record-type-1", nil, [][]byte{retag(1, register)}, "older build"},
		{"older/record-type-3", nil, [][]byte{retag(3, register)}, "older build"},
		{"older/record-type-4", nil, [][]byte{register, rule, retag(4, apply(&applyReq{table: "cities", rule: "phi", marks: []int{0}}))}, "older build"},
		{"older/record-type-7", nil, [][]byte{register, rule, retag(7, apply(&applyReq{table: "cities", rule: "phi", marks: []int{0}}))}, "older build"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if c.ckpt != nil {
				if err := wal.WriteCheckpointFS(vfs.OS{}, dir, 0, c.ckpt); err != nil {
					t.Fatal(err)
				}
			}
			log, err := wal.OpenLogFS(vfs.OS{}, dir, SyncOS, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range c.records {
				if _, err := log.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Open panicked: %v", p)
				}
			}()
			s, err := Open(durableOpts(dir))
			if err == nil {
				s.Close()
				t.Fatal("Open accepted the directory")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Open failed with %q, want it to mention %q", err, c.want)
			}
		})
	}
}
