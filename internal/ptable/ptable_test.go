package ptable

import (
	"fmt"
	"strings"
	"testing"

	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

func citiesTable(t *testing.T) *table.Table {
	t.Helper()
	sch := schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "city", Kind: value.String},
	)
	tb := table.New("cities", sch)
	for _, r := range []table.Row{
		{value.NewInt(9001), value.NewString("Los Angeles")},
		{value.NewInt(9001), value.NewString("San Francisco")},
		{value.NewInt(10001), value.NewString("New York")},
	} {
		tb.MustAppend(r)
	}
	return tb
}

// tableWithRows builds an n-row deterministic table over sch for alloc pins.
func tableWithRows(t *testing.T, sch *schema.Schema, n int) *table.Table {
	t.Helper()
	tb := table.New("big", sch)
	for i := 0; i < n; i++ {
		tb.MustAppend(table.Row{value.NewInt(int64(i % 97)), value.NewString("city")})
	}
	return tb
}

func dirtyCell() uncertain.Cell {
	return uncertain.Cell{
		Orig: value.NewString("San Francisco"),
		Candidates: []uncertain.Candidate{
			{Val: value.NewString("Los Angeles"), Prob: 2.0 / 3, World: 1, Support: 2},
			{Val: value.NewString("San Francisco"), Prob: 1.0 / 3, World: 1, Support: 1},
		},
	}
}

func TestFromTableSnapshot(t *testing.T) {
	p := FromTable(citiesTable(t))
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
	if p.DirtyTuples() != 0 {
		t.Errorf("fresh snapshot dirty = %d", p.DirtyTuples())
	}
	if p.Get(0, "city").Str() != "Los Angeles" {
		t.Errorf("Get = %v", p.Get(0, "city"))
	}
	for pos, tup := range p.Rows() {
		if tup.ID != int64(pos) {
			t.Errorf("tuple at position %d has ID %d", pos, tup.ID)
		}
	}
	if got := p.At(2); got.Cells[0].Value().Int() != 10001 {
		t.Errorf("At(2) = %v", got)
	}
	if _, ok := p.Pos(99); ok {
		t.Error("missing id must miss")
	}
}

// TestFromTableAllocsPerSegment pins the snapshot's batch allocation:
// snapshotting allocates O(segments) blocks, not O(rows) objects — under 10
// allocs per 512-row segment.
func TestFromTableAllocsPerSegment(t *testing.T) {
	const rows = 8 * SegmentSize
	sch := citiesTable(t).Schema
	tb := tableWithRows(t, sch, rows)
	allocs := testing.AllocsPerRun(5, func() {
		p := FromTable(tb)
		if p.Len() != rows {
			t.Fatal("bad snapshot")
		}
	})
	segs := rows / SegmentSize
	if maxAllocs := float64(10 * segs); allocs > maxAllocs {
		t.Errorf("FromTable(%d rows) = %.0f allocs, want <= %.0f (O(segments), no per-tuple objects)",
			rows, allocs, maxAllocs)
	}
}

func TestApplyDeltaReplacesCleanCells(t *testing.T) {
	p := FromTable(citiesTable(t))
	d := NewDelta("cities")
	d.Set(1, p.Schema.MustIndex("city"), dirtyCell())
	if n := p.Apply(d); n != 1 {
		t.Fatalf("Apply updated %d cells, want 1", n)
	}
	if p.DirtyTuples() != 1 {
		t.Errorf("dirty tuples = %d", p.DirtyTuples())
	}
	cell := p.Cell(1, "city")
	if cell.IsCertain() {
		t.Fatal("cell must be uncertain after delta")
	}
	if cell.Orig.Str() != "San Francisco" {
		t.Error("provenance must keep original value")
	}
}

func TestApplyDeltaMergesDirtyCells(t *testing.T) {
	p := FromTable(citiesTable(t))
	col := p.Schema.MustIndex("city")
	d1 := NewDelta("cities")
	d1.Set(1, col, dirtyCell())
	p.Apply(d1)

	d2 := NewDelta("cities")
	d2.Set(1, col, uncertain.Cell{
		Orig: value.NewString("San Francisco"),
		Candidates: []uncertain.Candidate{
			{Val: value.NewString("Oakland"), Prob: 1, World: 1, Support: 1},
		},
	})
	p.Apply(d2)
	cell := p.Cell(1, "city")
	if len(cell.Candidates) != 3 {
		t.Errorf("merged candidates = %d, want 3", len(cell.Candidates))
	}
	if s := cell.ProbSum(); s < 0.999 || s > 1.001 {
		t.Errorf("ProbSum = %v", s)
	}
}

func TestApplyIgnoresUnknownIDs(t *testing.T) {
	p := FromTable(citiesTable(t))
	d := NewDelta("cities")
	d.Set(42, 0, dirtyCell())
	if n := p.Apply(d); n != 0 {
		t.Errorf("Apply to missing tuple updated %d", n)
	}
}

func TestMostProbableAndOriginals(t *testing.T) {
	p := FromTable(citiesTable(t))
	d := NewDelta("cities")
	d.Set(1, p.Schema.MustIndex("city"), dirtyCell())
	p.Apply(d)

	mp := p.MostProbable()
	if mp.ColByName(1, "city").Str() != "Los Angeles" {
		t.Errorf("most probable = %v", mp.ColByName(1, "city"))
	}
	orig := p.Originals()
	if orig.ColByName(1, "city").Str() != "San Francisco" {
		t.Errorf("originals = %v", orig.ColByName(1, "city"))
	}
}

func TestCloneIndependence(t *testing.T) {
	p := FromTable(citiesTable(t))
	cp := p.Clone()
	d := NewDelta("cities")
	d.Set(0, 1, dirtyCell())
	cp.Apply(d)
	if p.DirtyTuples() != 0 {
		t.Error("Clone must not share cell storage")
	}
	for pos, tup := range cp.Rows() {
		if tup.ID != int64(pos) {
			t.Errorf("clone tuple at position %d has ID %d", pos, tup.ID)
		}
	}
}

func TestCandidateFootprint(t *testing.T) {
	p := FromTable(citiesTable(t))
	if p.CandidateFootprint() != 0 {
		t.Error("clean table footprint must be 0")
	}
	d := NewDelta("cities")
	d.Set(0, 1, dirtyCell())
	p.Apply(d)
	if p.CandidateFootprint() != 2 {
		t.Errorf("footprint = %d, want 2", p.CandidateFootprint())
	}
}

func TestTupleDirtyAndClone(t *testing.T) {
	tup := &Tuple{ID: 7, Cells: []uncertain.Cell{uncertain.Certain(value.NewInt(1)), dirtyCell()}}
	if !tup.Dirty() {
		t.Error("tuple with dirty cell must be Dirty")
	}
	cp := tup.Clone()
	cp.Cells[1].Candidates[0].Prob = 0.01
	if tup.Cells[1].Candidates[0].Prob == 0.01 || cp.ID != tup.ID {
		t.Error("Clone must deep-copy cells and keep the ID")
	}
}

func TestApplyCOWLeavesReceiverUntouched(t *testing.T) {
	p := FromTable(citiesTable(t))
	d := NewDelta("cities")
	col := p.Schema.MustIndex("city")
	d.Set(1, col, dirtyCell())
	next, n := p.ApplyCOW(d)
	if n != 1 {
		t.Fatalf("ApplyCOW updated %d cells, want 1", n)
	}
	// Receiver epoch is untouched; the new generation carries the fix.
	if p.DirtyTuples() != 0 {
		t.Error("ApplyCOW mutated the receiver")
	}
	if next.DirtyTuples() != 1 {
		t.Error("new generation missing the applied cells")
	}
	// Untouched tuples are shared, touched tuples are fresh.
	if p.At(0) != next.At(0) || p.At(2) != next.At(2) {
		t.Error("untouched tuples must be shared across generations")
	}
	if p.At(1) == next.At(1) {
		t.Error("touched tuple must be cloned")
	}
	// The touched tuple keeps its ID, its position.
	if next.At(1).ID != 1 {
		t.Errorf("cloned tuple ID = %d, want 1", next.At(1).ID)
	}
}

func TestApplyCOWMergesIntoNewGenerationOnly(t *testing.T) {
	p := FromTable(citiesTable(t))
	col := p.Schema.MustIndex("city")
	d1 := NewDelta("cities")
	d1.Set(1, col, dirtyCell())
	gen1, _ := p.ApplyCOW(d1)

	d2 := NewDelta("cities")
	d2.Set(1, col, uncertain.Cell{
		Orig: value.NewString("San Francisco"),
		Candidates: []uncertain.Candidate{
			{Val: value.NewString("Oakland"), Prob: 1, World: 1, Support: 1},
		},
	})
	gen2, _ := gen1.ApplyCOW(d2)
	if got := len(gen1.Cell(1, "city").Candidates); got != 2 {
		t.Errorf("generation 1 candidates = %d, want 2 (merge must copy-on-write)", got)
	}
	if got := len(gen2.Cell(1, "city").Candidates); got != 3 {
		t.Errorf("generation 2 candidates = %d, want 3", got)
	}
}

func TestFingerprintCanonical(t *testing.T) {
	p := FromTable(citiesTable(t))
	col := p.Schema.MustIndex("city")
	// Two states built by merging the same two fixes in opposite order must
	// fingerprint identically (world ids and candidate order are
	// merge-order artifacts; the distribution is not).
	fixA := func() uncertain.Cell { return dirtyCell() }
	fixB := func() uncertain.Cell {
		return uncertain.Cell{
			Orig: value.NewString("San Francisco"),
			Candidates: []uncertain.Candidate{
				{Val: value.NewString("Oakland"), Prob: 1, World: 1, Support: 1},
			},
		}
	}
	ab := FromTable(citiesTable(t))
	dA := NewDelta("cities")
	dA.Set(1, col, fixA())
	ab.Apply(dA)
	dB := NewDelta("cities")
	dB.Set(1, col, fixB())
	ab.Apply(dB)

	ba := FromTable(citiesTable(t))
	dB2 := NewDelta("cities")
	dB2.Set(1, col, fixB())
	ba.Apply(dB2)
	dA2 := NewDelta("cities")
	dA2.Set(1, col, fixA())
	ba.Apply(dA2)

	if ab.Fingerprint() != ba.Fingerprint() {
		t.Errorf("merge order leaked into fingerprint:\n%s\nvs\n%s", ab.Fingerprint(), ba.Fingerprint())
	}
	if p.Fingerprint() == ab.Fingerprint() {
		t.Error("distinct states must fingerprint differently")
	}
}

// bigTable builds a deterministic multi-segment relation (zip, city).
func bigTable(t testing.TB, n int) *table.Table {
	t.Helper()
	sch := schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "city", Kind: value.String},
	)
	tb := table.New("big", sch)
	for i := 0; i < n; i++ {
		tb.MustAppend(table.Row{value.NewInt(int64(i % 997)), value.NewString("c" + string(rune('a'+i%17)))})
	}
	return tb
}

func TestApplyCOWSharesUntouchedSegments(t *testing.T) {
	n := 3*SegmentSize + 100
	p := FromTable(bigTable(t, n))
	d := NewDelta("big")
	// One touched tuple in segment 1; segments 0, 2, 3 must be shared.
	d.Set(int64(SegmentSize+5), 1, dirtyCell())
	next, updated := p.ApplyCOW(d)
	if updated != 1 {
		t.Fatalf("updated = %d", updated)
	}
	if len(p.segs) != 4 || len(next.segs) != 4 {
		t.Fatalf("segments = %d/%d, want 4", len(p.segs), len(next.segs))
	}
	for _, si := range []int{0, 2, 3} {
		if p.segs[si] != next.segs[si] {
			t.Errorf("untouched segment %d must be shared by pointer", si)
		}
	}
	if p.segs[1] == next.segs[1] {
		t.Error("touched segment must be cloned")
	}
	// Within the cloned segment, untouched tuples are still shared.
	if p.At(SegmentSize+4) != next.At(SegmentSize+4) {
		t.Error("untouched tuple inside cloned segment must be shared")
	}
	if p.At(SegmentSize+5) == next.At(SegmentSize+5) {
		t.Error("touched tuple must be fresh")
	}
	// Counters follow the generation, not the ancestor.
	if p.DirtyTuples() != 0 || next.DirtyTuples() != 1 {
		t.Errorf("dirty = %d/%d, want 0/1", p.DirtyTuples(), next.DirtyTuples())
	}
	if p.CandidateFootprint() != 0 || next.CandidateFootprint() != 2 {
		t.Errorf("footprint = %d/%d, want 0/2", p.CandidateFootprint(), next.CandidateFootprint())
	}
}

func TestAppendOnCOWGenerationPanics(t *testing.T) {
	p := FromTable(citiesTable(t))
	d := NewDelta("cities")
	d.Set(1, p.Schema.MustIndex("city"), dirtyCell())
	next, _ := p.ApplyCOW(d)
	defer func() {
		if recover() == nil {
			t.Fatal("Append on an ApplyCOW generation must panic: it shares segment storage with ancestor epochs")
		}
	}()
	next.Append(&Tuple{ID: 99, Cells: []uncertain.Cell{uncertain.Certain(value.NewInt(1)), uncertain.Certain(value.NewString("x"))}})
}

func TestAppendOnCOWReceiverPanics(t *testing.T) {
	// The receiver of an ApplyCOW shares segment structs with the result, so
	// growing it in place would corrupt the published generation too.
	p := FromTable(citiesTable(t))
	d := NewDelta("cities")
	d.Set(1, p.Schema.MustIndex("city"), dirtyCell())
	if next, _ := p.ApplyCOW(d); next == nil {
		t.Fatal("ApplyCOW returned nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Append on an ApplyCOW receiver must panic: it shares segment structs with the new generation")
		}
	}()
	p.Append(&Tuple{ID: 99, Cells: []uncertain.Cell{uncertain.Certain(value.NewInt(1)), uncertain.Certain(value.NewString("x"))}})
}

func TestApplyOnCOWGenerationPanics(t *testing.T) {
	p := FromTable(citiesTable(t))
	d := NewDelta("cities")
	d.Set(1, p.Schema.MustIndex("city"), dirtyCell())
	next, _ := p.ApplyCOW(d)
	d2 := NewDelta("cities")
	d2.Set(0, p.Schema.MustIndex("city"), dirtyCell())
	defer func() {
		if recover() == nil {
			t.Fatal("in-place Apply on a COW generation must panic: its segments are shared across epochs")
		}
	}()
	next.Apply(d2)
}

func TestAppendOnCloneOfCOWGenerationAllowed(t *testing.T) {
	p := FromTable(citiesTable(t))
	d := NewDelta("cities")
	d.Set(1, p.Schema.MustIndex("city"), dirtyCell())
	next, _ := p.ApplyCOW(d)
	cp := next.Clone()
	cp.Append(&Tuple{ID: 3, Cells: []uncertain.Cell{uncertain.Certain(value.NewInt(1)), uncertain.Certain(value.NewString("x"))}})
	if cp.Len() != 4 || next.Len() != 3 {
		t.Errorf("len = %d/%d, want 4/3", cp.Len(), next.Len())
	}
	if cp.DirtyTuples() != 1 {
		t.Errorf("clone dirty = %d, want 1", cp.DirtyTuples())
	}
}

func TestDenseIDIndex(t *testing.T) {
	p := FromTable(bigTable(t, SegmentSize+10))
	if pos, ok := p.Pos(int64(SegmentSize + 3)); !ok || pos != SegmentSize+3 {
		t.Errorf("Pos = %d,%v", pos, ok)
	}
	if _, ok := p.Pos(int64(p.Len())); ok {
		t.Error("out-of-range id must miss")
	}
	if _, ok := p.Pos(-1); ok {
		t.Error("negative id must miss")
	}
	// A tuple's ID is its position: Append takes the next position and
	// panics on any other ID.
	cells := func() []uncertain.Cell {
		return []uncertain.Cell{uncertain.Certain(value.NewInt(1)), uncertain.Certain(value.NewString("x"))}
	}
	q := New("q", p.Schema)
	q.Append(&Tuple{ID: 0, Cells: cells()})
	for _, id := range []int64{42, 0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Append of ID %d at position 1 must panic", id)
				}
			}()
			q.Append(&Tuple{ID: id, Cells: cells()})
		}()
	}
	if q.Len() != 1 {
		t.Errorf("Len after refused appends = %d, want 1", q.Len())
	}
	q.Append(&Tuple{ID: 1, Cells: cells()})
	if pos, ok := q.Pos(1); !ok || pos != 1 {
		t.Errorf("Pos(1) = %d,%v", pos, ok)
	}
}

func TestRowsIterator(t *testing.T) {
	n := SegmentSize + 7
	p := FromTable(bigTable(t, n))
	i := 0
	for pos, tup := range p.Rows() {
		if pos != i {
			t.Fatalf("position %d, want %d", pos, i)
		}
		if tup != p.At(pos) {
			t.Fatalf("Rows tuple %d differs from At", pos)
		}
		i++
	}
	if i != n {
		t.Fatalf("iterated %d rows, want %d", i, n)
	}
	// Early break must stop cleanly.
	count := 0
	for range p.Rows() {
		count++
		if count == 3 {
			break
		}
	}
	if count != 3 {
		t.Fatalf("break stopped at %d", count)
	}
}

func TestCursorMatchesAt(t *testing.T) {
	n := 3*SegmentSize + 41
	p := FromTable(bigTable(t, n))
	cur := p.Cursor()
	// Sequential scan, then a boundary-hopping access pattern: the cursor
	// must agree with At everywhere, including repeated segment reloads.
	for i := 0; i < n; i++ {
		if cur.At(i) != p.At(i) {
			t.Fatalf("sequential Cursor.At(%d) != At(%d)", i, i)
		}
	}
	for _, i := range []int{n - 1, 0, SegmentSize, SegmentSize - 1, 2 * SegmentSize, 5, n - 1, 5} {
		if cur.At(i) != p.At(i) {
			t.Fatalf("random Cursor.At(%d) != At(%d)", i, i)
		}
	}
	// A cursor created before an ApplyCOW keeps reading the old generation:
	// segment directories are immutable once shared.
	d := NewDelta("big")
	d.Set(7, 1, dirtyCell())
	next, _ := p.ApplyCOW(d)
	if cur.At(7) != p.At(7) {
		t.Error("cursor must keep reading its creation-time generation")
	}
	ncur := next.Cursor()
	if ncur.At(7) != next.At(7) || ncur.At(7) == p.At(7) {
		t.Error("new generation's cursor must read the fresh tuple")
	}
}

func TestSegmentAccessors(t *testing.T) {
	n := 2*SegmentSize + 13
	p := FromTable(bigTable(t, n))
	if p.Segments() != 3 {
		t.Fatalf("Segments = %d, want 3", p.Segments())
	}
	rows := 0
	for k := 0; k < p.Segments(); k++ {
		lo, hi := p.SegSpan(k)
		if lo != k*SegmentSize {
			t.Fatalf("SegSpan(%d) lo = %d", k, lo)
		}
		seg := p.Seg(k)
		if hi-lo != len(seg) {
			t.Fatalf("SegSpan(%d) width %d != len(Seg) %d", k, hi-lo, len(seg))
		}
		for off, tup := range seg {
			if tup != p.At(lo+off) {
				t.Fatalf("Seg(%d)[%d] != At(%d)", k, off, lo+off)
			}
			if SegOf(lo+off) != k {
				t.Fatalf("SegOf(%d) = %d, want %d", lo+off, SegOf(lo+off), k)
			}
		}
		rows += len(seg)
	}
	if rows != n {
		t.Fatalf("segments cover %d rows, want %d", rows, n)
	}
	if _, hi := p.SegSpan(2); hi != n {
		t.Errorf("tail SegSpan hi = %d, want %d", hi, n)
	}
}

func TestSegDirtyAndCandCounters(t *testing.T) {
	n := 2*SegmentSize + 10
	p := FromTable(bigTable(t, n))
	d := NewDelta("big")
	d.Set(3, 1, dirtyCell())
	d.Set(int64(SegmentSize+8), 1, dirtyCell())
	d.Set(int64(SegmentSize+9), 1, dirtyCell())
	p.Apply(d)
	wantDirty := []int{1, 2, 0}
	wantCand := []int{2, 4, 0}
	for k := 0; k < p.Segments(); k++ {
		if p.SegDirty(k) != wantDirty[k] || p.SegCand(k) != wantCand[k] {
			t.Errorf("segment %d counters = dirty %d cand %d, want %d/%d",
				k, p.SegDirty(k), p.SegCand(k), wantDirty[k], wantCand[k])
		}
	}
	// The per-segment reads must sum to the whole-relation counters.
	sumD, sumC := 0, 0
	for k := 0; k < p.Segments(); k++ {
		sumD += p.SegDirty(k)
		sumC += p.SegCand(k)
	}
	if sumD != p.DirtyTuples() || sumC != p.CandidateFootprint() {
		t.Errorf("segment sums %d/%d != totals %d/%d", sumD, sumC, p.DirtyTuples(), p.CandidateFootprint())
	}
}

func TestScanColOrig(t *testing.T) {
	n := 2*SegmentSize + 29
	p := FromTable(bigTable(t, n))
	// A cleaning delta must not leak into the provenance scan: ScanColOrig
	// reads Orig, which fixes never rewrite.
	d := NewDelta("big")
	d.Set(int64(SegmentSize+2), 1, dirtyCell())
	p.Apply(d)
	col := p.Schema.MustIndex("city")
	for _, span := range [][2]int{{0, n}, {0, 0}, {5, 5}, {3, SegmentSize + 7}, {SegmentSize, 2 * SegmentSize}, {n - 3, n}, {n - 3, n + 99}} {
		lo, hi := span[0], span[1]
		got := p.ScanColOrig(nil, col, lo, hi)
		end := hi
		if end > n {
			end = n
		}
		want := make([]value.Value, 0, end-lo)
		for i := lo; i < end; i++ {
			want = append(want, p.At(i).Cells[col].Orig)
		}
		if len(got) != len(want) {
			t.Fatalf("ScanColOrig[%d,%d) len = %d, want %d", lo, hi, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("ScanColOrig[%d,%d)[%d] = %v, want %v", lo, hi, i, got[i], want[i])
			}
		}
	}
	// Append semantics: dst is extended, not replaced.
	pre := []value.Value{value.NewInt(-1)}
	out := p.ScanColOrig(pre, col, 0, 3)
	if len(out) != 4 || out[0].Int() != -1 {
		t.Errorf("ScanColOrig must append to dst, got %v", out)
	}
}

func TestMultiSegmentFingerprintStable(t *testing.T) {
	// The fingerprint of a segmented table equals the one produced by
	// iterating positions via At — i.e. segmentation never reorders rows.
	p := FromTable(bigTable(t, 2*SegmentSize+31))
	d := NewDelta("big")
	d.Set(5, 1, dirtyCell())
	d.Set(int64(SegmentSize+1), 1, dirtyCell())
	p.Apply(d)
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%d\n", p.Name, p.Schema, p.Len())
	for i := 0; i < p.Len(); i++ {
		tup := p.At(i)
		fmt.Fprintf(&b, "#%d", tup.ID)
		for c := range tup.Cells {
			b.WriteByte('|')
			b.WriteString(CellFingerprint(&tup.Cells[c]))
		}
		b.WriteByte('\n')
	}
	if p.Fingerprint() != b.String() {
		t.Error("segment iteration order diverged from positional order")
	}
}
