package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/ptable"
	"daisy/internal/repair"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

func zipCity() dc.FDSpec {
	spec, _ := dc.FD("phi", "cities", "city", "zip").AsFD()
	return spec
}

// repairCities indexes Table 2a under zip → city and repairs the fix rows.
func repairCities(fix []int) (*ptable.PTable, *ptable.Delta) {
	pt := ptable.FromTable(citiesTable())
	return pt, newFDIndex(pt, zipCity()).repair(detect.NewPTableView(pt), fix, zipCity(), nil)
}

func findCand(c uncertain.Cell, v string) (uncertain.Candidate, bool) {
	for _, cand := range c.Candidates {
		if cand.Val.String() == v {
			return cand, true
		}
	}
	return uncertain.Candidate{}, false
}

func TestExample2Table2b(t *testing.T) {
	// Query City='Los Angeles' → scope {0,2} plus the one-pass extra {1}.
	// The same-rhs partner row 3 (10001, SF) informs P(zip|SF) through the
	// index without joining the fix rows.
	pt := ptable.FromTable(citiesTable())
	ix := newFDIndex(pt, zipCity())
	fix := append([]int{0, 2}, ix.relax([]int{0, 2}, false, nil)...)
	if !reflect.DeepEqual(fix, []int{0, 2, 1}) {
		t.Fatalf("fix rows = %v, want [0 2 1]", fix)
	}
	delta := ix.repair(detect.NewPTableView(pt), fix, zipCity(), nil)
	zipIdx, cityIdx := pt.Schema.MustIndex("zip"), pt.Schema.MustIndex("city")

	// Tuple 1 (9001, SF): City candidates {LA 67%, SF 33%},
	// Zip candidates {9001 50%, 10001 50%} — the paper's Table 2b.
	cityCell, _ := delta.Get(1, cityIdx)
	la, ok := findCand(cityCell, "Los Angeles")
	if !ok || math.Abs(la.Prob-2.0/3) > 1e-9 {
		t.Errorf("P(LA|9001) = %v, want 0.667", la.Prob)
	}
	sf, ok := findCand(cityCell, "San Francisco")
	if !ok || math.Abs(sf.Prob-1.0/3) > 1e-9 {
		t.Errorf("P(SF|9001) = %v, want 0.333", sf.Prob)
	}
	if la.World != repair.WorldFixRHS || sf.World != repair.WorldFixRHS {
		t.Error("city candidates must carry the fix-rhs world id")
	}
	zipCell, _ := delta.Get(1, zipIdx)
	z1, ok1 := findCand(zipCell, "9001")
	z2, ok2 := findCand(zipCell, "10001")
	if !ok1 || !ok2 || math.Abs(z1.Prob-0.5) > 1e-9 || math.Abs(z2.Prob-0.5) > 1e-9 {
		t.Errorf("P(Zip|SF) = %v/%v, want 50/50", z1.Prob, z2.Prob)
	}
	if z1.World != repair.WorldFixLHS {
		t.Error("zip candidates must carry the fix-lhs world id")
	}

	// Tuples 0 and 2 (9001, LA): city candidates 67/33, zip stays certain
	// (every LA row has zip 9001).
	for _, id := range []int64{0, 2} {
		if _, ok := delta.Get(id, zipIdx); ok {
			t.Errorf("tuple %d zip must stay certain", id)
		}
		if cc, _ := delta.Get(id, cityIdx); len(cc.Candidates) != 2 {
			t.Errorf("tuple %d city candidates = %v", id, cc)
		}
	}

	// Rows outside the fix set are consulted, never repaired.
	for _, id := range []int64{3, 4} {
		if _, ok := delta.Cells[id]; ok {
			t.Errorf("row %d is not a fix row and must not be repaired", id)
		}
	}
}

func TestExample3Table3FullCluster(t *testing.T) {
	// Query zip=9001 → closure pulls the whole dataset cluster; everything
	// violating is repaired, matching Table 3.
	pt := ptable.FromTable(citiesTable())
	ix := newFDIndex(pt, zipCity())
	result := []int{0, 1, 2}
	fix := append(result, ix.relax(result, true, nil)...)
	delta := ix.repair(detect.NewPTableView(pt), fix, zipCity(), nil)
	zipIdx, cityIdx := pt.Schema.MustIndex("zip"), pt.Schema.MustIndex("city")

	// Row 3 (10001, SF): city {SF 50, NY 50}, zip {9001 50, 10001 50}.
	if cc, _ := delta.Get(3, cityIdx); len(cc.Candidates) != 2 {
		t.Fatalf("row 3 city = %v", cc)
	}
	if zc, _ := delta.Get(3, zipIdx); len(zc.Candidates) != 2 {
		t.Fatalf("row 3 zip = %v", zc)
	}
	// Row 4 (10001, NY): city candidates 50/50; zip certain (only 10001 has NY).
	if _, ok := delta.Get(4, zipIdx); ok {
		t.Error("row 4 zip must stay certain")
	}
	if cc4, _ := delta.Get(4, cityIdx); len(cc4.Candidates) != 2 {
		t.Errorf("row 4 city = %v", cc4)
	}
}

func TestFDProbabilitiesSumToOne(t *testing.T) {
	_, delta := repairCities([]int{0, 1, 2, 3, 4})
	for id, cols := range delta.Cells {
		for _, cc := range cols {
			if s := cc.Cell.ProbSum(); math.Abs(s-1) > 1e-9 {
				t.Errorf("tuple %d col %d ProbSum = %v", id, cc.Col, s)
			}
			if cc.Cell.Orig.IsNull() {
				t.Errorf("tuple %d col %d lost provenance", id, cc.Col)
			}
		}
	}
}

func TestFDAppliedDeltaSatisfiesFixRHSWorld(t *testing.T) {
	// Within the fix-rhs world (lhs kept at its original value, rhs replaced
	// by its most probable candidate), every group satisfies the FD — all
	// members of a group share the same rhs distribution, hence the same
	// argmax. (Projecting both cells independently is the paper's DaisyP
	// policy and may break ties inconsistently; that is exactly its reported
	// weakness in Table 5.)
	p, delta := repairCities([]int{0, 1, 2, 3, 4})
	p.Apply(delta)

	// Strict argmax (ties to the smaller value, not the original): all group
	// members share the same rhs distribution, so the projection is
	// group-consistent by construction.
	argmax := func(c uncertain.Cell) value.Value {
		if c.IsCertain() {
			return c.Orig
		}
		best := c.Candidates[0]
		for _, cand := range c.Candidates[1:] {
			if cand.Prob > best.Prob || (cand.Prob == best.Prob && cand.Val.Less(best.Val)) {
				best = cand
			}
		}
		return best.Val
	}
	proj := table.New("proj", p.Schema)
	zipIdx, cityIdx := p.Schema.MustIndex("zip"), p.Schema.MustIndex("city")
	for _, tup := range p.Rows() {
		proj.MustAppend(table.Row{tup.Cells[zipIdx].Orig, argmax(tup.Cells[cityIdx])})
	}
	if groups := detect.FDViolations(detect.TableView{T: proj}, zipCity(), nil); len(groups) != 0 {
		t.Errorf("fix-rhs world still violates: %d groups", len(groups))
	}
}

func TestMergeAcrossRulesCommutes(t *testing.T) {
	// Lemma 4 at delta level: applying rule deltas in either order yields
	// the same distributions.
	sch := schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "city", Kind: value.String},
		schema.Column{Name: "state", Kind: value.String},
	)
	tb := table.New("t", sch)
	add := func(z int64, c, s string) {
		tb.MustAppend(table.Row{value.NewInt(z), value.NewString(c), value.NewString(s)})
	}
	add(9001, "LA", "CA")
	add(9001, "LA", "WA") // violates zip→state and city→state
	add(9001, "LA", "CA")
	fd1, _ := dc.FD("phi1", "t", "state", "zip").AsFD()
	fd2, _ := dc.FD("phi2", "t", "state", "city").AsFD()
	scope := []int{0, 1, 2}

	apply := func(first, second dc.FDSpec) *ptable.PTable {
		p := ptable.FromTable(tb)
		for _, fd := range []dc.FDSpec{first, second} {
			p.Apply(newFDIndex(p, fd).repair(detect.NewPTableView(p), scope, fd, nil))
		}
		return p
	}
	p12 := apply(fd1, fd2)
	p21 := apply(fd2, fd1)
	for row := 0; row < 3; row++ {
		c12 := p12.Cell(row, "state")
		c21 := p21.Cell(row, "state")
		if !c12.EqualDistribution(c21, 1e-9) {
			t.Errorf("row %d: order-dependent distributions %v vs %v", row, c12, c21)
		}
	}
}

// TestRelaxedCountsResultGain: Metrics.Relaxed counts the rows relaxation
// adds to the result, nothing the repair merely reads. In Example 2 the two
// Los Angeles rows gain their dirty group partner (row 1); the same-rhs
// partner row 3 informs P(zip|SF) but never joins the result.
func TestRelaxedCountsResultGain(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyIncremental})
	defer s.Close()
	res, err := s.Query("SELECT zip, city FROM cities WHERE city = 'Los Angeles'")
	if err != nil {
		t.Fatal(err)
	}
	const direct = 2 // rows 0 and 2 match without cleaning
	if gained := int64(res.Rows.Len() - direct); s.Metrics.Relaxed != gained || gained != 1 {
		t.Errorf("Metrics.Relaxed = %d, result gained %d rows, want both 1", s.Metrics.Relaxed, gained)
	}
}

// repairFixture is a relation with zip → city (one-attribute lhs) and
// (zip, state) → city (two-attribute lhs) violations in random groups, plus
// two degenerate shapes that exercise the tally's map spill: zip -1 holds
// more than tallySpill distinct cities, and city "Hub" is shared by more than
// tallySpill distinct zips (one of them in the violating zip -1 group, so
// P(zip|Hub) is emitted).
func repairFixture(rng *rand.Rand, rows, groups int) *ptable.PTable {
	sch := schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "state", Kind: value.Int},
		schema.Column{Name: "city", Kind: value.String},
	)
	tb := table.New("cities", sch)
	add := func(zip, state int64, city string) {
		tb.MustAppend(table.Row{value.NewInt(zip), value.NewInt(state), value.NewString(city)})
	}
	cities := []string{"LA", "SF", "NY", "CHI", "BOS"}
	for i := 0; i < rows; i++ {
		zip := int64(rng.Intn(groups))
		city := cities[zip%int64(len(cities))]
		if rng.Intn(5) == 0 {
			city = cities[rng.Intn(len(cities))]
		}
		add(zip, int64(rng.Intn(2)), city)
		switch i % 97 {
		case 11:
			add(-1, 0, fmt.Sprintf("C%d", i/97))
		case 53:
			add(int64(1000+i/97), 0, "Hub")
		}
	}
	for i := 0; i <= tallySpill; i++ {
		add(-1, 0, fmt.Sprintf("D%d", i))
		add(int64(2000+i), 1, "Hub")
	}
	add(-1, 1, "Hub")
	return ptable.FromTable(tb)
}

func zipStateCity() dc.FDSpec {
	spec, _ := dc.FD("phi2", "cities", "city", "zip", "state").AsFD()
	return spec
}

// repairCase is one differential input: query seed rows, rows whose lhs
// groups are already checked, the relaxation mode, and a sweep chunk.
type repairCase struct {
	seeds, checkedRows []int
	transitive         bool
	lo, hi             int
}

// assertIndexRepairShapes runs the index repair and the reference side by
// side on the fix rows of all three FD cleaning paths and requires identical
// delta cells. The reference regroups the fix rows plus a one-pass support
// relaxation of them (and, on the incremental path, the checked rows
// relaxation pulled back in), which together hold every fix row's whole lhs
// group and rhs partners. It returns the number of repaired cells compared.
func assertIndexRepairShapes(t testing.TB, pt *ptable.PTable, fd dc.FDSpec, c repairCase) int {
	t.Helper()
	ix := newFDIndex(pt, fd)
	view := detect.NewPTableView(pt)
	checked := new(posSet)
	for _, r := range c.checkedRows {
		checked.add(ix.anchorOf(r))
	}
	cells := 0
	compare := func(shape string, fix, consult []int) {
		t.Helper()
		got := ix.repair(view, fix, fd, nil)
		want := refRepairFD(view, fix, consult, fd)
		if !reflect.DeepEqual(got.Cells, want.Cells) {
			t.Fatalf("%s: index repair differs from the reference\nfix=%v\nconsult=%v\ngot  %v\nwant %v",
				shape, fix, consult, got.Cells, want.Cells)
		}
		for _, cc := range got.Cells {
			cells += len(cc)
		}
	}

	// Incremental: cleanFD's scope (violating, unchecked seed rows), its
	// relaxation, and the extras whose groups are not yet checked.
	var scope []int
	for _, r := range c.seeds {
		if ix.violating(r) && !checked.has(ix.anchorOf(r)) {
			scope = append(scope, r)
		}
	}
	extra := ix.relax(scope, c.transitive, nil)
	fix := append([]int(nil), scope...)
	var consult []int
	for _, r := range extra {
		if checked.has(ix.anchorOf(r)) {
			consult = append(consult, r)
		} else {
			fix = append(fix, r)
		}
	}
	consult = append(consult, ix.relax(append(append([]int(nil), scope...), extra...), false, nil)...)
	compare("incremental", fix, consult)

	// Inline full clean: every violating, unchecked group.
	full, _ := ix.violatingScopeIn(0, len(ix.anchor), checked)
	compare("violatingScopeIn(0, n)", full, ix.relax(full, false, nil))

	// One background sweep chunk.
	chunk, _ := ix.violatingScopeIn(c.lo, c.hi, checked)
	compare("violatingScopeIn", chunk, ix.relax(chunk, false, nil))
	return cells
}

// TestIndexRepairMatchesReference: the index repair is cell-for-cell the
// scan-and-hash reference over the fix rows plus their support relaxation,
// for one- and two-attribute lhs, on all three cleaning paths' fix sets.
func TestIndexRepairMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2*ptable.SegmentSize + rng.Intn(ptable.SegmentSize)
		pt := repairFixture(rng, n, 40+rng.Intn(200))
		total := pt.Len()
		pick := func(k int) []int {
			out := make([]int, k)
			for i := range out {
				out[i] = rng.Intn(total)
			}
			return uniqueRows(out)
		}
		for _, fd := range []dc.FDSpec{zipCity(), zipStateCity()} {
			for trial := 0; trial < 4; trial++ {
				lo := rng.Intn(total)
				c := repairCase{
					seeds:       pick(1 + rng.Intn(60)),
					checkedRows: pick(rng.Intn(40)),
					transitive:  trial%2 == 1,
					lo:          lo, hi: lo + 1 + rng.Intn(2*ptable.SegmentSize),
				}
				if cells := assertIndexRepairShapes(t, pt, fd, c); cells == 0 {
					t.Fatalf("seed %d lhs %v trial %d: no cells repaired — the case is vacuous", seed, fd.LHS, trial)
				}
			}
		}
	}
}

// TestIndexRepairSpillGroup: a group with more than tallySpill distinct rhs
// values and an rhs value with more than tallySpill distinct lhs values get
// their full distributions.
func TestIndexRepairSpillGroup(t *testing.T) {
	pt := repairFixture(rand.New(rand.NewSource(3)), 200, 20)
	ix := newFDIndex(pt, zipCity())
	var hub int
	for r := 0; r < pt.Len(); r++ {
		if pt.Cell(r, "zip").Orig.Int() == -1 && pt.Cell(r, "city").Orig.Str() == "Hub" {
			hub = r // a member of the spill group, zip -1
		}
	}
	d := ix.repair(detect.NewPTableView(pt), []int{hub}, zipCity(), nil)
	city, _ := d.Get(pt.At(hub).ID, pt.Schema.MustIndex("city"))
	zip, _ := d.Get(pt.At(hub).ID, pt.Schema.MustIndex("zip"))
	if len(city.Candidates) <= tallySpill || len(zip.Candidates) <= tallySpill {
		t.Fatalf("spill distributions: %d city, %d zip candidates, want > %d each",
			len(city.Candidates), len(zip.Candidates), tallySpill)
	}
	assertIndexRepairShapes(t, pt, zipCity(), repairCase{seeds: []int{hub}, lo: 0, hi: pt.Len()})
}

func uniqueRows(rows []int) []int {
	seen := make(map[int]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// fuzzZips and fuzzCities are the value domains fuzz rows index into; the
// first entries spell Table 2a.
var (
	fuzzZips   = []int64{9001, 10001, 20000, 30000, 40000}
	fuzzCities = []string{"Los Angeles", "San Francisco", "New York", "Boston", "Chicago", "Denver"}
)

// fuzzRelation decodes three bytes per row — zip, state and city indexes —
// into a relation of at most 64 rows.
func fuzzRelation(data []byte) *ptable.PTable {
	sch := schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "state", Kind: value.Int},
		schema.Column{Name: "city", Kind: value.String},
	)
	tb := table.New("cities", sch)
	for i := 0; i+2 < len(data) && tb.Len() < 64; i += 3 {
		tb.MustAppend(table.Row{
			value.NewInt(fuzzZips[int(data[i])%len(fuzzZips)]),
			value.NewInt(int64(data[i+1] % 3)),
			value.NewString(fuzzCities[int(data[i+2])%len(fuzzCities)]),
		})
	}
	return ptable.FromTable(tb)
}

// FuzzIndexRepairMatchesReference: on a random small relation, FD, fix set
// and checked set, the index repair matches the reference on every cleaning
// path's fix rows. mode bit 0 picks the two-attribute lhs, bit 1 transitive
// relaxation; the high bits place the sweep chunk. Row r is a query seed
// when bit 2r of mask is set and its group is checked when bit 2r+1 is.
func FuzzIndexRepairMatchesReference(f *testing.F) {
	// Table 2a: (9001, LA), (9001, SF), (9001, LA), (10001, SF), (10001, NY).
	cities := []byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0, 2}
	f.Add(cities, byte(0), []byte{0x11})       // Example 2: seeds {0, 2}
	f.Add(cities, byte(2), []byte{0x15})       // Example 3: seeds {0, 1, 2}, transitive
	f.Add(cities, byte(1), []byte{0x11, 0x02}) // two-attribute lhs, row 4's group checked
	f.Add(cities, byte(0x40), []byte{0x80})    // row 3's group checked, chunk from row 1
	f.Fuzz(func(t *testing.T, rows []byte, mode byte, mask []byte) {
		pt := fuzzRelation(rows)
		n := pt.Len()
		if n == 0 {
			return
		}
		bit := func(i int) bool { return i/8 < len(mask) && mask[i/8]&(1<<(i%8)) != 0 }
		var c repairCase
		for r := 0; r < n; r++ {
			if bit(2 * r) {
				c.seeds = append(c.seeds, r)
			}
			if bit(2*r + 1) {
				c.checkedRows = append(c.checkedRows, r)
			}
		}
		c.transitive = mode&2 != 0
		c.lo = int(mode>>2) % n
		c.hi = c.lo + 1 + n/2
		fd := zipCity()
		if mode&1 != 0 {
			fd = zipStateCity()
		}
		assertIndexRepairShapes(t, pt, fd, c)
	})
}

// TestIncrementalFDRepairsWholeRelaxedGroup: the query's seeds are zip 1's
// rows; relaxation pulls in row 2 of zip 2 because it shares the seed value
// A. Marking zip 2 checked after fixing row 2 alone would leave rows 3 and 4
// of that dirty group unrepaired for good, so the query repairs the whole
// group.
func TestIncrementalFDRepairsWholeRelaxedGroup(t *testing.T) {
	tb := table.New("cities", schema.MustNew(
		schema.Column{Name: "id", Kind: value.Int},
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "city", Kind: value.String},
	))
	for i, r := range []struct {
		zip  int64
		city string
	}{{1, "A"}, {1, "B"}, {2, "A"}, {2, "C"}, {2, "C"}} {
		tb.MustAppend(table.Row{value.NewInt(int64(i)), value.NewInt(r.zip), value.NewString(r.city)})
	}
	s := NewSession(Options{Strategy: StrategyIncremental})
	defer s.Close()
	setupSession(t, s, tb, dc.FD("phi", "cities", "city", "zip"))
	runQueries(t, s, []string{"SELECT id, city FROM cities WHERE id < 2"})

	pt := s.Table("cities")
	zipIdx, cityIdx := pt.Schema.MustIndex("zip"), pt.Schema.MustIndex("city")
	want := []struct{ zip, city string }{
		{"{1 50%, 2 50%}", "{A 50%, B 50%}"},
		{"1", "{A 50%, B 50%}"},
		{"{1 50%, 2 50%}", "{A 33%, C 67%}"},
		{"2", "{A 33%, C 67%}"},
		{"2", "{A 33%, C 67%}"},
	}
	for row, w := range want {
		tup := pt.At(row)
		if zip := tup.Cells[zipIdx].String(); zip != w.zip {
			t.Errorf("row %d zip = %s, want %s", row, zip, w.zip)
		}
		if city := tup.Cells[cityIdx].String(); city != w.city {
			t.Errorf("row %d city = %s, want %s", row, city, w.city)
		}
	}
}
