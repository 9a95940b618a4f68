package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/ptable"
	"daisy/internal/relax"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

func indexFixture() (*ptable.PTable, dc.FDSpec) {
	sch := schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "city", Kind: value.String},
	)
	tb := table.New("cities", sch)
	rows := []struct {
		zip  int64
		city string
	}{
		{1, "LA"}, {1, "SF"}, {1, "LA"}, {2, "NY"}, {2, "NY"}, {3, "SF"},
	}
	for _, r := range rows {
		tb.MustAppend(table.Row{value.NewInt(r.zip), value.NewString(r.city)})
	}
	spec, _ := dc.FD("phi", "cities", "city", "zip").AsFD()
	return ptable.FromTable(tb), spec
}

// assertIndexMatchesGroupBy checks the index against a fresh GroupByFD of
// the same view: identical group membership and violation classification.
func assertIndexMatchesGroupBy(t *testing.T, ix *fdIndex, pt *ptable.PTable, fd dc.FDSpec) {
	t.Helper()
	view := detect.PTableView{P: pt}
	fresh := detect.GroupByFD(view, fd, nil)
	groups := 0
	for _, g := range ix.groups {
		if g != nil {
			groups++
		}
	}
	if groups != len(fresh) {
		t.Fatalf("index groups = %d, GroupByFD = %d", groups, len(fresh))
	}
	for key, g := range fresh {
		// A group's anchor is its first member's position, and every member
		// caches it.
		anchor := slices.Min(g.Members)
		got := append([]int(nil), ix.members(anchor)...)
		sort.Ints(got)
		want := append([]int(nil), g.Members...)
		sort.Ints(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("group %v members = %v, want %v", key, got, want)
		}
		for _, r := range g.Members {
			if ix.violating(r) != g.Violating() {
				t.Errorf("row %d of group %v violating = %v, want %v", r, key, ix.violating(r), g.Violating())
			}
			if ix.anchorOf(r) != anchor {
				t.Errorf("row %d of group %v anchor = %d, want %d", r, key, ix.anchorOf(r), anchor)
			}
		}
	}
	// The per-segment violating-anchor counts, recomputed from the groups.
	want := make([]int32, (len(ix.anchor)+ptable.SegmentSize-1)/ptable.SegmentSize)
	for _, g := range ix.groups {
		if g != nil && g.violating() {
			want[ptable.SegOf(g.members[0])]++
		}
	}
	if !reflect.DeepEqual(ix.vioSeg, want) {
		t.Errorf("vioSeg = %v, want recomputed %v", ix.vioSeg, want)
	}
}

func TestFDIndexMatchesGroupBy(t *testing.T) {
	pt, fd := indexFixture()
	ix := newFDIndex(pt, fd)
	assertIndexMatchesGroupBy(t, ix, pt, fd)
}

// TestFDIndexConsistentAfterApply: a cleaning delta preserves original
// values, so the index built before it is still exact for the cleaned
// relation — identical to a fresh build over it.
func TestFDIndexConsistentAfterApply(t *testing.T) {
	pt, fd := indexFixture()
	ix := newFDIndex(pt, fd)

	// A cleaning-style delta: candidates over the city cell, same Orig.
	d := ptable.NewDelta("cities")
	d.Set(1, 1, uncertain.Cell{
		Orig: value.NewString("SF"),
		Candidates: []uncertain.Candidate{
			{Val: value.NewString("LA"), Prob: 0.6, World: 1, Support: 2},
			{Val: value.NewString("SF"), Prob: 0.4, World: 0, Support: 1},
		},
	})
	cleaned, _ := pt.ApplyCOW(d)
	assertIndexMatchesGroupBy(t, ix, cleaned, fd)
	if fresh := newFDIndex(cleaned, fd); !reflect.DeepEqual(fresh, ix) {
		t.Error("index over the cleaned relation differs from the one built before cleaning")
	}
}

// TestIndexRelaxMatchesScanRelax: index-backed relaxation must produce the
// same row sets as the scan-based Algorithm 1 in package relax.
func TestIndexRelaxMatchesScanRelax(t *testing.T) {
	pt, fd := indexFixture()
	ix := newFDIndex(pt, fd)
	view := detect.PTableView{P: pt}
	for _, seed := range [][]int{{0}, {1}, {3}, {0, 5}, {2, 4}} {
		gotOne := ix.relax(seed, false, nil)
		wantOne := relax.FDOnePass(view, seed, fd, nil)
		sort.Ints(wantOne)
		if !reflect.DeepEqual(gotOne, wantOne) {
			t.Errorf("one-pass relax(%v) = %v, want %v", seed, gotOne, wantOne)
		}
		gotAll := ix.relax(seed, true, nil)
		wantAll := relax.FD(view, seed, fd, nil)
		sort.Ints(wantAll)
		if !reflect.DeepEqual(gotAll, wantAll) {
			t.Errorf("transitive relax(%v) = %v, want %v", seed, gotAll, wantAll)
		}
	}
}

// collectFDStats is the scan-based reference for the index statistics: two
// fresh groupings of the relation (by lhs, then by rhs), no index involved.
func collectFDStats(view detect.RowView, spec dc.FDSpec) fdStats {
	var st fdStats
	groups := detect.GroupByFD(view, spec, nil)
	st.Groups = len(groups)
	totalCandidates := 0
	for _, g := range groups {
		if !g.Violating() {
			continue
		}
		st.DirtyGroups++
		st.DirtyTuples += len(g.Members)
		totalCandidates += g.DistinctRHS()
	}
	if st.DirtyGroups > 0 {
		st.AvgCandidates = float64(totalCandidates) / float64(st.DirtyGroups)
	}
	byRHS := detect.GroupByRHS(view, spec, nil)
	if len(byRHS) > 0 {
		cols := detect.CompileFD(view, spec)
		distinctPairs := 0
		for _, members := range byRHS {
			lhsSeen := make(map[value.MapKey]bool)
			for _, i := range members {
				lhsSeen[cols.LHSKey(view, i)] = true
			}
			distinctPairs += len(lhsSeen)
		}
		st.AvgLHSPerRHS = float64(distinctPairs) / float64(len(byRHS))
	}
	return st
}

// TestIndexStatsMatchCollect: the statistics the index computes at build
// must equal the scan-based reference's numbers, bit for bit.
func TestIndexStatsMatchCollect(t *testing.T) {
	pt, fd := indexFixture()
	st := newFDIndex(pt, fd).stats
	if st.Groups != 3 || st.DirtyGroups != 1 || st.DirtyTuples != 3 {
		t.Errorf("index stats = %+v", st)
	}
	if st.AvgCandidates != 2 {
		t.Errorf("AvgCandidates = %v, want 2", st.AvgCandidates)
	}
	// Pairs: zip1×{LA,SF}, zip2×{NY}, zip3×{SF} = 4 pairs over 3 rhs values.
	if want := 4.0 / 3.0; st.AvgLHSPerRHS != want {
		t.Errorf("AvgLHSPerRHS = %v, want %v", st.AvgLHSPerRHS, want)
	}
	if sc := collectFDStats(detect.PTableView{P: pt}, fd); st != sc {
		t.Errorf("index stats %+v != scan stats %+v", st, sc)
	}
	// A wider relation with many groups and segments.
	wide, wfd := randSkipFixture(rand.New(rand.NewSource(7)), 3*ptable.SegmentSize, 200)
	if got, want := newFDIndex(wide, wfd).stats, collectFDStats(detect.PTableView{P: wide}, wfd); got != want {
		t.Errorf("wide: index stats %+v != scan stats %+v", got, want)
	}
}

// statsTable has one dirty group with two suppkeys, one clean group and one
// dirty group with three suppkeys.
func statsTable() *table.Table {
	sch := schema.MustNew(
		schema.Column{Name: "orderkey", Kind: value.Int},
		schema.Column{Name: "suppkey", Kind: value.Int},
	)
	t := table.New("lineorder", sch)
	add := func(o, s int64) { t.MustAppend(table.Row{value.NewInt(o), value.NewInt(s)}) }
	add(1, 10)
	add(1, 11)
	add(2, 20)
	add(2, 20)
	add(3, 30)
	add(3, 31)
	add(3, 32)
	return t
}

// statsState registers tb and binds rules, returning the bound table state.
func statsState(t *testing.T, tb *table.Table, rules ...*dc.Constraint) *tableState {
	t.Helper()
	s := NewSession(Options{})
	t.Cleanup(s.Close)
	setupSession(t, s, tb, rules...)
	return s.w.current().tables[tb.Name]
}

func statsRule() *dc.Constraint { return dc.FD("phi", "lineorder", "suppkey", "orderkey") }

func TestCollectFDStats(t *testing.T) {
	st := statsState(t, statsTable(), statsRule())
	ix := st.reg.builtFDIndex("phi")
	if ix == nil {
		t.Fatal("missing rule index")
	}
	if ix.stats.Groups != 3 || ix.stats.DirtyGroups != 2 {
		t.Errorf("groups = %d dirty = %d", ix.stats.Groups, ix.stats.DirtyGroups)
	}
	if ix.stats.DirtyTuples != 5 {
		t.Errorf("dirty tuples = %d, want 5 (2 + 3)", ix.stats.DirtyTuples)
	}
	// Avg candidates: (2 + 3)/2 = 2.5 distinct rhs per dirty group.
	if ix.stats.AvgCandidates != 2.5 {
		t.Errorf("avg candidates = %v", ix.stats.AvgCandidates)
	}
	if n := st.cost.State().N; n != 7 {
		t.Errorf("N = %d", n)
	}
}

func TestDirtyPruning(t *testing.T) {
	st := statsState(t, statsTable(), statsRule())
	ix := st.reg.builtFDIndex("phi")
	if !ix.violating(0) || !ix.violating(1) {
		t.Error("group 1 (rows 0, 1) is dirty")
	}
	if ix.violating(2) || ix.violating(3) {
		t.Error("group 2 (rows 2, 3) is clean — pruning must skip it")
	}
}

func TestEpsilonAndP(t *testing.T) {
	st := statsState(t, statsTable(), statsRule())
	if e := costEpsilon(st); e != 5 {
		t.Errorf("Epsilon = %d", e)
	}
	if p := costP(st); p != 2.5 {
		t.Errorf("P = %v", p)
	}
	empty := statsState(t, table.New("lineorder", statsTable().Schema), statsRule())
	if p := costP(empty); p != 1 {
		t.Errorf("empty table P = %v, want 1 floor", p)
	}
}

func TestNonFDRulesSkipped(t *testing.T) {
	ineq := dc.MustParse("psi: !(t1.orderkey<t2.orderkey & t1.suppkey>t2.suppkey)")
	st := statsState(t, statsTable(), ineq)
	if fds, _ := st.reg.built(); len(fds) != 0 {
		t.Error("inequality DC must not build an FD index")
	}
	if costEpsilon(st) != 0 || costP(st) != 1 {
		t.Errorf("DC-only stats: epsilon = %d, p = %v", costEpsilon(st), costP(st))
	}
}

func TestAvgLHSPerRHS(t *testing.T) {
	st := statsState(t, statsTable(), statsRule())
	// suppkeys {10,11,20,30,31,32} each map to one orderkey → 1.0.
	if got := st.reg.builtFDIndex("phi").stats.AvgLHSPerRHS; got != 1.0 {
		t.Errorf("AvgLHSPerRHS = %v", got)
	}
}
