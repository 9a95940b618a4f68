package thetajoin

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/trace"
	"daisy/internal/value"
)

func salarySchema() *schema.Schema {
	return schema.MustNew(
		schema.Column{Name: "salary", Kind: value.Float},
		schema.Column{Name: "tax", Kind: value.Float},
	)
}

func salaryTable(rows [][2]float64) *table.Table {
	t := table.New("emp", salarySchema())
	for _, r := range rows {
		t.MustAppend(table.Row{value.NewFloat(r[0]), value.NewFloat(r[1])})
	}
	return t
}

var salaryDC = dc.MustParse("phi: !(t1.salary<t2.salary & t1.tax>t2.tax)")

// naive checks all ordered pairs with brute force.
func naive(v detect.RowView, c *dc.Constraint) []Pair {
	var out []Pair
	for i := 0; i < v.Len(); i++ {
		for j := 0; j < v.Len(); j++ {
			if i == j {
				continue
			}
			get := func(tuple int, col string) value.Value {
				if tuple == 1 {
					return v.Value(i, col)
				}
				return v.Value(j, col)
			}
			if c.Violates(get) {
				out = append(out, Pair{T1: i, T2: j})
			}
		}
	}
	return out
}

// asSet normalizes pairs to an unordered violation set: detection examines
// each unordered pair once, so compare on unordered identity.
func asSet(ps []Pair) map[[2]int]bool {
	out := make(map[[2]int]bool)
	for _, p := range ps {
		a, b := p.T1, p.T2
		if a > b {
			a, b = b, a
		}
		out[[2]int{a, b}] = true
	}
	return out
}

func TestDetectMatchesNaive(t *testing.T) {
	tb := salaryTable([][2]float64{
		{1000, 0.1}, {3000, 0.2}, {2000, 0.3}, {4000, 0.4}, {1500, 0.35},
	})
	v := detect.TableView{T: tb}
	got := asSet(Detect(v, salaryDC, 4, nil))
	want := asSet(naive(v, salaryDC))
	if len(got) != len(want) {
		t.Fatalf("got %d violations, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing violation %v", k)
		}
	}
}

func TestDetectExampleFromPaper(t *testing.T) {
	// Example 5: t2 (3000, 0.2) and t3 (2000, 0.3) violate:
	// t3.salary < t2.salary but t3.tax > t2.tax.
	tb := salaryTable([][2]float64{{1000, 0.1}, {3000, 0.2}, {2000, 0.3}})
	got := Detect(detect.TableView{T: tb}, salaryDC, 4, nil)
	if len(got) != 1 {
		t.Fatalf("violations = %v, want exactly one", got)
	}
	p := got[0]
	if !(p.T1 == 2 && p.T2 == 1) {
		t.Errorf("violating orientation = %v, want t1=row2, t2=row1", p)
	}
}

func TestDetectCleanData(t *testing.T) {
	// Monotone tax: no violations.
	tb := salaryTable([][2]float64{{1000, 0.1}, {2000, 0.2}, {3000, 0.3}})
	if got := Detect(detect.TableView{T: tb}, salaryDC, 4, nil); len(got) != 0 {
		t.Errorf("clean data produced %v", got)
	}
}

// TestDetectionIsOutputSensitive: on 20k rows whose discount rises with
// extended_price except at k adjacent swaps, detection returns exactly the k
// swapped pairs and compares fewer than 1 % of the candidate pairs — the
// rank tree leads each row to the leaves holding its partners.
func TestDetectionIsOutputSensitive(t *testing.T) {
	const n, k = 20000, 25
	sch := schema.MustNew(
		schema.Column{Name: "extended_price", Kind: value.Int},
		schema.Column{Name: "discount", Kind: value.Float},
	)
	discount := make([]float64, n) // by price rank
	for i := range discount {
		discount[i] = float64(i) / n
	}
	var swaps []int // price rank i swapped with i+1
	for s := 0; s < k; s++ {
		i := s*(n/k) + 31*s%leafRows // some swaps straddle two leaves
		discount[i], discount[i+1] = discount[i+1], discount[i]
		swaps = append(swaps, i)
	}
	tb := table.New("lineorder", sch)
	rankAt := rand.New(rand.NewSource(1)).Perm(n) // row position → price rank
	for _, r := range rankAt {
		tb.MustAppend(table.Row{value.NewInt(int64(1000 + 3*r)), value.NewFloat(discount[r])})
	}
	posOf := make([]int, n) // price rank → row position
	for pos, r := range rankAt {
		posOf[r] = pos
	}
	var want []Pair
	for _, i := range swaps {
		want = append(want, Pair{T1: posOf[i], T2: posOf[i+1]})
	}
	c := dc.MustParse("psi: !(t1.extended_price<t2.extended_price & t1.discount>t2.discount)")
	var m detect.Metrics
	got, err := DetectCtx(context.Background(), trace.Span{}, detect.TableView{T: tb}, c, 0, &m)
	if err != nil {
		t.Fatal(err)
	}
	if !samePairSet(got, want) {
		t.Fatalf("detected %v, want the %d swapped pairs %v", got, k, want)
	}
	candidates := int64(n) * (n - 1) / 2
	t.Logf("compared %d of %d candidate pairs", m.Comparisons, candidates)
	if m.Comparisons*100 >= candidates {
		t.Errorf("compared %d of %d candidate pairs (%.2f %%), want under 1 %%",
			m.Comparisons, candidates, 100*float64(m.Comparisons)/float64(candidates))
	}
}

// inBase maps pairs detected on a subset view to positions of its base.
func inBase(v detect.SubsetView, ps []Pair) []Pair {
	out := make([]Pair, len(ps))
	for i, p := range ps {
		out[i] = Pair{T1: v.Idx[p.T1], T2: v.Idx[p.T2]}
	}
	return out
}

// detectPartial runs the incremental theta-join of delta against rest (row
// positions of tb) untraced on all CPUs.
func detectPartial(t *testing.T, tb *table.Table, delta, rest []int) []Pair {
	t.Helper()
	ix := NewIndex(detect.TableView{T: tb}, salaryDC)
	pairs, err := ix.Detect(context.Background(), trace.Span{}, delta, rest, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

func TestDetectPartialCoversDeltaOnly(t *testing.T) {
	tb := salaryTable([][2]float64{
		{1000, 0.1}, {3000, 0.2}, {2000, 0.3}, {4000, 0.25}, {5000, 0.5},
	})
	full := asSet(Detect(detect.TableView{T: tb}, salaryDC, 4, nil))

	// Split: delta = rows {1,2}, rest = rows {0,3,4}.
	partial := asSet(detectPartial(t, tb, []int{1, 2}, []int{0, 3, 4}))
	rest := detect.SubsetView{Base: detect.TableView{T: tb}, Idx: []int{0, 3, 4}}
	// rest × rest violations must be checked separately.
	restOnly := asSet(inBase(rest, Detect(rest, salaryDC, 4, nil)))

	// partial ∪ restOnly must equal full.
	union := make(map[[2]int]bool)
	for k := range partial {
		union[k] = true
	}
	for k := range restOnly {
		union[k] = true
	}
	if len(union) != len(full) {
		t.Fatalf("partial∪rest = %d pairs, full = %d", len(union), len(full))
	}
	for k := range full {
		if !union[k] {
			t.Errorf("missing pair %v", k)
		}
	}
	// Partial must never report a rest×rest-only pair.
	for k := range partial {
		if !(k[0] == 1 || k[0] == 2 || k[1] == 1 || k[1] == 2) {
			t.Errorf("partial reported pair %v outside its slice", k)
		}
	}
}

func TestIncrementalCoverageProperty(t *testing.T) {
	// For random data and random splits: Index.Detect(delta, rest) ∪
	// Detect(rest) == Detect(all). This is the DESIGN.md invariant.
	prop := func(seed uint32, cut uint8) bool {
		s := seed
		next := func() uint32 { s = s*1664525 + 1013904223; return s }
		n := 12
		rows := make([][2]float64, n)
		for i := range rows {
			rows[i] = [2]float64{float64(next() % 1000), float64(next()%100) / 100}
		}
		tb := salaryTable(rows)
		k := int(cut)%n + 1
		var deltaIdx, restIdx []int
		for i := 0; i < n; i++ {
			if i < k {
				deltaIdx = append(deltaIdx, i)
			} else {
				restIdx = append(restIdx, i)
			}
		}
		base := detect.TableView{T: tb}
		full := asSet(Detect(base, salaryDC, 4, nil))
		partial := asSet(detectPartial(t, tb, deltaIdx, restIdx))
		rest := detect.SubsetView{Base: base, Idx: restIdx}
		restOnly := asSet(inBase(rest, Detect(rest, salaryDC, 4, nil)))
		union := make(map[[2]int]bool)
		for k2 := range partial {
			union[k2] = true
		}
		for k2 := range restOnly {
			union[k2] = true
		}
		if len(union) != len(full) {
			return false
		}
		for k2 := range full {
			if !union[k2] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEstimateErrorsFlagsDirtyRanges(t *testing.T) {
	// Monotone data with one inversion cluster near salary 2000.
	var rows [][2]float64
	for i := 0; i < 100; i++ {
		rows = append(rows, [2]float64{float64(1000 + i*40), 0.1 + float64(i)*0.002})
	}
	// Inject inversions: low salaries with very high tax.
	rows = append(rows, [2]float64{1100, 0.9}, [2]float64{1200, 0.95})
	tb := salaryTable(rows)
	v := detect.TableView{T: tb}
	est := NewIndex(v, salaryDC).EstimateErrors(v, 16)
	if len(est) == 0 {
		t.Fatal("no ranges")
	}
	total := 0.0
	for _, e := range est {
		total += e.Violations
	}
	if total <= 0 {
		t.Error("estimator must see the injected inversions")
	}
	// Ranges must be sorted by boundary.
	for i := 1; i < len(est); i++ {
		if est[i].Lo.Less(est[i-1].Lo) {
			t.Error("ranges out of order")
		}
	}
}

func TestEstimateErrorsCleanData(t *testing.T) {
	var rows [][2]float64
	for i := 0; i < 50; i++ {
		rows = append(rows, [2]float64{float64(i * 100), float64(i) * 0.01})
	}
	v := detect.TableView{T: salaryTable(rows)}
	est := NewIndex(v, salaryDC).EstimateErrors(v, 16)
	total := 0.0
	for _, e := range est {
		total += e.Violations
	}
	// Perfectly monotone data: off-diagonal estimates should be near zero.
	if total > 10 {
		t.Errorf("clean data estimated %v violations", total)
	}
}

func TestMultiAtomDCDetection(t *testing.T) {
	// phi2 from Example 5: ¬(t1.salary<t2.salary & t1.age<t2.age & t1.tax>t2.tax).
	sch := schema.MustNew(
		schema.Column{Name: "salary", Kind: value.Float},
		schema.Column{Name: "age", Kind: value.Int},
		schema.Column{Name: "tax", Kind: value.Float},
	)
	tb := table.New("emp", sch)
	add := func(s float64, a int64, x float64) {
		tb.MustAppend(table.Row{value.NewFloat(s), value.NewInt(a), value.NewFloat(x)})
	}
	add(1000, 31, 0.1)
	add(3000, 32, 0.2)
	add(2000, 43, 0.3)
	c := dc.MustParse("!(t1.salary<t2.salary & t1.age<t2.age & t1.tax>t2.tax)")
	got := Detect(detect.TableView{T: tb}, c, 4, nil)
	// Row2 (2000,43,0.3) vs row1 (3000,32,0.2): salary<, but age 43>32 — no.
	// Row0 vs row1: salary<, age<, tax 0.1<0.2 — no. Row0 vs row2: tax 0.1<0.3 — no.
	if len(got) != 0 {
		t.Errorf("unexpected violations %v", got)
	}
	add(5000, 50, 0.05) // row3: everyone below violates against it
	got = Detect(detect.TableView{T: tb}, c, 4, nil)
	ids := map[int]bool{}
	for _, p := range got {
		if p.T2 != 3 {
			t.Errorf("pair %v should have t2=3", p)
		}
		ids[p.T1] = true
	}
	if len(got) != 3 {
		t.Errorf("violations = %v, want 3 (rows 0,1,2 against row 3)", got)
	}
	sort.Slice(got, func(i, j int) bool { return got[i].T1 < got[j].T1 })
}
