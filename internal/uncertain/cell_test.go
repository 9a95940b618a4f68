package uncertain

import (
	"math"
	"testing"
	"testing/quick"

	"daisy/internal/dc"
	"daisy/internal/value"
)

func dirtyCity() Cell {
	return Cell{
		Orig: value.NewString("San Francisco"),
		Candidates: []Candidate{
			{Val: value.NewString("Los Angeles"), Prob: 2.0 / 3, World: 1, Support: 2},
			{Val: value.NewString("San Francisco"), Prob: 1.0 / 3, World: 1, Support: 1},
		},
	}
}

func TestCertainCell(t *testing.T) {
	c := Certain(value.NewInt(5))
	if !c.IsCertain() {
		t.Fatal("Certain cell must be certain")
	}
	if c.Value().Int() != 5 {
		t.Errorf("Value = %v", c.Value())
	}
	if c.ProbSum() != 1 {
		t.Errorf("ProbSum = %v", c.ProbSum())
	}
	if got := c.Values(); len(got) != 1 || got[0].Int() != 5 {
		t.Errorf("Values = %v", got)
	}
}

func TestValuePicksMostProbable(t *testing.T) {
	c := dirtyCity()
	if c.Value().Str() != "Los Angeles" {
		t.Errorf("most probable = %v, want Los Angeles", c.Value())
	}
}

func TestValueTieBreaksDeterministically(t *testing.T) {
	c := Cell{Candidates: []Candidate{
		{Val: value.NewString("b"), Prob: 0.5},
		{Val: value.NewString("a"), Prob: 0.5},
	}}
	if c.Value().Str() != "a" {
		t.Errorf("tie must break to smaller value, got %v", c.Value())
	}
}

func TestSatisfiesAnyWorld(t *testing.T) {
	c := dirtyCity()
	if !c.Satisfies(dc.Eq, value.NewString("Los Angeles")) {
		t.Error("dirty SF cell should qualify =LA (candidate world)")
	}
	if !c.Satisfies(dc.Eq, value.NewString("San Francisco")) {
		t.Error("original value world must still qualify")
	}
	if c.Satisfies(dc.Eq, value.NewString("New York")) {
		t.Error("no world holds New York")
	}
}

func TestSatisfiesRanges(t *testing.T) {
	// salary fix: {<2000 50%, 3000 50%}
	c := Cell{
		Orig:       value.NewFloat(3000),
		Candidates: []Candidate{{Val: value.NewFloat(3000), Prob: 0.5, World: 0}},
		Ranges:     []RangeCandidate{{RangeBound: RangeBound{Op: dc.Lt, Bound: value.NewFloat(2000)}, Prob: 0.5, World: 1}},
	}
	if !c.Satisfies(dc.Lt, value.NewFloat(1000)) {
		t.Error("range <2000 overlaps <1000")
	}
	if !c.Satisfies(dc.Eq, value.NewFloat(1500)) {
		t.Error("range <2000 can equal 1500")
	}
	if c.Satisfies(dc.Eq, value.NewFloat(2500)) {
		t.Error("neither 3000 nor <2000 can equal 2500")
	}
	if !c.Satisfies(dc.Gt, value.NewFloat(2500)) {
		t.Error("candidate 3000 > 2500")
	}
}

func TestRangeMayOverlapBounds(t *testing.T) {
	lt := RangeBound{Op: dc.Lt, Bound: value.NewFloat(10)}
	if rangeMayOverlap(lt, dc.Eq, value.NewFloat(10)) {
		t.Error("(-inf,10) cannot equal 10")
	}
	leq := RangeBound{Op: dc.Leq, Bound: value.NewFloat(10)}
	if !rangeMayOverlap(leq, dc.Eq, value.NewFloat(10)) {
		t.Error("(-inf,10] can equal 10")
	}
	gt := RangeBound{Op: dc.Gt, Bound: value.NewFloat(10)}
	if rangeMayOverlap(gt, dc.Lt, value.NewFloat(10)) {
		t.Error("(10,inf) has nothing < 10")
	}
	if !rangeMayOverlap(gt, dc.Lt, value.NewFloat(11)) {
		t.Error("(10,inf) has values < 11")
	}
}

func TestNormalize(t *testing.T) {
	c := Cell{Candidates: []Candidate{
		{Val: value.NewInt(1), Prob: 2},
		{Val: value.NewInt(2), Prob: 2},
	}}
	c.Normalize()
	if math.Abs(c.ProbSum()-1) > 1e-12 {
		t.Errorf("ProbSum after normalize = %v", c.ProbSum())
	}
	if math.Abs(c.Candidates[0].Prob-0.5) > 1e-12 {
		t.Errorf("prob = %v", c.Candidates[0].Prob)
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := dirtyCity()
	cp := c.Clone()
	cp.Candidates[0].Prob = 0.9
	if c.Candidates[0].Prob == 0.9 {
		t.Error("Clone must not share candidate storage")
	}
}

func TestMergeUnionsSupports(t *testing.T) {
	// Rule 1: P(CA|9001) with supports {CA:2, WA:1}; Rule 2: P(CA|LA) {CA:1, NV:1}.
	a := Cell{Orig: value.NewString("XX"), Candidates: []Candidate{
		{Val: value.NewString("CA"), Prob: 2.0 / 3, World: 1, Support: 2},
		{Val: value.NewString("WA"), Prob: 1.0 / 3, World: 1, Support: 1},
	}}
	b := Cell{Orig: value.NewString("XX"), Candidates: []Candidate{
		{Val: value.NewString("CA"), Prob: 0.5, World: 1, Support: 1},
		{Val: value.NewString("NV"), Prob: 0.5, World: 1, Support: 1},
	}}
	a.Merge(b)
	if len(a.Candidates) != 3 {
		t.Fatalf("merged candidates = %d, want 3", len(a.Candidates))
	}
	// P(CA | union) = 3/5.
	for _, cand := range a.Candidates {
		if cand.Val.Str() == "CA" && math.Abs(cand.Prob-0.6) > 1e-12 {
			t.Errorf("P(CA) = %v, want 0.6", cand.Prob)
		}
	}
	if math.Abs(a.ProbSum()-1) > 1e-12 {
		t.Errorf("merged ProbSum = %v", a.ProbSum())
	}
}

func TestMergeIntoCertainAdopts(t *testing.T) {
	a := Certain(value.NewString("LA"))
	a.Merge(dirtyCity())
	if a.IsCertain() {
		t.Error("merging a dirty cell into a certain one must adopt candidates")
	}
}

func TestMergeCommutativityLemma4(t *testing.T) {
	mk := func(vals []string, supports []int) Cell {
		c := Cell{Orig: value.NewString("orig")}
		for i, v := range vals {
			c.Candidates = append(c.Candidates, Candidate{
				Val: value.NewString(v), Prob: 1.0 / float64(len(vals)), World: 1, Support: supports[i],
			})
		}
		return c
	}
	f := func(s1, s2, s3 uint8) bool {
		a1 := mk([]string{"x", "y"}, []int{int(s1%7) + 1, int(s2%7) + 1})
		b1 := mk([]string{"y", "z"}, []int{int(s3%7) + 1, int(s1%5) + 1})
		a2 := a1.Clone()
		b2 := b1.Clone()
		m1 := a1.Clone()
		m1.Merge(b1)
		m2 := b2.Clone()
		m2.Merge(a2)
		return m1.EqualDistribution(&m2, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("Lemma 4 commutativity violated: %v", err)
	}
}

func TestEqualDistribution(t *testing.T) {
	a, b := dirtyCity(), dirtyCity()
	if !a.EqualDistribution(&b, 1e-9) {
		t.Error("identical distributions must be equal")
	}
	b.Candidates[0].Prob, b.Candidates[1].Prob = b.Candidates[1].Prob, b.Candidates[0].Prob
	if a.EqualDistribution(&b, 1e-9) {
		t.Error("different probabilities must differ")
	}
	c := Certain(value.NewString("LA"))
	if a.EqualDistribution(&c, 1e-9) {
		t.Error("dirty vs certain must differ")
	}
}

func TestStringRendering(t *testing.T) {
	c := dirtyCity()
	got := c.String()
	want := "{Los Angeles 67%, San Francisco 33%}"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	cert := Certain(value.NewInt(9001))
	if cert.String() != "9001" {
		t.Errorf("certain String = %q", cert.String())
	}
}

func TestProvenancePreserved(t *testing.T) {
	c := dirtyCity()
	if c.Orig.Str() != "San Francisco" {
		t.Error("provenance lost")
	}
	c.Merge(dirtyCity())
	if c.Orig.Str() != "San Francisco" {
		t.Error("merge must preserve provenance")
	}
}
