package offline

import (
	"context"
	"errors"
	"math"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/value"
)

func citiesPT() *ptable.PTable {
	sch := schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "city", Kind: value.String},
	)
	t := table.New("cities", sch)
	rows := []struct {
		zip  int64
		city string
	}{
		{9001, "Los Angeles"}, {9001, "San Francisco"}, {9001, "Los Angeles"},
		{10001, "San Francisco"}, {10001, "New York"},
	}
	for _, r := range rows {
		t.MustAppend(table.Row{value.NewInt(r.zip), value.NewString(r.city)})
	}
	return ptable.FromTable(t)
}

func TestCleanFDRepairsAllGroups(t *testing.T) {
	pt := citiesPT()
	c := &Cleaner{}
	rep, err := c.CleanAll(context.Background(), pt, []*dc.Constraint{dc.FD("phi", "cities", "city", "zip")})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolatingGroups != 2 {
		t.Errorf("groups = %d, want 2", rep.ViolatingGroups)
	}
	// All five tuples are in violating groups → all get probabilistic cities.
	for i := 0; i < pt.Len(); i++ {
		if pt.Cell(i, "city").IsCertain() {
			t.Errorf("row %d city must be probabilistic", i)
		}
	}
	// Distribution check: P(LA | 9001) = 2/3.
	var la float64
	for _, cand := range pt.Cell(0, "city").Candidates {
		if cand.Val.Str() == "Los Angeles" {
			la = cand.Prob
		}
	}
	if math.Abs(la-2.0/3) > 1e-9 {
		t.Errorf("P(LA|9001) = %v", la)
	}
}

func TestOfflineScansPerGroup(t *testing.T) {
	pt := citiesPT()
	c := &Cleaner{}
	rep, err := c.CleanAll(context.Background(), pt, []*dc.Constraint{dc.FD("phi", "cities", "city", "zip")})
	if err != nil {
		t.Fatal(err)
	}
	// Detection scan (5) + per-group scans: 2 groups × 2 passes × 5 rows = 20.
	if rep.Metrics.Scanned < 25 {
		t.Errorf("offline must traverse the dataset per group: scanned = %d", rep.Metrics.Scanned)
	}
}

func TestCleanFDRejectsNonFD(t *testing.T) {
	pt := citiesPT()
	c := &Cleaner{}
	if _, err := c.cleanFD(context.Background(), pt, dc.MustParse("x: !(t1.zip<t2.zip & t1.city>t2.city)")); err == nil {
		t.Error("non-FD must be rejected by cleanFD")
	}
}

func TestTimeoutBudget(t *testing.T) {
	pt := citiesPT()
	c := &Cleaner{MaxGroupScans: 1}
	_, err := c.CleanAll(context.Background(), pt, []*dc.Constraint{dc.FD("phi", "cities", "city", "zip")})
	if err != ErrTimeout {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

// salariesPT has one violating pair under salaryDC: rows 1 and 2.
func salariesPT() *ptable.PTable {
	sch := schema.MustNew(
		schema.Column{Name: "salary", Kind: value.Float},
		schema.Column{Name: "tax", Kind: value.Float},
	)
	tb := table.New("emp", sch)
	for _, r := range [][2]float64{{1000, 0.1}, {3000, 0.2}, {2000, 0.3}} {
		tb.MustAppend(table.Row{value.NewFloat(r[0]), value.NewFloat(r[1])})
	}
	return ptable.FromTable(tb)
}

var salaryDC = dc.MustParse("psi: !(t1.salary<t2.salary & t1.tax>t2.tax)")

func TestCleanDC(t *testing.T) {
	pt := salariesPT()
	c := &Cleaner{}
	rep, err := c.CleanAll(context.Background(), pt, []*dc.Constraint{salaryDC})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolatingPairs != 1 {
		t.Errorf("pairs = %d", rep.ViolatingPairs)
	}
	if pt.Cell(1, "salary").IsCertain() || pt.Cell(2, "tax").IsCertain() {
		t.Error("violating pair must be repaired")
	}
}

func TestCleanAllMultiRule(t *testing.T) {
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
	add(9001, "LA", "WA")
	add(9001, "LA", "CA")
	pt := ptable.FromTable(tb)
	c := &Cleaner{}
	rep, err := c.CleanAll(context.Background(), pt, []*dc.Constraint{
		dc.FD("phi1", "t", "state", "zip"),
		dc.FD("phi2", "t", "state", "city"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolatingGroups != 2 {
		t.Errorf("total violating groups = %d", rep.ViolatingGroups)
	}
	// State cells carry the merged distribution; mass stays 1.
	for i := 0; i < pt.Len(); i++ {
		cell := pt.Cell(i, "state")
		if s := cell.ProbSum(); math.Abs(s-1) > 1e-9 {
			t.Errorf("row %d state mass = %v", i, s)
		}
	}
}

func TestOfflineMatchesPaperExample(t *testing.T) {
	// Offline and Daisy must agree on the cities dataset distributions —
	// offline is the correctness reference (§3).
	pt := citiesPT()
	c := &Cleaner{}
	if _, err := c.CleanAll(context.Background(), pt, []*dc.Constraint{dc.FD("phi", "cities", "city", "zip")}); err != nil {
		t.Fatal(err)
	}
	// Row 1 zip candidates {9001 50%, 10001 50%} (Table 2b).
	zipCell := pt.Cell(1, "zip")
	if len(zipCell.Candidates) != 2 {
		t.Fatalf("row 1 zip = %v", zipCell)
	}
	for _, cand := range zipCell.Candidates {
		if math.Abs(cand.Prob-0.5) > 1e-9 {
			t.Errorf("zip candidate %v prob %v", cand.Val, cand.Prob)
		}
	}
}

// TestCleanAllCanceledLeavesTableUnchanged: a done ctx aborts both cleaners
// before they apply anything.
func TestCleanAllCanceledLeavesTableUnchanged(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		pt   *ptable.PTable
		rule *dc.Constraint
	}{
		{citiesPT(), dc.FD("phi", "cities", "city", "zip")},
		{salariesPT(), salaryDC},
	} {
		before := tc.pt.Fingerprint()
		rep, err := (&Cleaner{}).CleanAll(ctx, tc.pt, []*dc.Constraint{tc.rule})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want wrapped context.Canceled", tc.rule.Name, err)
		}
		if rep.UpdatedCells != 0 || tc.pt.Fingerprint() != before {
			t.Errorf("%s: canceled clean changed the table", tc.rule.Name)
		}
	}
}
