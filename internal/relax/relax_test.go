package relax

import (
	"testing"
	"testing/quick"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/value"
)

// Table 2a of the paper.
func citiesTable() *table.Table {
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
	return t
}

func zipCity() dc.FDSpec {
	spec, _ := dc.FD("phi", "cities", "city", "zip").AsFD()
	return spec
}

func TestExample2RHSFilterOneIteration(t *testing.T) {
	// Query: City = 'Los Angeles' → rows 0, 2. Lemma 1: one iteration adds
	// row 1 (same zip) and nothing else.
	v := detect.TableView{T: citiesTable()}
	one := FDOnePass(v, []int{0, 2}, zipCity(), nil)
	if len(one) != 1 || one[0] != 1 {
		t.Fatalf("one-pass extra = %v, want [1]", one)
	}
	// The full closure keeps chasing shared values into the 10001 cluster.
	extra := FD(v, []int{0, 2}, zipCity(), nil)
	got := map[int]bool{}
	for _, i := range extra {
		got[i] = true
	}
	if len(extra) != 3 || !got[1] || !got[3] || !got[4] {
		t.Fatalf("closure extra = %v, want {1,3,4}", extra)
	}
}

func TestExample3LHSFilterTransitiveClosure(t *testing.T) {
	// Query: zip = 9001 → rows 0,1,2. Row 1's city (San Francisco) pulls in
	// row 3 (10001, SF), whose zip pulls in row 4 (10001, NY).
	v := detect.TableView{T: citiesTable()}
	extra := FD(v, []int{0, 1, 2}, zipCity(), nil)
	got := map[int]bool{}
	for _, i := range extra {
		got[i] = true
	}
	if len(extra) != 2 || !got[3] || !got[4] {
		t.Fatalf("extra = %v, want {3,4} via transitive closure", extra)
	}
	// One pass must find only row 3.
	one := FDOnePass(v, []int{0, 1, 2}, zipCity(), nil)
	if len(one) != 1 || one[0] != 3 {
		t.Fatalf("one-pass = %v, want [3]", one)
	}
}

func TestRelaxationIdempotent(t *testing.T) {
	// relax(relax(A)) = relax(A): re-running on the relaxed result adds nothing.
	v := detect.TableView{T: citiesTable()}
	result := []int{0, 1, 2}
	extra := FD(v, result, zipCity(), nil)
	relaxed := append(append([]int{}, result...), extra...)
	again := FD(v, relaxed, zipCity(), nil)
	if len(again) != 0 {
		t.Errorf("second relaxation added %v", again)
	}
}

func TestRelaxationClusterCompleteness(t *testing.T) {
	// Property: the relaxed result is a union of complete clusters — no
	// tuple outside shares an lhs or rhs value with a tuple inside.
	prop := func(seed uint32) bool {
		s := seed
		next := func() uint32 { s = s*1664525 + 1013904223; return s }
		sch := schema.MustNew(
			schema.Column{Name: "zip", Kind: value.Int},
			schema.Column{Name: "city", Kind: value.Int},
		)
		tb := table.New("t", sch)
		n := 30
		for i := 0; i < n; i++ {
			tb.MustAppend(table.Row{value.NewInt(int64(next() % 8)), value.NewInt(int64(next() % 8))})
		}
		v := detect.TableView{T: tb}
		result := []int{int(next() % uint32(n))}
		fd := zipCity()
		extra := FD(v, result, fd, nil)
		in := map[int]bool{}
		for _, i := range result {
			in[i] = true
		}
		for _, i := range extra {
			in[i] = true
		}
		lhs := map[string]bool{}
		rhs := map[string]bool{}
		for i := range in {
			lhs[v.Value(i, "zip").Key()] = true
			rhs[v.Value(i, "city").Key()] = true
		}
		for i := 0; i < n; i++ {
			if in[i] {
				continue
			}
			if lhs[v.Value(i, "zip").Key()] || rhs[v.Value(i, "city").Key()] {
				return false // half-cluster: correlated tuple left out
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMetricsAccumulate(t *testing.T) {
	var m detect.Metrics
	v := detect.TableView{T: citiesTable()}
	FDOnePass(v, []int{0, 2}, zipCity(), &m)
	if m.Relaxed != 1 {
		t.Errorf("Relaxed = %d", m.Relaxed)
	}
	if m.Scanned == 0 {
		t.Error("Scanned must count traversed tuples")
	}
}
