package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/value"
)

// empTableMixed builds the salary/tax relation of the DC tests: tax rises
// with salary except on every seventh row, so
// !(t1.salary<t2.salary & t1.tax>t2.tax) has violating pairs. With mixed,
// rows also carry a dept whose tax an FD fixes, so tax cells hold FD
// candidates and DC ranges together.
func empTableMixed(mixed bool) *table.Table {
	cols := []schema.Column{
		{Name: "salary", Kind: value.Float},
		{Name: "tax", Kind: value.Float},
	}
	if mixed {
		cols = append(cols, schema.Column{Name: "dept", Kind: value.Int})
	}
	tb := table.New("emp", schema.MustNew(cols...))
	for i := 0; i < 60; i++ {
		tax := 0.1 + float64(i)*0.01
		if i%7 == 0 {
			tax = 0.9 - tax
		}
		row := table.Row{value.NewFloat(float64(1000 + i*50)), value.NewFloat(tax)}
		if mixed {
			row = append(row, value.NewInt(int64(i/3)))
		}
		tb.MustAppend(row)
	}
	return tb
}

func newEmpSession(t *testing.T, opts Options, mixed bool) *Session {
	t.Helper()
	s := NewSession(opts)
	rules := []*dc.Constraint{dc.MustParse("psi@emp: !(t1.salary<t2.salary & t1.tax>t2.tax)")}
	if mixed {
		rules = append(rules, dc.FD("phi", "emp", "tax", "dept"))
	}
	setupSession(t, s, empTableMixed(mixed), rules...)
	return s
}

// empQueries are three disjoint salary ranges and one covering query.
func empQueries() []string {
	return []string{
		"SELECT salary, tax FROM emp WHERE salary < 1800",
		"SELECT salary, tax FROM emp WHERE salary >= 1800 AND salary < 2600",
		"SELECT salary, tax FROM emp WHERE salary >= 2600",
		"SELECT salary, tax FROM emp WHERE salary >= 0",
	}
}

// TestDCStateIndependentOfStrategyAndOrder: once every tuple is checked, the
// cleaned state is one fingerprint whichever strategy and query order got it
// there — the detected pairs are every violating pair, and a cell's fixes are
// the set of ranges they imply. The mixed table puts FD candidates and DC
// ranges on the same tax cells, which must merge the same in either order.
func TestDCStateIndependentOfStrategyAndOrder(t *testing.T) {
	q := empQueries()
	runs := []struct {
		name     string
		strategy Strategy
		queries  []string
	}{
		{"incremental/0-1-2-3", StrategyIncremental, q},
		{"incremental/2-1-0-3", StrategyIncremental, []string{q[2], q[1], q[0], q[3]}},
		{"incremental/covering", StrategyIncremental, q[3:]},
		{"full", StrategyFull, q[:1]},
	}
	for _, mixed := range []bool{false, true} {
		t.Run(fmt.Sprintf("mixed=%v", mixed), func(t *testing.T) {
			var want string
			for _, r := range runs {
				s := newEmpSession(t, Options{Strategy: r.strategy}, mixed)
				runQueries(t, s, r.queries)
				got := s.Table("emp").Fingerprint()
				s.Close()
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Errorf("%s: state differs from %s:\n%s\nvs\n%s", r.name, runs[0].name, got, want)
				}
			}
		})
	}
}

// TestFDFixLeavesPublishedRangesUntouched: the first query's DC pairs put
// ranges on the tax cells of rows 1 and 2 (the FD, bound first, has already
// run). The second query reaches those rows only through the FD, so its fix
// merges onto cells whose range backing the published epoch owns. Racing
// copies of that query must leave the published table as it was; under the
// race detector any write into it fails the test.
func TestFDFixLeavesPublishedRangesUntouched(t *testing.T) {
	tb := table.New("emp", schema.MustNew(
		schema.Column{Name: "salary", Kind: value.Float},
		schema.Column{Name: "tax", Kind: value.Float},
		schema.Column{Name: "dept", Kind: value.Int},
	))
	tb.MustAppend(table.Row{value.NewFloat(1000), value.NewFloat(0.9), value.NewInt(0)})
	tb.MustAppend(table.Row{value.NewFloat(2000), value.NewFloat(0.2), value.NewInt(1)})
	tb.MustAppend(table.Row{value.NewFloat(2000), value.NewFloat(0.3), value.NewInt(1)})
	s := NewSession(Options{Strategy: StrategyIncremental})
	defer s.Close()
	setupSession(t, s, tb,
		dc.FD("phi", "emp", "tax", "dept"),
		dc.MustParse("psi@emp: !(t1.salary<t2.salary & t1.tax>t2.tax)"))
	runQueries(t, s, []string{"SELECT salary, tax FROM emp WHERE dept = 0"})
	published := s.Table("emp")
	want := published.Fingerprint()
	if !strings.Contains(want, ";r=") {
		t.Fatalf("first query left no DC ranges:\n%s", want)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Query("SELECT salary, tax FROM emp WHERE dept = 1"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			published.Fingerprint()
		}
	}()
	wg.Wait()
	if got := published.Fingerprint(); got != want {
		t.Errorf("published epoch changed:\n%s\nvs\n%s", got, want)
	}
	if got := s.Table("emp").Fingerprint(); got == want {
		t.Errorf("second query's FD fix was not applied:\n%s", got)
	}
}

// TestDurableReopenMixedRulesOneColumn: an FD and a general DC both fix
// emp.tax. Racing queries merge their fixes into those cells in publish
// order; recovery rebuilds them rule by rule, from the checkpoint's checked
// sets and the WAL's past it. Both orders must give one state.
func TestDurableReopenMixedRulesOneColumn(t *testing.T) {
	dir := t.TempDir()
	s := newEmpSession(t, durableOpts(dir), true)
	defer s.Close()
	race := func(queries []string) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range queries {
					if _, err := s.Query(queries[(i+g)%len(queries)]); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
	q := empQueries()
	race(q[:2])
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	race(q[2:])
	st := s.w.current().tables["emp"]
	if st.checked["phi"].len() == 0 || st.checked["psi"].len() == 0 {
		t.Fatal("the workload checked no FD groups or no DC tuples")
	}
	want := s.StateFingerprint()
	s.Close()

	s2, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.StateFingerprint(); got != want {
		t.Fatalf("reopened state differs from the live one:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
