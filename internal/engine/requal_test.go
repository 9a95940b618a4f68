package engine

import (
	"fmt"
	"slices"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/expr"
	"daisy/internal/plan"
	"daisy/internal/ptable"
	"daisy/internal/sql"
	"daisy/internal/trace"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

// fixedCleaner is a Cleaner that returns a prepared generation (nil for
// unchanged) and appends prepared extras to the rows it is given.
type fixedCleaner struct {
	fixed  *ptable.PTable
	extras []int
}

func (c *fixedCleaner) CleanSelect(_ string, rows []int, _ expr.Pred, _ []*dc.Constraint, _ *detect.Metrics, _ trace.Span) (*ptable.PTable, []int, error) {
	return c.fixed, append(rows, c.extras...), nil
}

// rowsWithK returns the positions of bigPT(n) whose k is k.
func rowsWithK(n, k int) []int {
	var out []int
	for r := k; r < n; r += 97 {
		out = append(out, r)
	}
	return out
}

// TestRequalifyMatchesFullFilter is the differential test of cleanσ's
// re-qualification: whatever generation and extras the cleaner returns, the
// executor's output equals the candidates kept by a full EvalCell loop over
// that generation, and the filter evaluates only the passed rows whose tuple
// the generation replaced plus every extra — an extra whose tuple the
// cleaning left alone but which fails the predicate is evaluated and dropped.
func TestRequalifyMatchesFullFilter(t *testing.T) {
	const q = "SELECT k, v FROM big WHERE k <= 40"
	for _, n := range []int{600, 16 * parallelThreshold} {
		pt := bigPT("big", n)
		// Passed rows with k = 7 stay qualified ({7, 70}); with k = 13 they
		// no longer qualify (80). Rows with k = 95 are extras that now
		// qualify ({95, 1}); rows with k = 90 and 50 are extras the cleaning
		// left alone and that fail.
		d := ptable.NewDelta("big")
		for _, r := range rowsWithK(n, 7) {
			d.Set(int64(r), 0, uncertain.Cell{Orig: value.NewInt(7), Candidates: []uncertain.Candidate{
				{Val: value.NewInt(70), Prob: 0.5, World: 1},
				{Val: value.NewInt(7), Prob: 0.5},
			}})
		}
		for _, r := range rowsWithK(n, 13) {
			d.Set(int64(r), 0, uncertain.Certain(value.NewInt(80)))
		}
		for _, r := range rowsWithK(n, 95) {
			d.Set(int64(r), 0, uncertain.Cell{Orig: value.NewInt(95), Candidates: []uncertain.Candidate{
				{Val: value.NewInt(1), Prob: 0.5, World: 1},
				{Val: value.NewInt(95), Prob: 0.5},
			}})
		}
		changed, _ := pt.ApplyCOW(d)
		extras := append(append(rowsWithK(n, 95), rowsWithK(n, 90)...), rowsWithK(n, 50)...)
		replaced := len(rowsWithK(n, 7)) + len(rowsWithK(n, 13))

		for _, tc := range []struct {
			name      string
			cleaner   *fixedCleaner
			evaluated int
		}{
			{"unchanged", &fixedCleaner{}, 0},
			{"unchanged-same-generation", &fixedCleaner{fixed: pt}, 0},
			{"unchanged-with-extras", &fixedCleaner{extras: extras}, len(extras)},
			{"changed", &fixedCleaner{fixed: changed}, replaced},
			{"changed-with-extras", &fixedCleaner{fixed: changed, extras: extras}, replaced + len(extras)},
		} {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("n=%d/%s/workers=%d", n, tc.name, workers)
				e := &Executor{Tables: map[string]*ptable.PTable{"big": pt}, Cleaner: tc.cleaner, Workers: workers}
				node, err := plan.Build(sql.MustParse(q), catalog(e.Tables), []*dc.Constraint{dc.FD("phi", "big", "k", "v")})
				if err != nil {
					t.Fatal(err)
				}
				cs := node.(*plan.Project).Child.(*plan.CleanSelect)
				pred := cs.Child.(*plan.Select).Pred
				in, err := e.exec(cs.Child, trace.Span{})
				if err != nil {
					t.Fatal(err)
				}
				candidates := append(slices.Clone(in.rows), tc.cleaner.extras...)
				gen := tc.cleaner.fixed
				if gen == nil {
					gen = pt
				}
				qualifies := make(map[int]bool)
				for _, r := range rowLoop(gen, pred) {
					qualifies[r] = true
				}
				var want []int
				for _, r := range candidates {
					if qualifies[r] {
						want = append(want, r)
					}
				}

				out, st, err := e.cleanSelect(cs, in, pred, trace.Span{})
				if err != nil {
					t.Fatal(err)
				}
				if out.pt != gen {
					t.Errorf("%s: output reads another generation than the cleaner's", name)
				}
				if !slices.Equal(out.rows, want) {
					t.Errorf("%s: kept %d rows, a full filter over the cleaned generation keeps %d", name, len(out.rows), len(want))
				}
				if st.evaluated != tc.evaluated {
					t.Errorf("%s: evaluated %d rows, want %d", name, st.evaluated, tc.evaluated)
				}
			}
		}
	}
}
