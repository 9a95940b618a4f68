package uncertain

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/value"
)

// rangeFix builds the cell a DC repair proposes for orig: keep plus ranges.
func rangeFix(orig value.Value, ranges ...RangeCandidate) Cell {
	c := Certain(orig)
	for _, r := range ranges {
		c.AddRange(r.Op, r.Bound, r.World)
	}
	return c
}

// canonical renders a cell without world ids, sorted, at full precision —
// the same information ptable.CellFingerprint compares.
func canonical(c *Cell) string {
	var parts []string
	for _, cand := range c.Candidates {
		parts = append(parts, fmt.Sprintf("c=%s@%v/%d", cand.Val, cand.Prob, cand.Support))
	}
	sort.Strings(parts)
	for _, r := range c.Ranges {
		parts = append(parts, fmt.Sprintf("r=%s%s@%v", r.Op, r.Bound, r.Prob))
	}
	return fmt.Sprintf("o=%s %v", c.Orig, parts)
}

// TestAddRangeExample5: one inverting range beside the original value splits
// 50/50, and k distinct ranges weigh 1/(k+1) each, the keep candidate taking
// the remaining share with no support of its own.
func TestAddRangeExample5(t *testing.T) {
	c := rangeFix(value.NewFloat(3000),
		RangeCandidate{RangeBound: RangeBound{Op: dc.Leq, Bound: value.NewFloat(2000)}, World: 1})
	if len(c.Candidates) != 1 || len(c.Ranges) != 1 {
		t.Fatalf("cell = %v", c.String())
	}
	if c.Candidates[0].Prob != 0.5 || c.Ranges[0].Prob != 0.5 || c.Candidates[0].Support != 0 {
		t.Errorf("Example 5 cell = %+v", c)
	}
	c.AddRange(dc.Leq, value.NewFloat(1500), 2)
	c.AddRange(dc.Leq, value.NewFloat(2000), 2) // duplicate (op, bound)
	if len(c.Ranges) != 2 {
		t.Fatalf("ranges = %v, want 2 distinct", c.Ranges)
	}
	for _, p := range []float64{c.Candidates[0].Prob, c.Ranges[0].Prob, c.Ranges[1].Prob} {
		if p != 1.0/3 {
			t.Errorf("two ranges: weight %v, want 1/3 (%v)", p, c.String())
		}
	}
	if c.Ranges[0].Bound.Float() != 1500 || c.Ranges[1].World != 1 {
		t.Errorf("ranges not canonical (op, bound) order with lowest world: %+v", c.Ranges)
	}
}

// TestMergeRangeFixIdempotent: re-merging a DC fix leaves the cell
// byte-identical, whether the cell held only range fixes or FD candidates too.
func TestMergeRangeFixIdempotent(t *testing.T) {
	fix := rangeFix(value.NewString("San Francisco"),
		RangeCandidate{RangeBound: RangeBound{Op: dc.Gt, Bound: value.NewString("Boston")}, World: 1})
	for name, start := range map[string]Cell{"dc-only": fix.Clone(), "mixed": dirtyCity()} {
		once := start.Clone()
		once.Merge(fix)
		twice := once.Clone()
		twice.Merge(fix)
		if !reflect.DeepEqual(once, twice) {
			t.Errorf("%s: merging a DC fix twice changed the cell: %v vs %v", name, once.String(), twice.String())
		}
	}
}

// TestMixedMergeCommutes: on a column an FD and a DC both fix, FD-then-DC and
// DC-then-FD give the same distribution bit for bit (world ids aside, which
// number insertion order), and the FD share is split by support.
func TestMixedMergeCommutes(t *testing.T) {
	orig := value.NewString("San Francisco")
	dcFix := rangeFix(orig,
		RangeCandidate{RangeBound: RangeBound{Op: dc.Gt, Bound: value.NewString("Boston")}, World: 1},
		RangeCandidate{RangeBound: RangeBound{Op: dc.Lt, Bound: value.NewString("Austin")}, World: 2})

	fdFirst := Certain(orig)
	fdFirst.Merge(dirtyCity())
	fdFirst.Merge(dcFix)
	dcFirst := Certain(orig)
	dcFirst.Merge(dcFix)
	dcFirst.Merge(dirtyCity())
	if a, b := canonical(&fdFirst), canonical(&dcFirst); a != b {
		t.Fatalf("FD-then-DC %s != DC-then-FD %s", a, b)
	}
	if math.Abs(fdFirst.ProbSum()-1) > 1e-12 {
		t.Errorf("mass = %v", fdFirst.ProbSum())
	}
	for _, cand := range fdFirst.Candidates {
		want := 1.0 / 3 * float64(cand.Support) / 3 // FD share 1/3, split 2:1
		if math.Abs(cand.Prob-want) > 1e-12 {
			t.Errorf("candidate %s: prob %v, want %v", cand.Val, cand.Prob, want)
		}
	}
	for _, r := range fdFirst.Ranges {
		if math.Abs(r.Prob-1.0/3) > 1e-12 {
			t.Errorf("range %s%s: prob %v, want 1/3", r.Op, r.Bound, r.Prob)
		}
	}
}

// TestMergeLeavesSourceRangesUntouched: a copy-on-write table clones a
// tuple's cells shallowly, so a published cell and its write clone share
// range backing. Merging an FD fix into the clone, which reweights every
// range, must not write through to the published cell.
func TestMergeLeavesSourceRangesUntouched(t *testing.T) {
	published := rangeFix(value.NewString("San Francisco"),
		RangeCandidate{RangeBound: RangeBound{Op: dc.Gt, Bound: value.NewString("Boston")}, World: 1})
	published.Merge(dirtyCity())
	before := canonical(&published)
	clone := published // shallow: same Candidates and Ranges backing
	clone.Merge(dirtyCity())
	if got := canonical(&published); got != before {
		t.Errorf("merge into a shallow clone changed the source cell: %s, was %s", got, before)
	}
	if &clone.Ranges[0] == &published.Ranges[0] {
		t.Error("merge reweighted ranges in the source cell's backing")
	}
}

// FuzzMergeRangeSets: a range set split into batches with duplicates and
// merged in any order gives the same cell bytes as adding every range to one
// cell. Each input byte triple is one range: op, bound, and batch/world.
func FuzzMergeRangeSets(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 5, 0, 1, 9, 3, 3, 2})
	f.Add([]byte{2, 7, 1, 2, 7, 6, 2, 135, 3, 4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*32 {
			data = data[:3*32]
		}
		ops := []dc.Op{dc.Eq, dc.Neq, dc.Lt, dc.Leq, dc.Gt, dc.Geq}
		orig := value.NewInt(3)
		const batches = 4
		var all []RangeCandidate
		var byBatch [batches][]RangeCandidate
		for i := 0; i+2 < len(data); i += 3 {
			bound := value.NewInt(int64(data[i+1] & 7))
			if data[i+1]&0x80 != 0 {
				bound = value.NewFloat(float64(data[i+1] & 7))
			}
			r := RangeCandidate{RangeBound: RangeBound{Op: ops[int(data[i])%len(ops)], Bound: bound},
				World: int(data[i+2]>>2)%3 + 1}
			all = append(all, r)
			b := int(data[i+2]) % batches
			byBatch[b] = append(byBatch[b], r)
		}
		if len(all) == 0 {
			return
		}
		want := rangeFix(orig, all...)

		var cells []Cell
		for _, rs := range byBatch {
			if len(rs) > 0 {
				cells = append(cells, rangeFix(orig, rs...))
			}
		}
		merge := func(order []int) Cell {
			c := Certain(orig)
			for _, i := range order {
				c.Merge(cells[i])
			}
			return c
		}
		var forward, backward []int
		for i := range cells {
			forward = append(forward, i)
			backward = append(backward, len(cells)-1-i)
		}
		forward = append(forward, forward...)     // every batch detected twice
		backward = append(backward, len(cells)/2) // one batch twice
		for _, order := range [][]int{forward, backward} {
			if got := merge(order); !reflect.DeepEqual(got, want) {
				t.Fatalf("order %v: %v (%+v), want %v (%+v)", order, got.String(), got.Ranges, want.String(), want.Ranges)
			}
		}
	})
}
