package ptable_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/oracle"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

// The differential tests in this file compare the segmented PTable against
// oracle.FlatTable — the pre-refactor flat tuple storage kept in the oracle
// package — so segment arithmetic, counter maintenance, and clone sharing
// are all checked against the naive implementation byte for byte.

// randomDiffTable builds a seeded deterministic relation spanning several
// segments' worth of rows.
func randomDiffTable(rng *rand.Rand, n int) *table.Table {
	sch := schema.MustNew(
		schema.Column{Name: "a", Kind: value.Int},
		schema.Column{Name: "b", Kind: value.String},
		schema.Column{Name: "x", Kind: value.Float},
	)
	tb := table.New("t", sch)
	for i := 0; i < n; i++ {
		tb.MustAppend(table.Row{
			value.NewInt(int64(rng.Intn(40))),
			value.NewString(fmt.Sprintf("s%d", rng.Intn(25))),
			value.NewFloat(float64(rng.Intn(100))),
		})
	}
	return tb
}

// randomDiffDelta generates an FD- or DC-shaped delta from a sub-seed. Two
// calls with the same arguments build structurally identical deltas —
// required because Apply takes ownership of delta cells, so the segmented
// and flat runs each need their own copy.
func randomDiffDelta(seed int64, tb *table.Table) *ptable.Delta { return diffDelta(seed, tb, false) }

// denseDiffDelta is randomDiffDelta fixing half as many cells as tb has
// rows: enough for ApplyCOW's bulk-clone path.
func denseDiffDelta(seed int64, tb *table.Table) *ptable.Delta { return diffDelta(seed, tb, true) }

func diffDelta(seed int64, tb *table.Table, dense bool) *ptable.Delta {
	rng := rand.New(rand.NewSource(seed))
	d := ptable.NewDelta(tb.Name)
	k := 1 + rng.Intn(6)
	if dense {
		k = tb.Len() / 2
	}
	for i := 0; i < k; i++ {
		row := rng.Intn(tb.Len())
		col := rng.Intn(tb.Schema.Len())
		orig := tb.Rows[row][col]
		cell := uncertain.Cell{Orig: orig}
		if rng.Intn(2) == 0 {
			// FD-shaped fix: a frequency distribution over candidate values.
			nc := 2 + rng.Intn(2)
			for c := 0; c < nc; c++ {
				cell.Candidates = append(cell.Candidates, uncertain.Candidate{
					Val:     value.NewInt(int64(rng.Intn(40))),
					Prob:    1.0 / float64(nc),
					World:   c,
					Support: 1 + rng.Intn(3),
				})
			}
		} else {
			// DC-shaped fix: keep-original plus an inverting range candidate.
			cell.Candidates = []uncertain.Candidate{{Val: orig, Prob: 0.5, World: 0, Support: 1}}
			op := []dc.Op{dc.Lt, dc.Leq, dc.Gt, dc.Geq}[rng.Intn(4)]
			cell.Ranges = []uncertain.RangeCandidate{{
				RangeBound: uncertain.RangeBound{Op: op, Bound: value.NewFloat(float64(rng.Intn(100)))},
				Prob:       0.5,
				World:      1,
			}}
		}
		d.Set(int64(row), col, cell)
	}
	return d
}

// compareStates asserts fingerprint byte-equality and that the segmented
// side's maintained counters equal the flat side's full scans.
func compareStates(t *testing.T, ctx string, seg *ptable.PTable, flat *oracle.FlatTable) {
	t.Helper()
	if got, want := seg.Fingerprint(), flat.Fingerprint(); got != want {
		t.Fatalf("%s: segmented state diverged from flat reference\nsegmented:\n%.1500s\nflat:\n%.1500s", ctx, got, want)
	}
	if got, want := seg.DirtyTuples(), flat.DirtyTuples(); got != want {
		t.Fatalf("%s: DirtyTuples counter %d, full scan %d", ctx, got, want)
	}
	if got, want := seg.CandidateFootprint(), flat.CandidateFootprint(); got != want {
		t.Fatalf("%s: CandidateFootprint counter %d, full scan %d", ctx, got, want)
	}
	if err := seg.VerifyZones(); err != nil {
		t.Fatalf("%s: unsound zone: %v", ctx, err)
	}
}

// zonesOf copies every segment's zones, to check later that nothing wrote
// them.
func zonesOf(p *ptable.PTable) [][]ptable.Zone {
	out := make([][]ptable.Zone, p.Segments())
	for k := range out {
		out[k] = slices.Clone(p.SegZones(k))
	}
	return out
}

// sameZones reports whether p's zones equal a zonesOf copy.
func sameZones(p *ptable.PTable, zs [][]ptable.Zone) bool {
	for k := range zs {
		if !slices.Equal(p.SegZones(k), zs[k]) {
			return false
		}
	}
	return true
}

// TestSegmentedMatchesFlatReference drives seeded sequences of FD- and
// DC-shaped deltas through the segmented PTable and the flat reference:
// first an in-place phase (the offline/oracle lifecycle), then a
// copy-on-write phase of generation chains and dropped (canceled-query)
// branches (the epoch-publication lifecycle — after the first ApplyCOW the
// relation is frozen for in-place mutation by the enforced invariant),
// with one dense publish midway.
// After every step both implementations must be fingerprint-byte-identical,
// the maintained counters must equal the flat full scans, every zone must
// cover its segment's cells (VerifyZones), and ApplyCOW must leave the
// receiver's zones untouched.
func TestSegmentedMatchesFlatReference(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(3*ptable.SegmentSize)
		tb := randomDiffTable(rng, n)
		seg := ptable.FromTable(tb)
		flat := oracle.FlatFromTable(tb)

		// Phase 1: in-place applies.
		for step := 0; step < 10; step++ {
			sub := seed*1000 + int64(step)
			if u1, u2 := seg.Apply(randomDiffDelta(sub, tb)), flat.Apply(randomDiffDelta(sub, tb)); u1 != u2 {
				t.Fatalf("seed %d apply step %d: updated %d vs %d", seed, step, u1, u2)
			}
			compareStates(t, fmt.Sprintf("seed %d apply step %d", seed, step), seg, flat)
		}

		// Phase 2: copy-on-write chains with dropped branches.
		for step := 0; step < 15; step++ {
			sub := seed*1000 + 500 + int64(step)
			dSeg := randomDiffDelta(sub, tb)
			dFlat := randomDiffDelta(sub, tb)
			zones := zonesOf(seg)
			if rng.Intn(3) < 2 {
				var u1, u2 int
				prev := seg
				seg, u1 = seg.ApplyCOW(dSeg)
				if !sameZones(prev, zones) {
					t.Fatalf("seed %d cow step %d: ApplyCOW wrote its receiver's zones", seed, step)
				}
				flat, u2 = flat.ApplyCOW(dFlat)
				if u1 != u2 {
					t.Fatalf("seed %d cow step %d: COW updated %d vs %d", seed, step, u1, u2)
				}
			} else {
				// Canceled query: a COW branch is built, compared, and dropped
				// without publishing; the base generation must be untouched.
				before := seg.Fingerprint()
				branchSeg, _ := seg.ApplyCOW(dSeg)
				branchFlat, _ := flat.ApplyCOW(dFlat)
				if branchSeg.Fingerprint() != branchFlat.Fingerprint() {
					t.Fatalf("seed %d cow step %d: dropped branch diverged", seed, step)
				}
				if seg.Fingerprint() != before {
					t.Fatalf("seed %d cow step %d: COW branch mutated its base", seed, step)
				}
				if !sameZones(seg, zones) {
					t.Fatalf("seed %d cow step %d: dropped branch wrote its base's zones", seed, step)
				}
				if err := branchSeg.VerifyZones(); err != nil {
					t.Fatalf("seed %d cow step %d: dropped branch has an unsound zone: %v", seed, step, err)
				}
			}
			compareStates(t, fmt.Sprintf("seed %d cow step %d", seed, step), seg, flat)

			if step == 7 {
				// A dense publish, through the bulk-clone path.
				zones := zonesOf(seg)
				prev := seg
				seg, _ = seg.ApplyCOW(denseDiffDelta(sub, tb))
				flat, _ = flat.ApplyCOW(denseDiffDelta(sub, tb))
				if !sameZones(prev, zones) {
					t.Fatalf("seed %d cow step %d: dense ApplyCOW wrote its receiver's zones", seed, step)
				}
				compareStates(t, fmt.Sprintf("seed %d dense cow step %d", seed, step), seg, flat)
			}
		}
	}
}

// TestApplyCOWSmallDeltaAllocs pins small-delta epoch publication to
// O(segments touched): a one-tuple delta must allocate the same small number
// of objects on a 16× larger relation — the flat implementation's O(n)
// pointer copy would instead show up as size-dependent allocation growth.
func TestApplyCOWSmallDeltaAllocs(t *testing.T) {
	alloc := func(rows int) float64 {
		rng := rand.New(rand.NewSource(7))
		tb := randomDiffTable(rng, rows)
		p := ptable.FromTable(tb)
		d := randomDiffDelta(42, tb)
		// Single-tuple delta: keep only one key.
		for id := range d.Cells {
			if len(d.Cells) > 1 {
				delete(d.Cells, id)
			}
		}
		return testing.AllocsPerRun(50, func() {
			p.ApplyCOW(d)
		})
	}
	small := alloc(8 * ptable.SegmentSize)
	large := alloc(128 * ptable.SegmentSize)
	// out PTable + segs directory + one segment clone (struct + tuple slice)
	// + tuple clone + cell slice ≈ 6; leave headroom for runtime noise.
	const maxAllocs = 12
	if small > maxAllocs || large > maxAllocs {
		t.Errorf("ApplyCOW small-delta allocs = %.0f (small) / %.0f (large), want <= %d", small, large, maxAllocs)
	}
	if large > small+2 {
		t.Errorf("ApplyCOW allocations grew with relation size: %.0f -> %.0f (publication must be O(segments touched))", small, large)
	}
}
