package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/value"
)

// randSkipFixture builds a relation with sparse violations — most lhs groups
// certain, so whole storage segments carry no violating anchors and the
// segment-skip fast path actually exercises its skip branch.
func randSkipFixture(rng *rand.Rand, rows, groups int) (*ptable.PTable, dc.FDSpec) {
	sch := schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "city", Kind: value.String},
	)
	tb := table.New("cities", sch)
	cities := []string{"LA", "SF", "NY", "CHI"}
	for i := 0; i < rows; i++ {
		zip := int64(rng.Intn(groups))
		city := cities[0]
		if rng.Intn(16) == 0 {
			city = cities[1+rng.Intn(3)]
		}
		tb.MustAppend(table.Row{value.NewInt(zip), value.NewString(city)})
	}
	spec, _ := dc.FD("phi", "cities", "city", "zip").AsFD()
	return ptable.FromTable(tb), spec
}

// violatingScopeScanIn is the exhaustive per-row reference implementation of
// violatingScopeIn: the differential oracle the property tests and the
// dirty-fraction benchmark compare the segment-skip path against.
func (ix *fdIndex) violatingScopeScanIn(lo, hi int, checked *posSet) (scope, anchors []int) {
	hi = min(hi, len(ix.anchor))
	for r := lo; r < hi; r++ {
		g := ix.groups[ix.anchor[r]]
		if g.members[0] != r || !g.violating() || checked.has(r) {
			continue // not this group's anchor row, or nothing to clean
		}
		anchors = append(anchors, r)
		scope = append(scope, g.members...)
	}
	return scope, anchors
}

func sameScope(gotScope, gotAnchors, wantScope, wantAnchors []int) bool {
	return slices.Equal(gotScope, wantScope) && slices.Equal(gotAnchors, wantAnchors)
}

// groupOrder lists the index's group anchors in first-appearance (row) order.
func groupOrder(ix *fdIndex) []int {
	var anchors []int
	for r, a := range ix.anchor {
		if int(a) == r {
			anchors = append(anchors, r)
		}
	}
	return anchors
}

// TestViolatingScopeSegmentSkipMatchesScan is the seeded differential oracle
// for the segment-skip scan: on random relations, checked sets, and
// sub-ranges, violatingScopeIn must return exactly what the exhaustive
// per-row reference returns — including with a checked set that grows
// between chunks (the stale-counter adversarial case: a segment's groups all
// transition dirty→clean mid-sweep while its anchor counter stays nonzero).
func TestViolatingScopeSegmentSkipMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		rows := 1 + rng.Intn(4*ptable.SegmentSize)
		groups := 1 + rng.Intn(rows)
		pt, fd := randSkipFixture(rng, rows, groups)
		ix := newFDIndex(pt, fd)

		// Fixed random checked subset, random sub-ranges (hi may overshoot n).
		checked := new(posSet)
		for _, a := range groupOrder(ix) {
			if rng.Intn(3) == 0 {
				checked.add(a)
			}
		}
		for i := 0; i < 16; i++ {
			lo := rng.Intn(rows + 1)
			hi := lo + rng.Intn(rows+ptable.SegmentSize-lo)
			gs, gk := ix.violatingScopeIn(lo, hi, checked)
			ws, wk := ix.violatingScopeScanIn(lo, hi, checked)
			if !sameScope(gs, gk, ws, wk) {
				t.Fatalf("trial %d [%d,%d): skip scope %v/%v != scan scope %v/%v", trial, lo, hi, gs, gk, ws, wk)
			}
		}

		// Chunked sweep with a checked set that grows between chunks: after
		// each chunk, mark a random half of its groups (and some random other
		// groups — segments ahead of the sweep going fully clean) as checked.
		// Skip and scan must agree chunk by chunk, and the union over chunks
		// must equal the full-range scan at the same checked sequence.
		advChecked := new(posSet)
		var unionSkip, unionScan []int
		for lo := 0; lo < rows; {
			hi := lo + 1 + rng.Intn(2*ptable.SegmentSize)
			if hi > rows {
				hi = rows
			}
			gs, gk := ix.violatingScopeIn(lo, hi, advChecked)
			ws, wk := ix.violatingScopeScanIn(lo, hi, advChecked)
			if !sameScope(gs, gk, ws, wk) {
				t.Fatalf("trial %d adversarial [%d,%d): skip %v/%v != scan %v/%v", trial, lo, hi, gs, gk, ws, wk)
			}
			unionSkip = append(unionSkip, gs...)
			unionScan = append(unionScan, ws...)
			for _, a := range gk {
				if rng.Intn(2) == 0 {
					advChecked.add(a)
				}
			}
			for _, a := range groupOrder(ix) {
				if rng.Intn(8) == 0 {
					advChecked.add(a)
				}
			}
			lo = hi
		}
		if !reflect.DeepEqual(unionSkip, unionScan) {
			t.Fatalf("trial %d: chunk unions diverge", trial)
		}

		gs, gk := ix.violatingScopeIn(0, rows, checked)
		ws, wk := ix.violatingScopeScanIn(0, rows, checked)
		if !sameScope(gs, gk, ws, wk) {
			t.Fatalf("trial %d full range: skip %v/%v != scan %v/%v", trial, gs, gk, ws, wk)
		}
		// And against the group-order full scope the inline full clean once
		// collected: the same rows in the same order.
		var full []int
		for _, a := range groupOrder(ix) {
			if g := ix.groups[int32(a)]; g.violating() && !checked.has(a) {
				full = append(full, g.members...)
			}
		}
		if !reflect.DeepEqual(gs, full) {
			t.Fatalf("trial %d: violatingScopeIn(0, n) %v != group-order scope %v", trial, gs, full)
		}
	}
}

// TestSegmentSkipSweepConvergesByteIdentical is the adversarial end-to-end
// case: after the switch flips, the sweep is canceled and incremental
// queries clean every remaining group first — so by the time
// CleanInBackground restarts it, whole segments have transitioned
// dirty→clean while their anchor counters (which track violations, not
// checked state) stay nonzero. The restarted sweep must walk every row
// finding nothing to do and the quiesced state must be byte-identical to
// the pure-incremental reference. Run under -race in CI.
func TestSegmentSkipSweepConvergesByteIdentical(t *testing.T) {
	ref := newSweepSession(t, Options{Strategy: StrategyIncremental, DisableStatsPruning: true}, sweepGroups, sweepDirtyGroups)
	defer ref.Close()
	if _, err := ref.Query("SELECT orderkey, suppkey FROM lineorder WHERE orderkey >= 0"); err != nil {
		t.Fatal(err)
	}
	want := ref.Table("lineorder").Fingerprint()

	s := newSweepSession(t, sweepOpts(), sweepGroups, sweepDirtyGroups)
	defer s.Close()
	queries := sweepQueries(sweepGroups, sweepRangeGroups)
	flip, strategy, _ := runUntilFlip(t, s, queries)
	if flip < 0 || strategy != "background" {
		t.Fatalf("workload did not flip to background (flip=%d strategy=%q)", flip, strategy)
	}
	// Stop the sweep (fast chunks may already have run, or all of it) and
	// clean everything it would have swept through the incremental path.
	cancelSweep(t, s)
	for _, q := range queries {
		rows, err := s.QueryContext(context.Background(), q, WithStrategy(StrategyIncremental))
		if err != nil {
			t.Fatal(err)
		}
		rows.Close()
	}
	if !s.CleanInBackground("lineorder", "phi") {
		t.Fatal("CleanInBackground refused to restart the sweep")
	}
	if err := s.WaitCleaning(context.Background()); err != nil {
		t.Fatal(err)
	}
	job := lastSweep(t, s)
	if job.State != CleaningDone {
		t.Fatalf("job state = %v, want done", job.State)
	}
	if job.RowsDone != job.RowsTotal {
		t.Errorf("job rows = %d/%d, want full sweep", job.RowsDone, job.RowsTotal)
	}
	if got := s.Table("lineorder").Fingerprint(); got != want {
		t.Error("segment-skip sweep state differs from incremental reference bytes")
	}
	// Post-quiesce queries skip outright.
	res, err := s.Query(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Decisions {
		if d.Strategy != "skip" {
			t.Errorf("post-quiesce decision = %q, want skip", d.Strategy)
		}
	}
}
