package core

import (
	"context"
	"testing"
)

// TestRowsAllEnumeratesEverything pins the iter.Seq2 adapter against the
// Next/Row contract: All yields every result tuple exactly once with dense
// indices, and a drained cursor reports no error.
func TestRowsAllEnumeratesEverything(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyIncremental})
	defer s.Close()

	rows, err := s.QueryContext(context.Background(), "SELECT zip, city FROM cities")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()

	want := rows.Len()
	next := 0
	for i, tup := range rows.All() {
		if i != next {
			t.Fatalf("index %d, want %d (All must yield dense indices)", i, next)
		}
		if tup == nil {
			t.Fatalf("nil tuple at index %d", i)
		}
		next++
	}
	if next != want {
		t.Fatalf("All yielded %d tuples, want %d", next, want)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("drained cursor reports error: %v", err)
	}
}

// TestRowsAllEarlyBreakReleasesSlot is the release pin for the All path —
// Close and Next have their own pins, this covers range-over-func: breaking
// out of the loop early and closing the cursor must release the query from
// the inflight gauge, and the broken-out cursor must still be resumable
// before Close.
func TestRowsAllEarlyBreakReleasesSlot(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyIncremental})
	defer s.Close()

	rows, err := s.QueryContext(context.Background(), "SELECT zip, city FROM cities")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for range rows.All() {
		seen++
		break
	}
	if seen != 1 {
		t.Fatalf("saw %d tuples before break, want 1", seen)
	}
	// Breaking out only pauses enumeration: a second range resumes where the
	// first stopped instead of restarting.
	resumed := 0
	for range rows.All() {
		resumed++
	}
	if seen+resumed != rows.Len() {
		t.Fatalf("resumed range saw %d tuples after %d, want %d total", resumed, seen, rows.Len())
	}
	if got := s.instr.inflight.Value(); got != 1 {
		t.Fatalf("inflight gauge = %d before Close, want 1", got)
	}
	rows.Close()
	waitIdle(t, s)
}

// TestRowsAllCancelMidIteration pins the third release path under All: a
// context canceled mid-range stops the loop through Next's guard, surfaces
// on Err, and releases the query without the caller ever calling Close.
func TestRowsAllCancelMidIteration(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyIncremental})
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := s.QueryContext(ctx, "SELECT zip, city FROM cities")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for range rows.All() {
		seen++
		cancel() // the next Next observes the dead context and releases the query
	}
	if seen == 0 || seen == rows.Len() {
		t.Fatalf("saw %d of %d tuples, want a mid-stream stop", seen, rows.Len())
	}
	if rows.Err() == nil {
		t.Fatal("Err must report the cancellation that stopped All")
	}
	waitIdle(t, s)
}
