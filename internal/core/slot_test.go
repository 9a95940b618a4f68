package core

import (
	"context"
	"testing"
	"time"
)

// waitIdle asserts the inflight gauge returns to zero: every query and stream
// has released. Release on abandoned streams rides context.AfterFunc, which
// runs on its own goroutine after cancel — so the check is retried briefly
// before declaring a leak.
func waitIdle(t *testing.T, s *Session) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := s.instr.inflight.Value()
		if got == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("inflight gauge leaked: %d queries still counted", got)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamingReleasesConcurrencySlot pins the release contract: a
// streaming query counts in the inflight gauge until the Rows cursor is done,
// and EVERY way a stream ends — Close, a context canceled mid-stream, or an
// abandoned cursor whose context fires with no Close ever called — releases
// it. 100 canceled streams (half abandoned without Close) must leak nothing
// and publish nothing.
func TestStreamingReleasesConcurrencySlot(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyIncremental})
	defer s.Close()

	// Settle the state first so canceled runs can't race a commit.
	if _, err := s.Query("SELECT zip, city FROM cities"); err != nil {
		t.Fatal(err)
	}
	epoch := s.Epoch()

	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := s.QueryContext(ctx, "SELECT zip, city FROM cities")
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		rows.Next() // start streaming, then abort mid-result
		cancel()
		if i%2 == 0 {
			// Close path: the caller cleans up properly.
			rows.Close()
		}
		// Odd iterations abandon the cursor entirely: no Close, no further
		// Next — only the canceled context can release the query.
		_ = rows
	}

	waitIdle(t, s)
	if s.Epoch() != epoch {
		t.Fatalf("canceled streams moved the epoch %d -> %d; aborted queries must publish nothing", epoch, s.Epoch())
	}

	// Open streams count until they close.
	r1, err := s.QueryContext(context.Background(), "SELECT zip, city FROM cities")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.QueryContext(context.Background(), "SELECT zip, city FROM cities")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.instr.inflight.Value(); got != 2 {
		t.Fatalf("inflight gauge = %d with two open streams, want 2", got)
	}
	r1.Close()
	r2.Close()
	waitIdle(t, s)
}

// TestNextAfterCtxErrorReleasesSlot covers the third release path: the caller
// keeps the cursor, never cancels explicitly, but a deadline fires and a
// subsequent Next observes it.
func TestNextAfterCtxErrorReleasesSlot(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyIncremental})
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := s.QueryContext(ctx, "SELECT zip, city FROM cities")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("want at least one row before cancellation")
	}
	cancel()
	if rows.Next() {
		t.Fatal("Next must observe the canceled context")
	}
	if rows.Err() == nil {
		t.Fatal("Err must report the cancellation")
	}
	waitIdle(t, s)
}

// TestExplainReleasesSlot pins the WithExplain fast path: an explain-only
// Rows carries no frame but still counts as in flight until Close.
func TestExplainReleasesSlot(t *testing.T) {
	s := newCitySession(t, Options{})
	defer s.Close()
	rows, err := s.QueryContext(context.Background(), "SELECT zip, city FROM cities", WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	if rows.Plan() == "" {
		t.Fatal("explain must return a plan")
	}
	rows.Close()
	waitIdle(t, s)
}
