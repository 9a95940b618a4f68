package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"daisy/internal/dc"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/value"
)

// pollCountCtx is a context whose Err starts returning context.Canceled
// after a fixed number of polls. The cooperative cancellation path checks
// ctx.Err() at every operator boundary and hot-loop stride, so sweeping the
// poll budget cancels a query deterministically at every point of the clean
// pipeline — no sleeps, no scheduler luck.
type pollCountCtx struct {
	context.Context
	remaining atomic.Int64
}

func cancelAfterPolls(n int64) *pollCountCtx {
	c := &pollCountCtx{Context: context.Background()}
	c.remaining.Store(n)
	return c
}

func (c *pollCountCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelMidCleanPublishesNothing sweeps the cancellation point across
// the whole clean pipeline: at every poll budget the canceled query must
// return an error wrapping context.Canceled, leave the published epoch
// fingerprint byte-identical to the pre-query state, and leave the session
// fully usable — the follow-up query cleans everything the canceled one
// abandoned.
func TestCancelMidCleanPublishesNothing(t *testing.T) {
	query := "SELECT orderkey, suppkey FROM lineorder WHERE orderkey >= 0"
	for _, strategy := range []Strategy{StrategyIncremental, StrategyFull} {
		s := newStressSession(t, Options{Strategy: strategy})
		before := s.Table("lineorder").Fingerprint()
		epoch := s.Epoch()

		completed := false
		for polls := int64(0); polls < 200; polls++ {
			rows, err := s.QueryContext(cancelAfterPolls(polls), query)
			if err == nil {
				// The budget outlived the whole query: nothing left to cancel.
				rows.Close()
				completed = true
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("strategy %v polls %d: err = %v, want wrapped context.Canceled", strategy, polls, err)
			}
			if got := s.Table("lineorder").Fingerprint(); got != before {
				t.Fatalf("strategy %v polls %d: canceled query changed the published state", strategy, polls)
			}
			if s.Epoch() != epoch {
				t.Fatalf("strategy %v polls %d: canceled query published an epoch (%d -> %d)", strategy, polls, epoch, s.Epoch())
			}
		}
		if !completed {
			t.Fatalf("strategy %v: query still canceled after 200 polls — poll budget sweep never completed", strategy)
		}

		// The session is intact: a fresh query cleans normally.
		res, err := s.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows.Len() == 0 {
			t.Fatal("follow-up query returned no rows")
		}
		if s.Table("lineorder").Fingerprint() == before {
			t.Error("follow-up query must clean the work the canceled queries abandoned")
		}
		s.Close()
	}
}

// TestCancelMidCleanDC exercises the cancellable theta-join path: a general
// DC query canceled mid-detection publishes nothing (no fixes, no checked
// tuples), and later queries still clean.
func TestCancelMidCleanDC(t *testing.T) {
	s := newDCSession(t)
	defer s.Close()
	before := s.Table("emp").Fingerprint()
	query := "SELECT salary, tax FROM emp WHERE salary >= 0"

	completed := false
	// The theta-join polls once per task and outer row, so the full pipeline
	// needs a few hundred polls; sweep a prime stride to scatter the
	// cancellation points while keeping the test fast.
	for polls := int64(0); polls < 3000; polls += 3 {
		rows, err := s.QueryContext(cancelAfterPolls(polls), query)
		if err == nil {
			rows.Close()
			completed = true
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("polls %d: err = %v, want wrapped context.Canceled", polls, err)
		}
		if got := s.Table("emp").Fingerprint(); got != before {
			t.Fatalf("polls %d: canceled DC query changed the published state", polls)
		}
	}
	if !completed {
		t.Fatal("DC query still canceled after 3000 polls")
	}
	// Cancellations leave the DC tuples unchecked: a plain query still
	// completes and cleans them.
	if _, err := s.Query(query); err != nil {
		t.Fatal(err)
	}
	if s.Table("emp").Fingerprint() == before {
		t.Error("follow-up DC query must clean normally after cancellations")
	}
}

func newDCSession(t *testing.T) *Session {
	t.Helper()
	sch := schema.MustNew(
		schema.Column{Name: "salary", Kind: value.Float},
		schema.Column{Name: "tax", Kind: value.Float},
	)
	tb := table.New("emp", sch)
	for i := 0; i < 80; i++ {
		tax := 0.1 + float64(i)*0.01
		if i%6 == 0 {
			tax = 0.95 - tax
		}
		tb.MustAppend(table.Row{value.NewFloat(float64(1000 + i*40)), value.NewFloat(tax)})
	}
	s := NewSession(Options{Strategy: StrategyIncremental})
	if err := s.Register(tb); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(dc.MustParse("psi@emp: !(t1.salary<t2.salary & t1.tax>t2.tax)")); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCancelRace runs racing queries under -race: a mix of canceled and
// uncanceled callers over one session must converge to the same fingerprint
// as a sequential run — canceled queries contribute nothing, completed ones
// everything.
func TestCancelRace(t *testing.T) {
	queries := stressQueries(16)

	seq := newStressSession(t, Options{Strategy: StrategyIncremental})
	defer seq.Close()
	for _, q := range queries {
		if _, err := seq.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	want := seq.Table("lineorder").Fingerprint()

	conc := newStressSession(t, Options{Strategy: StrategyIncremental})
	defer conc.Close()
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, q := range queries {
				if (i+g)%3 == 0 {
					// Canceled run: budget varies per (goroutine, query) so
					// cancellation lands at scattered pipeline points.
					ctx := cancelAfterPolls(int64((i*7 + g*3) % 40))
					rows, err := conc.QueryContext(ctx, q)
					if err == nil {
						rows.Close()
					} else if !errors.Is(err, context.Canceled) {
						errCh <- fmt.Errorf("goroutine %d query %d: %v", g, i, err)
						return
					}
				}
				if _, err := conc.Query(q); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Converge with the covering query and compare.
	if _, err := conc.Query(queries[len(queries)-1]); err != nil {
		t.Fatal(err)
	}
	if got := conc.Table("lineorder").Fingerprint(); got != want {
		t.Fatalf("converged state with interleaved cancellations differs from sequential state\ngot:\n%.2000s\nwant:\n%.2000s", got, want)
	}
}

// TestQueryContextTimeout: an already-expired WithTimeout aborts before any
// work and surfaces context.DeadlineExceeded.
func TestQueryContextTimeout(t *testing.T) {
	s := newCitySession(t, Options{Strategy: StrategyIncremental})
	defer s.Close()
	_, err := s.QueryContext(context.Background(), "SELECT zip, city FROM cities", WithTimeout(-time.Second))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if s.Table("cities").DirtyTuples() != 0 {
		t.Error("timed-out query must not publish repairs")
	}
}
