package daisy

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func sessionWithCities(t *testing.T) *Session {
	t.Helper()
	tb, err := NewTable("cities",
		Column{Name: "zip", Kind: Int(0).Kind()},
		Column{Name: "city", Kind: Str("").Kind()},
	)
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{Int(9001), Str("Los Angeles")},
		{Int(9001), Str("San Francisco")},
		{Int(9001), Str("Los Angeles")},
		{Int(10001), Str("San Francisco")},
		{Int(10001), Str("New York")},
	}
	for _, r := range rows {
		if err := tb.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Options{})
	if err := s.Register(tb); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(MustRule("phi@cities: !(t1.zip=t2.zip & t1.city!=t2.city)")); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	s := sessionWithCities(t)
	res, err := s.Query("SELECT zip, city FROM cities WHERE city = 'Los Angeles'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 3 {
		t.Fatalf("rows = %d, want 3 (relaxed result)", res.Rows.Len())
	}
	if !strings.Contains(res.Plan, "Clean[phi]") {
		t.Errorf("plan must show the cleaning operator: %s", res.Plan)
	}
	// The dataset is now partially probabilistic.
	pt := s.Table("cities")
	if pt.DirtyTuples() == 0 {
		t.Error("cleaning must have produced probabilistic tuples")
	}
}

func TestReadCSVPublic(t *testing.T) {
	tb, err := ReadCSV("t", strings.NewReader("a,b\n1,x\n2,y\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("rows = %d", tb.Len())
	}
}

func TestFDHelper(t *testing.T) {
	r := FD("phi", "cities", "city", "zip")
	if !r.IsFD() {
		t.Error("FD helper must build an FD")
	}
	if _, err := ParseRule("bogus"); err == nil {
		t.Error("ParseRule must propagate errors")
	}
}

// TestQueryContextStreaming: the streaming cursor enumerates exactly the
// tuples Query materializes, in the same order, and the All() iterator
// matches Next/Row.
func TestQueryContextStreaming(t *testing.T) {
	q := "SELECT zip, city FROM cities WHERE city = 'Los Angeles'"

	mat := sessionWithCities(t)
	defer mat.Close()
	res, err := mat.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	str := sessionWithCities(t)
	defer str.Close()
	rows, err := str.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if rows.Len() != res.Rows.Len() {
		t.Fatalf("streaming Len = %d, materialized = %d", rows.Len(), res.Rows.Len())
	}
	if rows.Plan() != res.Plan {
		t.Errorf("plan mismatch: %q vs %q", rows.Plan(), res.Plan)
	}
	// The projected row's contract: its ID is the result index, its cells
	// equal Result()'s row, and Row called twice before the next Next gives
	// the same content.
	i := 0
	for rows.Next() {
		tup := rows.Row()
		want := res.Rows.At(i)
		if tup.ID != int64(i) {
			t.Errorf("row %d: ID %d, want the result index", i, tup.ID)
		}
		if len(tup.Cells) != len(want.Cells) {
			t.Fatalf("row %d: cell count %d != %d", i, len(tup.Cells), len(want.Cells))
		}
		first := make([]string, len(tup.Cells))
		for c := range tup.Cells {
			first[c] = tup.Cells[c].String()
			if first[c] != want.Cells[c].String() {
				t.Errorf("row %d cell %d: %s != %s", i, c, first[c], want.Cells[c].String())
			}
		}
		again := rows.Row()
		if again.ID != int64(i) || len(again.Cells) != len(first) {
			t.Fatalf("row %d: second Row() gives ID %d with %d cells", i, again.ID, len(again.Cells))
		}
		for c := range again.Cells {
			if again.Cells[c].String() != first[c] {
				t.Errorf("row %d cell %d: second Row() gives %s, first %s", i, c, again.Cells[c].String(), first[c])
			}
		}
		i++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if i != res.Rows.Len() {
		t.Fatalf("enumerated %d rows, want %d", i, res.Rows.Len())
	}

	// All() over a fresh session yields the same sequence.
	it := sessionWithCities(t)
	defer it.Close()
	rows2, err := it.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for idx, tup := range rows2.All() {
		if idx != n {
			t.Fatalf("All index %d, want %d", idx, n)
		}
		if tup.Cells[0].String() != res.Rows.At(idx).Cells[0].String() {
			t.Errorf("All row %d differs", idx)
		}
		n++
	}
	if n != res.Rows.Len() {
		t.Fatalf("All yielded %d rows, want %d", n, res.Rows.Len())
	}
	rows2.Close()
}

// TestTypedErrors pins the public error model: ErrSessionClosed,
// ErrUnknownTable, *ParseError with position, and wrapped context errors.
func TestTypedErrors(t *testing.T) {
	s := sessionWithCities(t)

	if _, err := s.Query("SELECT zip FROM ghost"); !errors.Is(err, ErrUnknownTable) {
		t.Errorf("unknown table err = %v, want ErrUnknownTable", err)
	}

	_, err := s.Query("SELECT zip FROM cities WHERE zip ~ 3")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("parse err = %v, want *ParseError", err)
	}
	if pe.Pos != strings.Index("SELECT zip FROM cities WHERE zip ~ 3", "~") {
		t.Errorf("ParseError.Pos = %d, want offset of %q", pe.Pos, "~")
	}

	if _, err := s.QueryContext(context.Background(), "SELECT zip FROM cities",
		WithTimeout(-time.Nanosecond)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired timeout err = %v, want DeadlineExceeded", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.QueryContext(ctx, "SELECT zip FROM cities"); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx err = %v, want Canceled", err)
	}

	s.Close()
	s.Close() // idempotent
	if _, err := s.Query("SELECT zip FROM cities"); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("closed session err = %v, want ErrSessionClosed", err)
	}
}

// TestQueryOptions smoke-tests the per-query knobs through the facade.
func TestQueryOptions(t *testing.T) {
	s := sessionWithCities(t)
	defer s.Close()

	// Explain: plan only, no execution, no cleaning.
	rows, err := s.QueryContext(context.Background(),
		"SELECT zip, city FROM cities WHERE city = 'Los Angeles'", WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rows.Plan(), "Clean[phi]") {
		t.Errorf("explain plan = %q, want cleaning operator", rows.Plan())
	}
	if rows.Len() != 0 || rows.Next() {
		t.Error("explain must enumerate nothing")
	}
	rows.Close()
	if s.Table("cities").DirtyTuples() != 0 {
		t.Error("explain must not clean")
	}

	// WithoutCleaning: dirty execution, exact matches only.
	rows, err = s.QueryContext(context.Background(),
		"SELECT zip, city FROM cities WHERE city = 'Los Angeles'", WithoutCleaning())
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Errorf("dirty rows = %d, want 2 (no relaxation)", rows.Len())
	}
	rows.Close()
	if s.Table("cities").DirtyTuples() != 0 {
		t.Error("WithoutCleaning must not clean")
	}

	// Per-query strategy + workers: cleaning proceeds as usual.
	rows, err = s.QueryContext(context.Background(),
		"SELECT zip, city FROM cities WHERE city = 'Los Angeles'",
		WithStrategy(StrategyIncremental), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 {
		t.Errorf("cleaned rows = %d, want 3 (relaxed result)", rows.Len())
	}
	rows.Close()
	if s.Table("cities").DirtyTuples() == 0 {
		t.Error("per-query options must still clean")
	}
}

// TestConcurrentPublicAPI drives the facade from many goroutines: the
// public contract is that Query needs no external locking and the dataset
// converges regardless of interleaving.
func TestConcurrentPublicAPI(t *testing.T) {
	tb, err := NewTable("cities",
		Column{Name: "zip", Kind: Int(0).Kind()},
		Column{Name: "city", Kind: Str("").Kind()},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		city := Str("City-" + string(rune('A'+i%7)))
		if i%9 == 0 {
			city = Str("City-typo")
		}
		tb.MustAppend(Row{Int(int64(i % 60)), city})
	}
	s := New(Options{Strategy: StrategyIncremental})
	defer s.Close()
	if err := s.Register(tb); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(FD("phi", "cities", "city", "zip")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				lo := ((g + i) * 11) % 50
				q := fmt.Sprintf("SELECT zip, city FROM cities WHERE zip >= %d AND zip <= %d", lo, lo+9)
				if _, err := s.Query(q); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if _, err := s.Query("SELECT zip, city FROM cities WHERE zip >= 0"); err != nil {
		t.Fatal(err)
	}
	if s.Table("cities").DirtyTuples() == 0 {
		t.Error("concurrent workload must still clean the dataset")
	}
}

// TestBackgroundCleaningPublicAPI drives the async §5.2.3 switch through the
// facade: a point-query workload over a modestly dirty table flips the cost
// model, the triggering query reports strategy "background", and
// WaitCleaning + CleaningStatus observe the sweep to completion.
func TestBackgroundCleaningPublicAPI(t *testing.T) {
	tb, err := NewTable("orders",
		Column{Name: "orderkey", Kind: Int(0).Kind()},
		Column{Name: "suppkey", Kind: Int(0).Kind()},
	)
	if err != nil {
		t.Fatal(err)
	}
	const groups = 400
	for g := 0; g < groups; g++ {
		for r := 0; r < 4; r++ {
			supp := int64(1000 + g)
			if g%5 == 0 && r == 3 {
				supp = int64(1000 + groups + g)
			}
			if err := tb.Append(Row{Int(int64(g)), Int(supp)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := New(Options{Strategy: StrategyAuto, DisableStatsPruning: true})
	defer s.Close()
	if err := s.Register(tb); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(FD("phi", "orders", "suppkey", "orderkey")); err != nil {
		t.Fatal(err)
	}
	sawBackground := false
	for lo := 0; lo < groups && !sawBackground; lo += 40 {
		res, err := s.Query(fmt.Sprintf(
			"SELECT orderkey, suppkey FROM orders WHERE orderkey >= %d AND orderkey < %d", lo, lo+40))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Decisions {
			if d.Strategy == "background" {
				sawBackground = true
			}
		}
	}
	if !sawBackground {
		t.Fatal("workload never flipped to a background clean")
	}
	if err := s.WaitCleaning(context.Background()); err != nil {
		t.Fatal(err)
	}
	jobs := s.CleaningStatus()
	if len(jobs) == 0 {
		t.Fatal("CleaningStatus reported no jobs")
	}
	var job CleaningJob = jobs[0]
	if job.State != CleaningDone {
		t.Fatalf("job state = %v, want done", job.State)
	}
	if job.RowsDone != job.RowsTotal || job.GroupsCleaned == 0 {
		t.Errorf("job progress = %d/%d rows, %d groups", job.RowsDone, job.RowsTotal, job.GroupsCleaned)
	}
	// Quiesced: every violating group is checked, so re-running the first
	// range finds nothing to clean.
	res, err := s.Query("SELECT orderkey, suppkey FROM orders WHERE orderkey >= 0 AND orderkey < 40")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Decisions {
		if d.Strategy != "skip" {
			t.Errorf("post-quiesce decision = %q, want skip", d.Strategy)
		}
	}
}

func TestDurableSessionPublicAPI(t *testing.T) {
	dir := t.TempDir()
	tb, err := NewTable("cities",
		Column{Name: "zip", Kind: Int(0).Kind()},
		Column{Name: "city", Kind: Str("").Kind()},
	)
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{Int(9001), Str("Los Angeles")},
		{Int(9001), Str("San Francisco")},
		{Int(9001), Str("Los Angeles")},
		{Int(10001), Str("New York")},
		{Int(10001), Str("New York")},
	}
	for _, r := range rows {
		if err := tb.Append(r); err != nil {
			t.Fatal(err)
		}
	}

	s, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(tb); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(MustRule("phi@cities: !(t1.zip=t2.zip & t1.city!=t2.city)")); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("SELECT zip, city FROM cities WHERE zip = 9001")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 3 {
		t.Fatalf("rows = %d, want 3", res.Rows.Len())
	}
	if err := s.DurabilityError(); err != nil {
		t.Fatalf("durability degraded: %v", err)
	}
	s.Close()

	// Reopen: the probabilistic repair state, the rule, and the checked-set
	// bookkeeping must all come back from the journal.
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pt := r.Table("cities")
	if pt == nil {
		t.Fatal("reopened session lost the cities table")
	}
	if pt.DirtyTuples() == 0 {
		t.Error("reopened session lost the probabilistic repair state")
	}
	if got := len(r.Rules()); got != 1 {
		t.Fatalf("reopened session has %d rules, want 1", got)
	}
	res, err = r.Query("SELECT zip, city FROM cities WHERE zip = 9001")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Decisions {
		if d.Strategy != "skip" {
			t.Errorf("reopened decision = %q, want skip (checked set recovered)", d.Strategy)
		}
	}
	// Fresh work on the recovered session journals and cleans normally.
	if _, err := r.Query("SELECT zip, city FROM cities WHERE zip = 10001"); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Open with no Dir is New with an error return.
	mem, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem.Close()
}
