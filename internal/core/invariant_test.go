package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/ptable"
	"daisy/internal/repair"
	"daisy/internal/table"
	"daisy/internal/thetajoin"
	"daisy/internal/value"
	"daisy/internal/workload"
)

// watchOriginals asserts, at every epoch s publishes from now on, that each
// watched relation's original values equal the table it was registered from.
func watchOriginals(t *testing.T, s *Session, registered ...*table.Table) {
	t.Helper()
	want := make(map[string]*table.Table, len(registered))
	for _, tb := range registered {
		want[tb.Name] = tb.Clone()
	}
	s.w.mu.Lock()
	defer s.w.mu.Unlock()
	s.w.onPublish = func(_ uint64, snap *snapshot) { checkOriginals(t, snap, want) }
}

func checkOriginals(t *testing.T, snap *snapshot, want map[string]*table.Table) {
	for name, tb := range want {
		st, ok := snap.tables[name]
		if !ok {
			continue // not registered yet at this epoch
		}
		if got := st.pt.Originals(); !reflect.DeepEqual(got.Rows, tb.Rows) {
			t.Errorf("epoch %d: original values of %s differ from the registered table", snap.epoch, name)
		}
	}
}

// assertIndexesRebuild checks the final epoch of a workload: it cleaned
// something, and every index the session shares equals a fresh build over the
// epoch's relation — wantFD FD indexes and wantDC DC indexes in all.
func assertIndexesRebuild(t *testing.T, s *Session, wantFD, wantDC int) {
	t.Helper()
	snap := s.w.current()
	byName := make(map[string]*dc.Constraint, len(snap.rules))
	for _, c := range snap.rules {
		byName[c.Name] = c
	}
	fds, dcs := 0, 0
	for name, st := range snap.tables {
		if st.pt.DirtyTuples() == 0 {
			t.Errorf("%s: the workload cleaned nothing", name)
		}
		fdIdx, dcIdx := st.reg.built()
		for rule, ix := range fdIdx {
			fd, _ := byName[rule].AsFD()
			if !reflect.DeepEqual(newFDIndex(st.pt, fd), ix) {
				t.Errorf("%s/%s: shared FD index differs from a fresh build at epoch %d", name, rule, snap.epoch)
			}
			fds++
		}
		for rule, e := range dcIdx {
			view := detect.NewPTableView(st.pt)
			fresh := thetajoin.NewIndex(view, byName[rule])
			if !reflect.DeepEqual(fresh, e.ix) {
				t.Errorf("%s/%s: shared DC index differs from a fresh build at epoch %d", name, rule, snap.epoch)
			}
			if !reflect.DeepEqual(fresh.EstimateErrors(view, thetajoin.Partitions), e.est) {
				t.Errorf("%s/%s: shared range estimates differ from a fresh build at epoch %d", name, rule, snap.epoch)
			}
			dcs++
		}
	}
	if fds != wantFD || dcs != wantDC {
		t.Errorf("compared %d FD and %d DC indexes, want %d and %d", fds, dcs, wantFD, wantDC)
	}
}

func setupSession(t *testing.T, s *Session, tb *table.Table, rules ...*dc.Constraint) {
	t.Helper()
	if err := s.Register(tb.Clone()); err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if err := s.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
}

func runQueries(t *testing.T, s *Session, queries []string) {
	t.Helper()
	for _, q := range queries {
		if _, err := s.Query(q); err != nil {
			t.Fatal(err)
		}
	}
}

// dcLineorder is a seeded lineorder with both FD errors and DC outliers, the
// rules over it, and a query mix that fires both rules.
func dcLineorder(seed int64) (*table.Table, []*dc.Constraint, []string) {
	lo := workload.Lineorder(workload.SSBConfig{Rows: 300, DistinctOrders: 60, DistinctSupps: 12, Seed: seed})
	workload.InjectFDErrors(lo, "orderkey", "suppkey", 0.5, 0.2, seed+1)
	workload.InjectDCOutliers(lo, "extended_price", "discount", 0.04, seed+2)
	rules := []*dc.Constraint{
		dc.FD("phi", "lineorder", "suppkey", "orderkey"),
		dc.MustParse("psi@lineorder: !(t1.extended_price<t2.extended_price & t1.discount>t2.discount)"),
	}
	queries := workload.FloatRangeQueries(lo, "extended_price", 6, "orderkey, suppkey, extended_price, discount", seed+3)
	return lo, rules, queries
}

// TestDerivedStateIsFunctionOfOriginals: the FD and DC indexes are built once
// per registration and never written afterwards. That is sound only because
// every derived structure is a function of the original (provenance) values
// and cleaning never rewrites those (§4.3). The test pins both halves on
// every path that writes cells: incremental and forced-full FD cleaning, a
// background sweep, DC range fixes, WAL replay and checkpoint decode.
func TestDerivedStateIsFunctionOfOriginals(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		lo := workload.Lineorder(workload.SSBConfig{Rows: 400, DistinctOrders: 80, DistinctSupps: 16, Seed: seed})
		workload.InjectFDErrors(lo, "orderkey", "suppkey", 0.5, 0.2, seed+1)
		rule := dc.FD("phi", "lineorder", "suppkey", "orderkey")
		queries := append(workload.RangeQueries(lo, "orderkey", 6, "orderkey, suppkey", seed+2),
			workload.MixedQueries(lo, "suppkey", 6, "orderkey, suppkey", seed+3)...)
		for _, strategy := range []Strategy{StrategyIncremental, StrategyFull} {
			t.Run(fmt.Sprintf("fd-%s/seed%d", strategyName(strategy), seed), func(t *testing.T) {
				s := NewSession(Options{Strategy: strategy})
				defer s.Close()
				watchOriginals(t, s, lo)
				setupSession(t, s, lo, rule)
				runQueries(t, s, queries)
				assertIndexesRebuild(t, s, 1, 0)
			})
		}

		t.Run(fmt.Sprintf("dc/seed%d", seed), func(t *testing.T) {
			tb, rules, queries := dcLineorder(seed)
			s := NewSession(Options{Strategy: StrategyIncremental, Workers: 2})
			defer s.Close()
			watchOriginals(t, s, tb)
			setupSession(t, s, tb, rules...)
			runQueries(t, s, queries)
			assertIndexesRebuild(t, s, 1, 1)
		})
	}

	t.Run("sweep", func(t *testing.T) {
		tb := sweepTable(sweepGroups, sweepDirtyGroups)
		s := NewSession(sweepOpts())
		defer s.Close()
		watchOriginals(t, s, tb)
		setupSession(t, s, tb, sweepRule())
		queries := sweepQueries(sweepGroups, sweepRangeGroups)
		if flip, strategy, _ := runUntilFlip(t, s, queries); flip < 0 || strategy != "background" {
			t.Fatalf("no background flip (flip=%d strategy=%q)", flip, strategy)
		}
		if err := s.WaitCleaning(context.Background()); err != nil {
			t.Fatal(err)
		}
		runQueries(t, s, queries)
		assertIndexesRebuild(t, s, 1, 0)
	})

	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		tb, rules, queries := dcLineorder(4)
		s, err := Open(durableOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		watchOriginals(t, s, tb)
		setupSession(t, s, tb, rules...)
		half := len(queries) / 2
		runQueries(t, s, queries[:half])
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		runQueries(t, s, queries[half:])
		s.Close()

		// Reopen: checkpoint decode plus WAL replay rebuild the state; replay
		// publishes no epochs, so check the recovered one directly.
		s2, err := Open(durableOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		checkOriginals(t, s2.w.current(), map[string]*table.Table{tb.Name: tb})
		watchOriginals(t, s2, tb)
		runQueries(t, s2, queries)
		assertIndexesRebuild(t, s2, 1, 1)
	})
}

// watchRecompute asserts, at every epoch s publishes from now on, that each
// relation's cleaned state is the one recompute derives from its original
// values, the rules and the epoch's checked sets alone, and that every tuple's
// ID is still its position.
func watchRecompute(t *testing.T, s *Session) {
	t.Helper()
	s.w.mu.Lock()
	defer s.w.mu.Unlock()
	s.w.onPublish = func(_ uint64, snap *snapshot) { checkRecompute(t, snap) }
}

func checkRecompute(t *testing.T, snap *snapshot) {
	for name, st := range snap.tables {
		for pos, tup := range st.pt.Rows() {
			if tup.ID != int64(pos) {
				t.Errorf("epoch %d: %s tuple at position %d has ID %d", snap.epoch, name, pos, tup.ID)
				break
			}
		}
		if got, want := st.pt.Fingerprint(), recompute(snap.rules, st).Fingerprint(); got != want {
			t.Errorf("epoch %d: %s differs from its recomputation from the checked sets:\n%s\nvs\n%s",
				snap.epoch, name, got, want)
		}
	}
}

// recompute rebuilds a relation's cleaned state from scratch: the registered
// image, then per rule the fixes its checked set implies — for an FD, the
// group index's repair of every member of every checked group; for a general
// DC, the range fixes of every violating pair with at least one checked
// tuple, enumerated by a nested loop over original values.
func recompute(rules []*dc.Constraint, st *tableState) *ptable.PTable {
	image := ptable.FromTable(st.pt.Originals())
	view := detect.NewPTableView(image)
	for _, rule := range rules {
		checked := st.checked[rule.Name]
		if checked.len() == 0 {
			continue
		}
		if fd, ok := rule.AsFD(); ok {
			ix := newFDIndex(image, fd)
			var rows []int
			for a := range checked.all() {
				rows = append(rows, ix.members(a)...)
			}
			sort.Ints(rows)
			image.Apply(ix.repair(view, rows, fd, nil))
			continue
		}
		var pairs []thetajoin.Pair
		violates := func(i, j int) bool {
			return rule.Violates(func(tuple int, col string) value.Value {
				if tuple == 1 {
					return view.Value(i, col)
				}
				return view.Value(j, col)
			})
		}
		for i := 0; i < view.Len(); i++ {
			for j := i + 1; j < view.Len(); j++ {
				if !checked.has(i) && !checked.has(j) {
					continue
				}
				if violates(i, j) {
					pairs = append(pairs, thetajoin.Pair{T1: i, T2: j})
				} else if violates(j, i) {
					pairs = append(pairs, thetajoin.Pair{T1: j, T2: i})
				}
			}
		}
		image.Apply(repair.DCFixes(view, pairs, rule, image.Schema.MustIndex, nil))
	}
	return image
}

// TestCleanedStateIsFunctionOfCheckedSets: FD fixes are a function of the
// original values per checked group, and DC fixes a set function of the
// violating pairs with a checked tuple, so every published state must equal
// its recomputation from the checked sets — whatever strategy, sweep,
// interleaving or recovery produced it.
func TestCleanedStateIsFunctionOfCheckedSets(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		for _, strategy := range []Strategy{StrategyIncremental, StrategyFull} {
			t.Run(fmt.Sprintf("%s/seed%d", strategyName(strategy), seed), func(t *testing.T) {
				tb, rules, queries := dcLineorder(seed)
				s := NewSession(Options{Strategy: strategy})
				defer s.Close()
				watchRecompute(t, s)
				setupSession(t, s, tb, rules...)
				runQueries(t, s, queries)
			})
		}
	}

	t.Run("racing", func(t *testing.T) {
		tb, rules, queries := dcLineorder(3)
		s := NewSession(Options{Strategy: StrategyIncremental})
		defer s.Close()
		watchRecompute(t, s)
		setupSession(t, s, tb, rules...)
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
	})

	t.Run("sweep", func(t *testing.T) {
		tb := sweepTable(sweepGroups, sweepDirtyGroups)
		s := NewSession(sweepOpts())
		defer s.Close()
		watchRecompute(t, s)
		setupSession(t, s, tb, sweepRule())
		queries := sweepQueries(sweepGroups, sweepRangeGroups)
		if flip, strategy, _ := runUntilFlip(t, s, queries); flip < 0 || strategy != "background" {
			t.Fatalf("no background flip (flip=%d strategy=%q)", flip, strategy)
		}
		if err := s.WaitCleaning(context.Background()); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("crash", func(t *testing.T) {
		dir := t.TempDir()
		tb, rules, queries := dcLineorder(4)
		s, err := Open(durableOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		watchRecompute(t, s)
		setupSession(t, s, tb, rules...)
		half := len(queries) / 2
		runQueries(t, s, queries[:half])
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		runQueries(t, s, queries[half:])

		// A crash leaves exactly the files written so far: reopen a copy
		// taken while the session is still open.
		crashed := t.TempDir()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			copyFile(t, filepath.Join(dir, e.Name()), filepath.Join(crashed, e.Name()))
		}
		s2, err := Open(durableOpts(crashed))
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		checkRecompute(t, s2.w.current()) // replay publishes no epochs
		watchRecompute(t, s2)
		runQueries(t, s2, queries)
	})
}
