package core

import (
	"context"
	"sync"
	"testing"

	"daisy/internal/dc"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/trace"
	"daisy/internal/value"
	"daisy/internal/workload"
)

// built returns copies of the registration's index maps, read under its lock.
func (r *registration) built() (map[string]*fdIndex, map[string]*dcEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fds := make(map[string]*fdIndex, len(r.fds))
	for k, v := range r.fds {
		fds[k] = v
	}
	dcs := make(map[string]*dcEntry, len(r.dcs))
	for k, v := range r.dcs {
		dcs[k] = v
	}
	return fds, dcs
}

// countSpans counts the nodes named name in the tree rooted at n.
func countSpans(n *trace.Node, name string) int {
	if n == nil {
		return 0
	}
	c := 0
	if n.Name == name {
		c++
	}
	for _, ch := range n.Nodes {
		c += countSpans(ch, name)
	}
	return c
}

// TestRegistrationSharesDerivedState pins the registration's contract:
// AddRule builds the FD index eagerly (seeding the cost model reads it), the
// DC rank index waits for a query, racing first queries build it exactly
// once (one dc_index span across all their traces), and every later epoch
// reaches the same index pointers.
func TestRegistrationSharesDerivedState(t *testing.T) {
	tb, rules, _ := dcLineorder(5)
	// Non-overlapping ranges: FD-only and DC-only queries. The first wave
	// races half of each kind; the rest of the DC ranges still have tuples to
	// check, so the second wave publishes.
	fdQ := workload.RangeQueries(tb, "orderkey", 4, "orderkey, suppkey", 6)
	dcQ := workload.FloatRangeQueries(tb, "extended_price", 8, "extended_price, discount", 7)
	s := NewSession(Options{Strategy: StrategyIncremental, Workers: 2})
	defer s.Close()
	setupSession(t, s, tb, rules...)
	reg := s.w.current().tables[tb.Name].reg
	phi, dcs := reg.built()
	if phi["phi"] == nil || len(phi) != 1 || len(dcs) != 0 {
		t.Fatalf("setup built FD %v and DC %v indexes, want phi's FD index only", phi, dcs)
	}

	const callers = 8
	traces := make([]*trace.Trace, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			q := fdQ[i/2]
			if i%2 == 1 {
				q = dcQ[i/2]
			}
			rows, err := s.QueryContext(context.Background(), q, WithTrace())
			if err != nil {
				t.Error(err)
				return
			}
			traces[i] = rows.Trace()
			rows.Close()
		}()
	}
	close(start)
	wg.Wait()
	spans := 0
	for _, tr := range traces {
		spans += countSpans(tr.Tree(), "dc_index")
	}
	if spans != 1 {
		t.Fatalf("%d dc_index spans across %d racing first queries, want exactly 1", spans, callers)
	}
	fds, dcs := reg.built()
	if fds["phi"] != phi["phi"] || dcs["psi"] == nil || len(fds) != 1 || len(dcs) != 1 {
		t.Fatalf("registration holds FD %v and DC %v indexes, want setup's phi and one psi", fds, dcs)
	}

	// Later epochs keep the registration, and with it the same indexes.
	published := 0
	s.w.mu.Lock()
	s.w.onPublish = func(_ uint64, snap *snapshot) {
		published++
		if snap.tables[tb.Name].reg != reg {
			t.Errorf("epoch %d left the registration", snap.epoch)
		}
	}
	s.w.mu.Unlock()
	runQueries(t, s, dcQ[callers/2:])
	s.w.mu.Lock()
	s.w.onPublish = nil
	s.w.mu.Unlock()
	if published == 0 {
		t.Fatal("the second wave published no epoch")
	}
	fds2, dcs2 := reg.built()
	if fds2["phi"] != fds["phi"] || dcs2["psi"] != dcs["psi"] {
		t.Fatal("an index was rebuilt after the first wave")
	}

}

// TestCleanInBackgroundRefusesTableLackingRuleColumns: an unscoped rule binds
// only to tables that carry its columns, and a sweep of it over any other
// table is refused instead of building an index over columns that do not
// exist.
func TestCleanInBackgroundRefusesTableLackingRuleColumns(t *testing.T) {
	s := NewSession(Options{})
	defer s.Close()
	b := table.New("b", schema.MustNew(
		schema.Column{Name: "k", Kind: value.Int},
		schema.Column{Name: "v", Kind: value.Int},
	))
	b.MustAppend(table.Row{value.NewInt(1), value.NewInt(2)})
	for _, tb := range []*table.Table{citiesTable(), b} {
		if err := s.Register(tb); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddRule(dc.FD("phi", "", "city", "zip")); err != nil {
		t.Fatal(err)
	}
	if s.CleanInBackground("b", "phi") {
		t.Fatal("CleanInBackground started a sweep of phi over b, which lacks its columns")
	}
	if !s.CleanInBackground("cities", "phi") {
		t.Fatal("CleanInBackground refused phi over cities")
	}
	if err := s.WaitCleaning(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, st := range s.CleaningStatus() {
		if st.Table != "cities" {
			t.Errorf("sweep scheduled over %q", st.Table)
		}
	}
}
