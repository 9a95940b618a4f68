package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"daisy/internal/table"
	"daisy/internal/value"
)

// InjectFDErrors performs BART-style error injection for an FD lhs→rhs: for
// the given fraction of lhs groups (chosen uniformly so every query range is
// affected, per the paper's generator), it edits the configured fraction of
// the group's rhs cells to a different value drawn from the rhs domain. All
// injected errors are detectable by the FD. It returns the number of edited
// cells.
func InjectFDErrors(t *table.Table, lhsCol, rhsCol string, groupFraction, cellFraction float64, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	li := t.Schema.MustIndex(lhsCol)
	ri := t.Schema.MustIndex(rhsCol)

	// Group rows by lhs.
	groups := make(map[string][]int)
	var order []string
	for i, r := range t.Rows {
		k := r[li].Key()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	// rhs domain for replacement values.
	domainSet := make(map[string]value.Value)
	for _, r := range t.Rows {
		domainSet[r[ri].Key()] = r[ri]
	}
	domain := make([]value.Value, 0, len(domainSet))
	for _, v := range domainSet {
		domain = append(domain, v)
	}
	// Map iteration order is random per run: sort so the same seed always
	// injects the same errors (reproducible workloads are what the seeded
	// generators promise).
	sort.Slice(domain, func(i, j int) bool { return domain[i].Less(domain[j]) })

	edited := 0
	for gi, key := range order {
		// Uniform spread: pick every k-th group instead of a random subset so
		// all query ranges see errors (the paper edits "10% of the suppliers
		// that correspond to each orderkey" — with groupFraction 1 every
		// group is affected).
		if groupFraction < 1 {
			stride := int(1 / groupFraction)
			if stride > 0 && gi%stride != 0 {
				continue
			}
		}
		rows := groups[key]
		edits := int(float64(len(rows)) * cellFraction)
		if edits == 0 {
			edits = 1
		}
		for e := 0; e < edits && e < len(rows); e++ {
			row := rows[rng.Intn(len(rows))]
			cur := t.Rows[row][ri]
			// Pick a different value; synthesize one if the domain is unary.
			var repl value.Value
			for tries := 0; tries < 8; tries++ {
				cand := domain[rng.Intn(len(domain))]
				if !cand.Equal(cur) {
					repl = cand
					break
				}
			}
			if repl.IsNull() {
				repl = synthesizeDistinct(cur, rng)
			}
			t.Rows[row][ri] = repl
			edited++
		}
	}
	return edited
}

// synthesizeDistinct fabricates a value different from cur with the same kind.
func synthesizeDistinct(cur value.Value, rng *rand.Rand) value.Value {
	switch cur.Kind() {
	case value.Int:
		return value.NewInt(cur.Int() + 1 + int64(rng.Intn(97)))
	case value.Float:
		return value.NewFloat(cur.Float() * (1.1 + rng.Float64()))
	default:
		return value.NewString(cur.String() + fmt.Sprintf("~%d", rng.Intn(100)))
	}
}

// typo flips one character of s (or appends one when too short).
func typo(s string, rng *rand.Rand) string {
	if len(s) < 2 {
		return s + "x"
	}
	i := 1 + rng.Intn(len(s)-1)
	b := []byte(s)
	if b[i] == 'x' {
		b[i] = 'q'
	} else {
		b[i] = 'x'
	}
	return string(b)
}

// InjectDCOutliers creates inequality-DC violations affecting ≈fraction of
// the tuples: it swaps the swapCol values of adjacent rows in sortCol order,
// so each edit produces exactly one locally violating pair (the paper's
// Fig 10 versions control the violation mass the same way — "by modifying
// the errors that the dirty values induce"). Returns the edited row indexes.
func InjectDCOutliers(t *table.Table, sortCol, swapCol string, fraction float64, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	si := t.Schema.MustIndex(sortCol)
	ci := t.Schema.MustIndex(swapCol)
	order := make([]int, t.Len())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return t.Rows[order[a]][si].Less(t.Rows[order[b]][si])
	})
	pairs := int(float64(t.Len()) * fraction / 2)
	if pairs == 0 && fraction > 0 {
		pairs = 1
	}
	var edited []int
	used := make(map[int]bool)
	for e := 0; e < pairs; e++ {
		pos := rng.Intn(t.Len() - 1)
		if used[pos] || used[pos+1] {
			continue
		}
		used[pos], used[pos+1] = true, true
		a, b := order[pos], order[pos+1]
		if t.Rows[a][ci].Equal(t.Rows[b][ci]) {
			// Equal values swap to nothing; force a strict inversion.
			t.Rows[a][ci] = value.NewFloat(t.Rows[b][ci].Float() + 1e-6)
		} else {
			t.Rows[a][ci], t.Rows[b][ci] = t.Rows[b][ci], t.Rows[a][ci]
		}
		edited = append(edited, a, b)
	}
	return edited
}
