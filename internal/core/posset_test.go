package core

import (
	"slices"
	"testing"
)

// TestPosSet pins the checked-set type: membership at word boundaries and
// the last position, ascending iteration, the population count, and that
// extending a clone leaves the original untouched.
func TestPosSet(t *testing.T) {
	const n = 200
	cases := []struct {
		name string
		ps   []int
	}{
		{"empty", nil},
		{"first", []int{0}},
		{"word-boundary", []int{63, 64}},
		{"last", []int{n - 1}},
		{"unordered-with-duplicates", []int{n - 1, 64, 0, 63, 64, 0, 127, 128}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := slices.Compact(slices.Sorted(slices.Values(c.ps)))
			check := func(what string, s *posSet, want []int) {
				t.Helper()
				if got := slices.Collect(s.all()); !slices.Equal(got, want) {
					t.Errorf("%s: all() = %v, want %v", what, got, want)
				}
				if s.len() != len(want) {
					t.Errorf("%s: len() = %d, want %d", what, s.len(), len(want))
				}
				for i := 0; i < n+64; i++ {
					if s.has(i) != slices.Contains(want, i) {
						t.Errorf("%s: has(%d) = %v", what, i, s.has(i))
					}
				}
			}
			s := new(posSet).with(c.ps...)
			check("built", s, want)

			extra := []int{1, n - 2, n + 63}
			ext := s.with(extra...)
			check("original after clone", s, want)
			check("extended clone", ext, slices.Compact(slices.Sorted(slices.Values(append(slices.Clone(want), extra...)))))

			if ext.add(n-2) || !ext.add(n+64) {
				t.Error("add must report whether the position was absent")
			}
			check("original after add to clone", s, want)
		})
	}
	var empty *posSet
	if empty.len() != 0 || empty.has(0) || len(slices.Collect(empty.all())) != 0 {
		t.Error("the nil set must be empty")
	}
	if got := slices.Collect(empty.with(5).all()); !slices.Equal(got, []int{5}) {
		t.Errorf("nil.with(5) = %v", got)
	}
}
