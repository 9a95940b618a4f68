package core

import (
	"iter"
	"math/bits"
	"slices"
)

// posSet is a set of row positions of one relation: a bitset with its
// population count. It is the one checked-set type — an FD rule marks a
// group by its anchor (the position of its first member), a general DC
// marks a tuple by its position — and the row set of the cleaning paths.
// Base relations number their tuples densely by position
// (ptable.FromTable), so a position names the same tuple in every epoch.
//
// A set reachable from a published epoch is frozen: writers extend a clone
// (with), and only the owner of a private set calls add. The nil *posSet is
// the empty set.
type posSet struct {
	words []uint64
	n     int
}

// has reports whether position i is in the set.
func (s *posSet) has(i int) bool {
	if s == nil || i>>6 >= len(s.words) {
		return false
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// len returns the number of positions in the set.
func (s *posSet) len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// all yields the set's positions in ascending order.
func (s *posSet) all() iter.Seq[int] {
	return func(yield func(int) bool) {
		if s == nil {
			return
		}
		for w, word := range s.words {
			for ; word != 0; word &= word - 1 {
				if !yield(w<<6 | bits.TrailingZeros64(word)) {
					return
				}
			}
		}
	}
}

// with returns a private copy of s extended by ps; s is left untouched.
func (s *posSet) with(ps ...int) *posSet {
	c := new(posSet)
	if s != nil {
		c.words, c.n = slices.Clone(s.words), s.n
	}
	for _, p := range ps {
		c.add(p)
	}
	return c
}

// add inserts position i (≥ 0) into a private set and reports whether it
// was absent.
func (s *posSet) add(i int) bool {
	w := i >> 6
	if w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
	bit := uint64(1) << (uint(i) & 63)
	if s.words[w]&bit != 0 {
		return false
	}
	s.words[w] |= bit
	s.n++
	return true
}
