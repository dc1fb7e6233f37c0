// Package itemset provides the fundamental value types of association
// mining: items, itemsets (sorted sets of items), k-subset enumeration and
// the prefix-based equivalence classes used by the optimized candidate join
// of Section 3.1.1 of the paper.
//
// Itemset and class order feed the pinned work model (TestModelTimePinned),
// so the package must stay deterministic:
//
//armlint:pinned
package itemset

import (
	"fmt"
	"sort"
	"strings"
)

// Item is a single attribute of the universe I = {i1 … im}. Items are dense
// non-negative integers; the synthetic generator and the database readers
// guarantee density so that indirection vectors (Table 1 of the paper) can
// be plain slices.
type Item int32

// Itemset is a lexicographically sorted, duplicate-free sequence of items.
// The zero value is the empty itemset.
type Itemset []Item

// New returns a sorted, deduplicated itemset built from items.
func New(items ...Item) Itemset {
	s := make(Itemset, len(items))
	copy(s, items)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s.dedup()
}

func (s Itemset) dedup() Itemset {
	if len(s) < 2 {
		return s
	}
	out := s[:1]
	for _, it := range s[1:] {
		if it != out[len(out)-1] {
			out = append(out, it)
		}
	}
	return out
}

// K returns the number of items; an itemset with k items is a k-itemset.
func (s Itemset) K() int { return len(s) }

// Clone returns an independent copy of s.
func (s Itemset) Clone() Itemset {
	c := make(Itemset, len(s))
	copy(c, s)
	return c
}

// IsSorted reports whether s is strictly increasing (the representation
// invariant of Itemset).
func (s Itemset) IsSorted() bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same items.
func (s Itemset) Equal(t Itemset) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Compare returns -1, 0, or +1 comparing s and t lexicographically.
// A proper prefix sorts before its extensions.
func (s Itemset) Compare(t Itemset) int {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	for i := 0; i < n; i++ {
		switch {
		case s[i] < t[i]:
			return -1
		case s[i] > t[i]:
			return 1
		}
	}
	switch {
	case len(s) < len(t):
		return -1
	case len(s) > len(t):
		return 1
	}
	return 0
}

// Less reports whether s sorts lexicographically before t.
func (s Itemset) Less(t Itemset) bool { return s.Compare(t) < 0 }

// Contains reports whether sub ⊆ s. Both must be sorted; the merge walk is
// O(len(s)).
//
//armlint:noalloc
func (s Itemset) Contains(sub Itemset) bool {
	if len(sub) > len(s) {
		return false
	}
	i := 0
	for _, want := range sub {
		for i < len(s) && s[i] < want {
			i++
		}
		if i >= len(s) || s[i] != want {
			return false
		}
		i++
	}
	return true
}

// ContainsItem reports whether the single item it is a member of s,
// by binary search.
func (s Itemset) ContainsItem(it Item) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < it {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == it
}

// Union returns the sorted union s ∪ t as a fresh itemset.
func (s Itemset) Union(t Itemset) Itemset {
	out := make(Itemset, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Intersect returns the sorted intersection s ∩ t as a fresh itemset.
func (s Itemset) Intersect(t Itemset) Itemset {
	out := make(Itemset, 0)
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Minus returns s \ t as a fresh sorted itemset.
func (s Itemset) Minus(t Itemset) Itemset {
	out := make(Itemset, 0, len(s))
	j := 0
	for _, it := range s {
		for j < len(t) && t[j] < it {
			j++
		}
		if j < len(t) && t[j] == it {
			continue
		}
		out = append(out, it)
	}
	return out
}

// WithoutIndex returns a copy of s with the element at position idx removed;
// it is the (k-1)-subset obtained by dropping one item, used by the pruning
// step of candidate generation.
func (s Itemset) WithoutIndex(idx int) Itemset {
	out := make(Itemset, 0, len(s)-1)
	out = append(out, s[:idx]...)
	out = append(out, s[idx+1:]...)
	return out
}

// HasPrefix reports whether the first len(p) items of s equal p.
func (s Itemset) HasPrefix(p Itemset) bool {
	if len(p) > len(s) {
		return false
	}
	for i := range p {
		if s[i] != p[i] {
			return false
		}
	}
	return true
}

// Key returns a compact string usable as a map key. The encoding is a raw
// little-endian byte dump; it is injective over sorted itemsets.
func (s Itemset) Key() string {
	var b strings.Builder
	b.Grow(4 * len(s))
	for _, it := range s {
		b.WriteByte(byte(it))
		b.WriteByte(byte(it >> 8))
		b.WriteByte(byte(it >> 16))
		b.WriteByte(byte(it >> 24))
	}
	return b.String()
}

// ParseKey reconstructs the itemset encoded by Key.
func ParseKey(key string) (Itemset, error) {
	if len(key)%4 != 0 {
		return nil, fmt.Errorf("itemset: key length %d not a multiple of 4", len(key))
	}
	s := make(Itemset, len(key)/4)
	for i := range s {
		o := 4 * i
		s[i] = Item(uint32(key[o]) | uint32(key[o+1])<<8 | uint32(key[o+2])<<16 | uint32(key[o+3])<<24)
	}
	return s, nil
}

// String renders the itemset as "(a b c)".
func (s Itemset) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, it := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", it)
	}
	b.WriteByte(')')
	return b.String()
}

// ForEachSubset enumerates all k-subsets of s in lexicographic order,
// invoking fn with a scratch buffer that is reused between calls: callers
// must Clone the argument if they retain it. Enumeration stops early if fn
// returns false.
func (s Itemset) ForEachSubset(k int, fn func(Itemset) bool) {
	if k <= 0 || k > len(s) {
		return
	}
	idx := make([]int, k)
	buf := make(Itemset, k)
	for i := range idx {
		idx[i] = i
		buf[i] = s[i]
	}
	for {
		if !fn(buf) {
			return
		}
		// Advance the combination odometer.
		i := k - 1
		for i >= 0 && idx[i] == len(s)-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		buf[i] = s[idx[i]]
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
			buf[j] = s[idx[j]]
		}
	}
}

// Binomial returns C(n, k) saturating at 1<<62 for large values.
func Binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	const sat = int64(1) << 62
	var r int64 = 1
	for i := 1; i <= k; i++ {
		hi := r * int64(n-k+i)
		if hi/int64(n-k+i) != r || hi < 0 {
			return sat
		}
		r = hi / int64(i)
	}
	return r
}
