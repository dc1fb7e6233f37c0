package rules

import (
	"math/bits"
	"slices"

	"repro/internal/apriori"
	"repro/internal/itemset"
)

// GenerateFast derives every rule X−Y ⇒ Y that meets the confidence
// threshold, using the ap-genrules consequent-growth algorithm of Agrawal &
// Srikant: for each frequent itemset X (|X| ≥ 2), candidate consequents
// start at size 1 and grow by an Apriori-style join, exploiting the
// anti-monotonicity of confidence — moving an item from the antecedent to
// the consequent can only raise the antecedent's support and hence lower
// confidence, so once a consequent fails the threshold, all of its
// supersets fail too. Rules come back in the deterministic shared order of
// sortRules: descending confidence, then support, then antecedent, then
// consequent.
//
// Per-candidate work allocates nothing: supports come from an
// open-addressing index over the result's own itemsets, consequents are
// bitmasks over positions in X grown in reusable scratch, and the two
// itemsets of each kept rule are carved from a chunked arena. An itemset
// of more than 64 items panics; no miner can produce one, since it would
// have more than 2⁶⁴ frequent subsets.
func GenerateFast(res *apriori.Result, opts Options) []Rule {
	g := generator{opts: opts, sup: newSupportIndex(res)}
	for k := 2; k < len(res.ByK); k++ {
		for _, f := range res.ByK[k] {
			g.rulesOf(f.Items, f.Count)
		}
	}
	sortRules(g.out)
	return g.out
}

// arenaChunk is how many items one rule-itemset arena chunk holds.
const arenaChunk = 1 << 15

// generator is the state of one GenerateFast call.
type generator struct {
	opts Options
	sup  supportIndex
	// cur and next hold the passing consequents of one size and the
	// next size's survivors; both are reused across itemsets.
	cur, next []uint64
	arena     []itemset.Item // free tail of the current arena chunk
	out       []Rule
}

// rulesOf emits the rules of one frequent itemset x with support count. A
// consequent is the set of its positions in x, as a bitmask.
func (g *generator) rulesOf(x itemset.Itemset, count int64) {
	k := len(x)
	if k > 64 {
		panic("rules: GenerateFast: itemset of more than 64 items")
	}
	maxC := k - 1
	if g.opts.MaxConsequent > 0 && g.opts.MaxConsequent < maxC {
		maxC = g.opts.MaxConsequent
	}
	cur, next := g.cur[:0], g.next[:0]
	for i := 0; i < k; i++ {
		if g.rule(x, count, 1<<i, 1) {
			cur = append(cur, 1<<i)
		}
	}
	for m := 1; m < maxC && len(cur) > 1; m++ {
		next = g.join(x, count, cur, next[:0], m)
		cur, next = next, cur
	}
	g.cur, g.next = cur, next
}

// join grows the passing m-consequents cur, in lexicographic order of
// their positions, into the passing (m+1)-consequents, appended to next in
// the same order. Two consequents join when they share their first m−1
// positions; the candidate is scored only when every other m-subset of it
// passed too.
func (g *generator) join(x itemset.Itemset, count int64, cur, next []uint64, m int) []uint64 {
	for i := 0; i < len(cur); {
		prefix := cur[i] &^ topBit(cur[i])
		j := i + 1
		for j < len(cur) && cur[j]&^topBit(cur[j]) == prefix {
			j++
		}
		for a := i; a < j; a++ {
			for b := a + 1; b < j; b++ {
				c := cur[a] | topBit(cur[b])
				if subsetsPass(cur, c, prefix) && g.rule(x, count, c, m+1) {
					next = append(next, c)
				}
			}
		}
		i = j
	}
	return next
}

// subsetsPass reports whether every subset of candidate c that drops one
// position of its join prefix is in cur, the sorted passing consequents.
func subsetsPass(cur []uint64, c, prefix uint64) bool {
	for p := prefix; p != 0; p &= p - 1 {
		if _, ok := slices.BinarySearchFunc(cur, c&^(p&-p), lexCompare); !ok {
			return false
		}
	}
	return true
}

// topBit returns the highest set bit of v: a consequent's last position.
func topBit(v uint64) uint64 { return 1 << (63 - bits.LeadingZeros64(v)) }

// lexCompare orders two consequents of one size lexicographically by their
// positions: at the lowest position where they differ, the one holding it
// comes first.
func lexCompare(a, b uint64) int {
	switch d := a ^ b; {
	case d == 0:
		return 0
	case a&d&-d != 0:
		return -1
	}
	return 1
}

// rule scores X−Y ⇒ Y for the m-item consequent y and keeps it if it
// passes: confidence from the antecedent's support, and — when DBSize is
// known — the support fraction and lift. The antecedent and consequent are
// written straight into the arena's free tail and kept there only when the
// rule is. A missing antecedent (impossible for a downward-closed result,
// but guarded) fails the rule.
func (g *generator) rule(x itemset.Itemset, count int64, y uint64, m int) bool {
	k := len(x)
	if len(g.arena) < k {
		g.arena = make([]itemset.Item, arenaChunk)
	}
	a, c := 0, k-m
	for i, it := range x {
		if y&(1<<i) != 0 {
			g.arena[c] = it
			c++
		} else {
			g.arena[a] = it
			a++
		}
	}
	ante, cons := itemset.Itemset(g.arena[:k-m:k-m]), itemset.Itemset(g.arena[k-m:k:k])
	anteSup, ok := g.sup.get(ante)
	if !ok || anteSup == 0 {
		return false
	}
	conf := float64(count) / float64(anteSup)
	if !MeetsConfidence(conf, g.opts.MinConfidence) {
		return false
	}
	r := Rule{Antecedent: ante, Consequent: cons, Support: count, Confidence: conf}
	if g.opts.DBSize > 0 {
		r.SupportFrac = float64(count) / float64(g.opts.DBSize)
		if cSup, ok := g.sup.get(cons); ok && cSup > 0 {
			r.Lift = conf / (float64(cSup) / float64(g.opts.DBSize))
		}
	}
	if len(g.out) == cap(g.out) {
		g.out = slices.Grow(g.out, max(len(g.out), 1024))
	}
	g.out = append(g.out, r)
	g.arena = g.arena[k:]
	return true
}

// supportIndex maps every itemset of a mining result to its count: open
// addressing with linear probing over slots that alias the result's own
// itemsets, so building it copies no items and probing allocates nothing.
// It takes the result as it is — ByK lists in any order; of two equal
// itemsets, the later one's count wins.
type supportIndex struct {
	slots []supportSlot // power-of-two length, at most half full
}

type supportSlot struct {
	items itemset.Itemset // nil: empty slot
	count int64
}

func newSupportIndex(res *apriori.Result) supportIndex {
	n := 8
	for n < 2*res.NumFrequent() {
		n *= 2
	}
	x := supportIndex{slots: make([]supportSlot, n)}
	for _, fk := range res.ByK {
		for _, f := range fk {
			if len(f.Items) > 0 {
				*x.slot(f.Items) = supportSlot{items: f.Items, count: f.Count}
			}
		}
	}
	return x
}

// slot returns the slot holding s, or the empty slot where s would go.
func (x supportIndex) slot(s itemset.Itemset) *supportSlot {
	mask := uint64(len(x.slots) - 1)
	h := uint64(14695981039346656037) // FNV-1a over whole items
	for _, it := range s {
		h = (h ^ uint64(uint32(it))) * 1099511628211
	}
	// The multiply only carries upward; fold the high bits into the
	// low ones the mask keeps.
	for i := (h ^ h>>32) & mask; ; i = (i + 1) & mask {
		if sl := &x.slots[i]; sl.items == nil || sl.items.Equal(s) {
			return sl
		}
	}
}

// get returns the count of s and whether s is a member.
func (x supportIndex) get(s itemset.Itemset) (int64, bool) {
	sl := x.slot(s)
	return sl.count, sl.items != nil
}
