// Package rules implements the second step of association mining
// (Section 2): generating implication rules X−Y ⇒ Y from the frequent
// itemsets, keeping those whose confidence support(X)/support(X−Y) meets a
// user threshold.
package rules

import (
	"fmt"

	"repro/internal/itemset"
)

// Rule is an association rule Antecedent ⇒ Consequent.
type Rule struct {
	Antecedent itemset.Itemset
	Consequent itemset.Itemset
	// Support is the count of transactions containing Antecedent ∪
	// Consequent; SupportFrac the same as a fraction of |D|.
	Support     int64
	SupportFrac float64
	// Confidence is support(A∪C)/support(A).
	Confidence float64
	// Lift is confidence / supportFrac(C); > 1 indicates positive
	// correlation. (A standard extension; 0 when |D| unknown.)
	Lift float64
}

func (r Rule) String() string {
	return fmt.Sprintf("%v => %v (sup %d, conf %.3f)", r.Antecedent, r.Consequent, r.Support, r.Confidence)
}

// Options controls rule generation.
type Options struct {
	// MinConfidence filters rules below this confidence (e.g. 0.8).
	MinConfidence float64
	// DBSize, when > 0, enables SupportFrac and Lift computation. It is a
	// wide int64 transaction count — segmented stores (seg.Reader.NumTx)
	// address more than 2³¹ transactions, and an int here silently
	// truncated their SupportFrac and Lift denominators on 32-bit builds.
	//armlint:wide
	DBSize int64
	// MaxConsequent bounds the consequent size; 0 means no bound.
	MaxConsequent int
}
