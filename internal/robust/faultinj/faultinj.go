// Package faultinj is the fault-injection harness behind the robustness CI
// smoke tests: an Injector matches (phase, k, worker, chunk) sites inside a
// mining run and fires a configured action — a panic (to exercise the
// scheduler's panic containment), a delay (to widen race windows and fake
// stragglers), or an arbitrary callback (to cancel a context or kill a
// checkpoint file at a precise point).
//
// Injection is enabled only by explicitly setting ccpd.Options.FaultInj; a
// nil *Injector is the disabled harness and every call site compiles to a
// nil check. Production paths never construct one.
package faultinj

import (
	"fmt"
	"sync"
	"time"
)

// Action selects what a matched rule does.
type Action uint8

const (
	// Panic panics with a descriptive faultinj message — the containment
	// tests assert it surfaces as a robust.WorkerPanicError from Mine.
	Panic Action = iota
	// Delay sleeps for Rule.Delay, simulating a straggling worker or
	// widening a race window under the race detector.
	Delay
	// Call invokes Rule.Do only (the zero-cost hook for cancellation or
	// file-system sabotage at an exact site).
	Call
)

// Wildcard matches any value for the K, Worker and Chunk selectors.
const Wildcard = -1

// Rule matches injection sites. Zero-value selectors are NOT wildcards —
// use Wildcard (-1) for "any"; Phase "" matches any phase.
type Rule struct {
	// Phase matches the mining phase label ("f1", "gen", "build", "count",
	// "pairs", "reduce"); "" matches every phase.
	Phase string
	// K matches the iteration (Wildcard = any).
	K int
	// Worker matches the pool worker index (Wildcard = any).
	Worker int
	// Chunk matches the counting chunk id (Wildcard = any site, including
	// non-chunk sites, which fire with chunk = -1).
	Chunk int
	// Action is what to do at a matched site.
	Action Action
	// Delay is the sleep for Action == Delay.
	Delay time.Duration
	// Do, when non-nil, runs at the matched site before the action (and is
	// the whole action for Action == Call).
	Do func()
	// Once limits the rule to its first match.
	Once bool
}

// matches reports whether the rule covers the site.
func (r *Rule) matches(phase string, k, worker, chunk int) bool {
	if r.Phase != "" && r.Phase != phase {
		return false
	}
	if r.K != Wildcard && r.K != k {
		return false
	}
	if r.Worker != Wildcard && r.Worker != worker {
		return false
	}
	if r.Chunk != Wildcard && r.Chunk != chunk {
		return false
	}
	return true
}

// Injector holds the active rules. Fire is called concurrently from every
// pool worker, so the spent-rule bookkeeping is mutex-guarded — the harness
// runs only in tests, where a mutex per injection site is irrelevant.
type Injector struct {
	mu sync.Mutex
	//armlint:guardedby mu
	rules []Rule
	//armlint:guardedby mu
	spent []bool
	//armlint:guardedby mu
	fired int64
}

// New builds an injector from rules.
func New(rules ...Rule) *Injector {
	return &Injector{rules: rules, spent: make([]bool, len(rules))}
}

// Fired returns how many rule firings have happened.
func (in *Injector) Fired() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// Fire evaluates the rules at one injection site. A nil injector is the
// disabled harness. Matched Panic rules panic AFTER the bookkeeping is
// released, so containment tests can still query Fired().
func (in *Injector) Fire(phase string, k, worker, chunk int) {
	if in == nil {
		return
	}
	var todo []Rule
	in.mu.Lock()
	for i := range in.rules {
		r := &in.rules[i]
		if in.spent[i] || !r.matches(phase, k, worker, chunk) {
			continue
		}
		if r.Once {
			in.spent[i] = true
		}
		in.fired++
		todo = append(todo, *r)
	}
	in.mu.Unlock()
	for i := range todo {
		r := &todo[i]
		if r.Do != nil {
			r.Do()
		}
		switch r.Action {
		case Panic:
			panic(fmt.Sprintf("faultinj: injected panic at phase=%s k=%d worker=%d chunk=%d",
				phase, k, worker, chunk))
		case Delay:
			time.Sleep(r.Delay)
		}
	}
}
