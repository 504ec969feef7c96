// Package retire models OS page retirement (Tang et al., cited as the
// paper's [36]): when a physical page accumulates repeated correctable
// errors, the kernel unmaps it so the underlying fault stops producing
// errors. The paper credits page retirement (plus maintenance) for the
// downward error trend of Fig 4a and argues that small-footprint fault
// modes make retirement cheap (§3.2) while single-bank faults would
// require mapping out large address ranges.
//
// The model captures the operationally important imperfections: retirement
// can fail (pinned or kernel-owned pages cannot be unmapped — how a fault
// can still emit ~91,000 errors on a system with retirement enabled), and
// each node has a budget of retirable pages so the analysis can report the
// memory given up.
package retire

import (
	"fmt"

	"repro/internal/faultmodel"
	"repro/internal/simrand"
	"repro/internal/topology"
)

// Policy configures the retirement engine.
type Policy struct {
	// Threshold is the number of CEs a page may accumulate before the
	// kernel attempts to retire it.
	Threshold int
	// SuccessProb is the probability a retirement attempt succeeds; a
	// failed attempt marks the page unretirable forever (pinned memory).
	SuccessProb float64
	// MaxPagesPerNode caps retired pages per node (memory-loss budget);
	// 0 means unlimited.
	MaxPagesPerNode int
}

// DefaultPolicy mirrors a conservative production setting: retire after 4
// CEs on a page, 85% success, at most 4096 pages (16 MiB) per node.
func DefaultPolicy() Policy {
	return Policy{Threshold: 4, SuccessProb: 0.85, MaxPagesPerNode: 4096}
}

// Validate checks the policy.
func (p Policy) Validate() error {
	if p.Threshold < 1 {
		return fmt.Errorf("retire: threshold %d < 1", p.Threshold)
	}
	if p.SuccessProb < 0 || p.SuccessProb > 1 {
		return fmt.Errorf("retire: success probability %v out of [0,1]", p.SuccessProb)
	}
	if p.MaxPagesPerNode < 0 {
		return fmt.Errorf("retire: negative page budget")
	}
	return nil
}

// pageKey identifies a physical page on a node.
type pageKey struct {
	node topology.NodeID
	page uint64
}

// pageState tracks one page's retirement lifecycle.
type pageState int8

const (
	pageLive pageState = iota
	pageRetired
	pageUnretirable
)

// Stats accumulates the engine's effect.
type Stats struct {
	// Seen is the number of CEs offered.
	Seen int
	// Suppressed is the number of CEs avoided because their page was
	// already retired.
	Suppressed int
	// Retired is the number of successfully retired pages.
	Retired int
	// Failed is the number of pages whose retirement attempt failed.
	Failed int
	// BudgetExhausted counts attempts skipped because a node hit its
	// page budget.
	BudgetExhausted int
}

// MemoryRetiredBytes returns the total memory mapped out.
func (s Stats) MemoryRetiredBytes() int64 {
	return int64(s.Retired) * topology.PageBytes
}

// Engine applies a Policy to a time-ordered CE stream. Construct with
// NewEngine; not safe for concurrent use.
type Engine struct {
	policy  Policy
	rng     *simrand.Stream
	counts  map[pageKey]int
	state   map[pageKey]pageState
	perNode map[topology.NodeID]int
	stats   Stats
}

// NewEngine builds an engine; randomness (retirement success) derives from
// seed. It panics on an invalid policy (programmer error — validate
// user-supplied policies first).
func NewEngine(seed uint64, policy Policy) *Engine {
	if err := policy.Validate(); err != nil {
		panic(err)
	}
	return &Engine{
		policy:  policy,
		rng:     simrand.NewStream(seed).Derive("retire"),
		counts:  map[pageKey]int{},
		state:   map[pageKey]pageState{},
		perNode: map[topology.NodeID]int{},
	}
}

// Observe feeds one CE and reports whether the error actually manifests
// (true) or was suppressed by an earlier retirement (false).
func (e *Engine) Observe(ev faultmodel.CEEvent) bool {
	e.stats.Seen++
	key := pageKey{node: ev.Node, page: ev.Addr.Page()}
	switch e.state[key] {
	case pageRetired:
		e.stats.Suppressed++
		return false
	case pageUnretirable:
		return true
	}
	e.counts[key]++
	if e.counts[key] >= e.policy.Threshold {
		e.attempt(key)
	}
	return true
}

func (e *Engine) attempt(key pageKey) {
	if e.policy.MaxPagesPerNode > 0 && e.perNode[key.node] >= e.policy.MaxPagesPerNode {
		e.stats.BudgetExhausted++
		e.state[key] = pageUnretirable
		return
	}
	if e.rng.Bool(e.policy.SuccessProb) {
		e.state[key] = pageRetired
		e.perNode[key.node]++
		e.stats.Retired++
	} else {
		e.state[key] = pageUnretirable
		e.stats.Failed++
	}
}

// Filter applies the engine to an entire time-ordered stream and returns
// the surviving events plus statistics.
func (e *Engine) Filter(events []faultmodel.CEEvent) []faultmodel.CEEvent {
	out := make([]faultmodel.CEEvent, 0, len(events))
	for _, ev := range events {
		if e.Observe(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// Stats returns the accounting so far.
func (e *Engine) Stats() Stats { return e.stats }

// PageRetired reports whether the page containing addr on node is
// currently retired — the query the predict payoff simulator uses to
// decide whether a later uncorrectable access would have been avoided.
func (e *Engine) PageRetired(node topology.NodeID, addr topology.PhysAddr) bool {
	return e.state[pageKey{node: node, page: addr.Page()}] == pageRetired
}
