// Package exclusion implements the node exclude-list mitigation §3.2
// recommends for the small number of nodes that dominate the error counts:
// once a node accumulates enough distinct correctable faults, it is
// drained and removed from scheduling until service. The package evaluates
// a policy's cost/benefit over an error stream — errors avoided versus
// node-days of capacity lost — which is the trade a site operator actually
// weighs.
//
// The policy deliberately triggers on fault counts, not error counts: the
// paper's central methodological point is that error counts are dominated
// by a few noisy faults, so an error-count trigger would drain the wrong
// nodes. An error-count variant is provided for exactly that comparison.
package exclusion

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/mce"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// Trigger selects what the policy counts.
type Trigger int

// Trigger kinds.
const (
	// ByFaults drains a node after FaultThreshold distinct faults — the
	// paper-aligned policy.
	ByFaults Trigger = iota
	// ByErrors drains a node after ErrorThreshold raw CE records — the
	// naive policy the paper warns against.
	ByErrors
)

// String names the trigger.
func (t Trigger) String() string {
	switch t {
	case ByFaults:
		return "by-faults"
	case ByErrors:
		return "by-errors"
	default:
		return fmt.Sprintf("Trigger(%d)", int(t))
	}
}

// Policy configures the exclude list.
type Policy struct {
	Trigger Trigger
	// FaultThreshold drains a node at this many distinct faults
	// (ByFaults).
	FaultThreshold int
	// ErrorThreshold drains a node at this many CE records (ByErrors).
	ErrorThreshold int
	// MaxExcluded caps the exclude list (a site cannot drain the fleet);
	// 0 means unlimited.
	MaxExcluded int
}

// Validate checks the policy.
func (p Policy) Validate() error {
	switch p.Trigger {
	case ByFaults:
		if p.FaultThreshold < 1 {
			return fmt.Errorf("exclusion: FaultThreshold %d < 1", p.FaultThreshold)
		}
	case ByErrors:
		if p.ErrorThreshold < 1 {
			return fmt.Errorf("exclusion: ErrorThreshold %d < 1", p.ErrorThreshold)
		}
	default:
		return fmt.Errorf("exclusion: unknown trigger %d", p.Trigger)
	}
	if p.MaxExcluded < 0 {
		return fmt.Errorf("exclusion: negative MaxExcluded")
	}
	return nil
}

// Outcome reports a policy's cost/benefit over a replayed stream.
type Outcome struct {
	Policy Policy
	// Excluded lists drained nodes with their drain times.
	Excluded map[topology.NodeID]simtime.Minute
	// ErrorsAvoided counts CE records on drained nodes after their drain.
	ErrorsAvoided int
	// ErrorsDelivered counts CE records that still reached the log.
	ErrorsDelivered int
	// NodeDaysLost is the capacity cost: Σ (window end − drain time).
	NodeDaysLost float64
	// AvoidedPerNodeDay is the benefit/cost ratio (0 when nothing lost).
	AvoidedPerNodeDay float64
}

// Evaluate replays a time-ordered CE record stream (with its clustered
// faults) under the policy. windowEnd bounds the capacity-loss accounting.
// Fault attribution uses the clustering's per-record fault assignment, so
// the ByFaults trigger reacts when a *new* fault is first observed on a
// node, exactly as an online monitor running the clusterer would.
func Evaluate(records []mce.CERecord, faults []core.Fault, policy Policy, windowEnd simtime.Minute) (Outcome, error) {
	if err := policy.Validate(); err != nil {
		return Outcome{}, err
	}
	out := Outcome{Policy: policy, Excluded: map[topology.NodeID]simtime.Minute{}}

	// recordFault[i] = index of the fault owning record i (-1 if none).
	recordFault := make([]int, len(records))
	for i := range recordFault {
		recordFault[i] = -1
	}
	for fi, f := range faults {
		for _, idx := range f.Errors {
			recordFault[idx] = fi
		}
	}
	// Replay in time order (records are already sorted; indices align).
	order := make([]int, len(records))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return records[order[a]].Time.Before(records[order[b]].Time)
	})

	faultsSeen := map[topology.NodeID]map[int]bool{}
	errorsSeen := map[topology.NodeID]int{}
	for _, idx := range order {
		r := records[idx]
		if _, gone := out.Excluded[r.Node]; gone {
			out.ErrorsAvoided++
			continue
		}
		out.ErrorsDelivered++
		trigger := false
		switch policy.Trigger {
		case ByFaults:
			if fi := recordFault[idx]; fi >= 0 {
				set := faultsSeen[r.Node]
				if set == nil {
					set = map[int]bool{}
					faultsSeen[r.Node] = set
				}
				set[fi] = true
				trigger = len(set) >= policy.FaultThreshold
			}
		case ByErrors:
			errorsSeen[r.Node]++
			trigger = errorsSeen[r.Node] >= policy.ErrorThreshold
		}
		if trigger && (policy.MaxExcluded == 0 || len(out.Excluded) < policy.MaxExcluded) {
			at := simtime.MinuteOf(r.Time)
			out.Excluded[r.Node] = at
			out.NodeDaysLost += float64(windowEnd-at) / simtime.MinutesPerDay
		}
	}
	if out.NodeDaysLost > 0 {
		out.AvoidedPerNodeDay = float64(out.ErrorsAvoided) / out.NodeDaysLost
	}
	return out, nil
}
