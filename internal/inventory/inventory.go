// Package inventory models the hardware-replacement history of Astra's
// stabilization period (§3.1, Table 1, Fig 3): a registry of serialized
// components (processors, motherboards, DIMMs), replacement processes
// shaped by the episodes the paper describes (infant mortality, the
// memory-controller speed-upgrade campaign, cooling incidents, steady
// aging, the end-of-period vendor visit), daily inventory scans, and a
// scan differ — because the site detected replacements "by analyzing the
// site's daily inventory scan logs", the reproduction derives Table 1 the
// same way rather than reading the ground truth directly.
package inventory

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/simrand"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// Kind identifies a replaceable component class.
type Kind int

// Component kinds.
const (
	Processor Kind = iota
	Motherboard
	DIMM
	// NumKinds is the number of component kinds.
	NumKinds
)

// String names the kind as in Table 1.
func (k Kind) String() string {
	switch k {
	case Processor:
		return "processor"
	case Motherboard:
		return "motherboard"
	case DIMM:
		return "dimm"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Population returns the installed count of a kind on the full system
// (Table 1's "of" denominators: 5184 processors, 2592 motherboards,
// 41472 DIMMs).
func (k Kind) Population() int {
	switch k {
	case Processor:
		return topology.Nodes * topology.SocketsPerNode
	case Motherboard:
		return topology.Nodes
	case DIMM:
		return topology.DIMMs
	default:
		return 0
	}
}

// slotNames holds the per-node location names per kind, computed once:
// Slots is called inside per-day and per-node loops, where rebuilding the
// DIMM name list (17 allocations) dominated the whole generator's
// allocation profile.
var slotNames = func() [NumKinds][]string {
	var out [NumKinds][]string
	out[Processor] = []string{"cpu0", "cpu1"}
	out[Motherboard] = []string{"mb"}
	names := make([]string, topology.SlotsPerNode)
	for i, s := range topology.AllSlots() {
		names[i] = "dimm" + s.Name()
	}
	out[DIMM] = names
	return out
}()

// Slots returns the per-node location names for a kind. The slice is
// shared; callers must not modify it.
func (k Kind) Slots() []string {
	if k < 0 || k >= NumKinds {
		return nil
	}
	return slotNames[k]
}

// Shape of a replacement-process phase.
type Shape int

// Phase shapes.
const (
	// ShapeDecay: exponentially decaying intensity (infant mortality).
	ShapeDecay Shape = iota
	// ShapeUniform: flat intensity (campaigns, steady aging).
	ShapeUniform
)

// Phase is one episode of a component's replacement history.
type Phase struct {
	// Label names the episode ("infant mortality", "speed upgrade", ...).
	Label string
	// Shape selects the intensity profile.
	Shape Shape
	// Start and End bound the episode (End exclusive).
	Start, End time.Time
	// Expected is the expected number of replacements in the episode.
	Expected float64
	// DecayDays is the exponential time constant for ShapeDecay.
	DecayDays float64
}

// Intensity returns the expected replacements on the given day.
func (p Phase) Intensity(d simtime.Day) float64 {
	s, e := simtime.DayOf(p.Start), simtime.DayOf(p.End)
	if d < s || d >= e {
		return 0
	}
	n := float64(e - s)
	if p.Shape == ShapeUniform {
		return p.Expected / n
	}
	// Decay normalized over the discrete days of the phase:
	// sum_{i=0}^{n-1} exp(-i/tau) = (1 - exp(-n/tau)) / (1 - exp(-1/tau)).
	tau := p.DecayDays
	if tau <= 0 {
		tau = 10
	}
	norm := (1 - math.Exp(-n/tau)) / (1 - math.Exp(-1/tau))
	return p.Expected * math.Exp(-float64(d-s)/tau) / norm
}

// Process is the full replacement history model for one component kind.
type Process struct {
	Kind   Kind
	Phases []Phase
}

// DefaultProcesses returns the replacement-history calibration matching
// Table 1 (836 processors, 46 motherboards, 1515 DIMMs over Feb 17 -
// Sep 17, 2019) with the episode structure of Fig 3.
func DefaultProcesses() []Process {
	d := func(m time.Month, day int) time.Time {
		return time.Date(2019, m, day, 0, 0, 0, 0, time.UTC)
	}
	return []Process{
		{Kind: Processor, Phases: []Phase{
			{Label: "infant mortality", Shape: ShapeDecay, Start: simtime.ReplacementStart, End: d(time.April, 30), Expected: 180, DecayDays: 12},
			{Label: "baseline", Shape: ShapeUniform, Start: simtime.ReplacementStart, End: simtime.ReplacementEnd, Expected: 40},
			{Label: "memory-controller speed upgrade", Shape: ShapeUniform, Start: d(time.June, 20), End: d(time.August, 15), Expected: 600},
			{Label: "vendor visit", Shape: ShapeUniform, Start: d(time.September, 10), End: simtime.ReplacementEnd, Expected: 16},
		}},
		{Kind: Motherboard, Phases: []Phase{
			{Label: "infant mortality", Shape: ShapeDecay, Start: simtime.ReplacementStart, End: d(time.April, 15), Expected: 22, DecayDays: 15},
			{Label: "baseline", Shape: ShapeUniform, Start: simtime.ReplacementStart, End: simtime.ReplacementEnd, Expected: 6},
			{Label: "sustained-use failures", Shape: ShapeUniform, Start: d(time.June, 15), End: d(time.July, 30), Expected: 18},
		}},
		{Kind: DIMM, Phases: []Phase{
			{Label: "infant mortality", Shape: ShapeDecay, Start: simtime.ReplacementStart, End: d(time.March, 20), Expected: 320, DecayDays: 10},
			{Label: "cooling issues", Shape: ShapeUniform, Start: d(time.May, 1), End: d(time.June, 30), Expected: 500},
			{Label: "aging under heavy use", Shape: ShapeUniform, Start: d(time.July, 1), End: d(time.September, 5), Expected: 480},
			{Label: "vendor visit", Shape: ShapeUniform, Start: d(time.September, 8), End: simtime.ReplacementEnd, Expected: 215},
		}},
	}
}

// Replacement is one ground-truth component swap.
type Replacement struct {
	Day       simtime.Day
	Kind      Kind
	Node      topology.NodeID
	Slot      string // per-node location name, e.g. "cpu0", "dimmJ", "mb"
	OldSerial string
	NewSerial string
}

// Location renders the global location key used in scans.
func (r Replacement) Location() string { return fmt.Sprintf("%s/%s", r.Node, r.Slot) }

// History is a generated replacement timeline.
type History struct {
	Replacements []Replacement
}

// Generate produces a replacement history for nodes [0, nodes) from the
// given processes, scaling expectations by nodes/topology.Nodes so reduced
// systems keep realistic per-node rates.
func Generate(seed uint64, nodes int, procs []Process) (*History, error) {
	if nodes <= 0 || nodes > topology.Nodes {
		return nil, fmt.Errorf("inventory: nodes = %d out of range", nodes)
	}
	scale := float64(nodes) / float64(topology.Nodes)
	rng := simrand.NewStream(seed).Derive("inventory")
	reg := NewRegistry(nodes)
	h := &History{}
	start := simtime.DayOf(simtime.ReplacementStart)
	end := simtime.DayOf(simtime.ReplacementEnd)
	for day := start; day < end; day++ {
		ds := rng.DeriveN("day", uint64(day))
		for _, proc := range procs {
			intensity := 0.0
			for _, ph := range proc.Phases {
				intensity += ph.Intensity(day)
			}
			n := ds.Poisson(intensity * scale)
			slots := proc.Kind.Slots()
			for i := 0; i < n; i++ {
				node := topology.NodeID(ds.IntN(nodes))
				slot := slots[ds.IntN(len(slots))]
				rep := Replacement{
					Day:  day,
					Kind: proc.Kind,
					Node: node,
					Slot: slot,
				}
				rep.OldSerial = reg.SerialAt(rep.Location())
				rep.NewSerial = reg.Replace(rep.Location(), proc.Kind)
				h.Replacements = append(h.Replacements, rep)
			}
		}
	}
	return h, nil
}

// DailyCounts tallies replacements per day for one kind — the Fig 3
// series. Keys are day indices; missing days mean zero.
func (h *History) DailyCounts(kind Kind) map[simtime.Day]int {
	out := map[simtime.Day]int{}
	for _, r := range h.Replacements {
		if r.Kind == kind {
			out[r.Day]++
		}
	}
	return out
}

// Totals returns the Table 1 row values: replacements per kind.
func (h *History) Totals() [NumKinds]int {
	var out [NumKinds]int
	for _, r := range h.Replacements {
		out[r.Kind]++
	}
	return out
}

// Registry tracks which serial number sits in each location.
type Registry struct {
	nodes   int
	serials map[string]string
	next    int
}

// NewRegistry builds a registry with factory serials for nodes [0, nodes).
// Location keys and serials are rendered append-style into a scratch
// buffer — one string allocation each, instead of Sprintf's per-argument
// boxing, which matters because the factory fill is tens of thousands of
// entries at full scale.
func NewRegistry(nodes int) *Registry {
	perNode := 0
	for k := Kind(0); k < NumKinds; k++ {
		perNode += len(k.Slots())
	}
	r := &Registry{nodes: nodes, serials: make(map[string]string, nodes*perNode)}
	var buf []byte
	for n := 0; n < nodes; n++ {
		node := topology.NodeID(n)
		for k := Kind(0); k < NumKinds; k++ {
			for _, slot := range k.Slots() {
				buf = node.AppendString(buf[:0])
				buf = append(buf, '/')
				buf = append(buf, slot...)
				r.serials[string(buf)] = r.mint(k)
			}
		}
	}
	return r
}

func (r *Registry) mint(k Kind) string {
	r.next++
	var tmp [40]byte
	b := append(tmp[:0], "SN-"...)
	b = append(b, k.String()...)
	b = append(b, '-')
	// %07d: zero-pad to at least 7 digits.
	digits := 1
	for v := r.next; v >= 10; v /= 10 {
		digits++
	}
	for ; digits < 7; digits++ {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, int64(r.next), 10)
	return string(b)
}

// SerialAt returns the serial currently at a location, or "" if unknown.
func (r *Registry) SerialAt(location string) string { return r.serials[location] }

// Replace installs a freshly minted serial at the location and returns it.
func (r *Registry) Replace(location string, k Kind) string {
	s := r.mint(k)
	r.serials[location] = s
	return s
}

// Snapshot returns a copy of the current location -> serial map — one
// daily inventory scan.
func (r *Registry) Snapshot() Snapshot {
	out := make(Snapshot, len(r.serials))
	for k, v := range r.serials {
		out[k] = v
	}
	return out
}

// Snapshot is one daily inventory scan: location -> serial.
type Snapshot map[string]string

// Observed is a replacement detected by diffing two scans.
type Observed struct {
	Location  string
	OldSerial string
	NewSerial string
}

// Diff compares consecutive scans and returns the locations whose serial
// changed, sorted by location — how the site's tooling detected
// replacements. Locations present in only one scan are reported with the
// missing side empty.
func Diff(prev, next Snapshot) []Observed {
	var out []Observed
	for loc, old := range prev {
		if cur, ok := next[loc]; !ok {
			out = append(out, Observed{Location: loc, OldSerial: old})
		} else if cur != old {
			out = append(out, Observed{Location: loc, OldSerial: old, NewSerial: cur})
		}
	}
	for loc, cur := range next {
		if _, ok := prev[loc]; !ok {
			out = append(out, Observed{Location: loc, NewSerial: cur})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Location < out[b].Location })
	return out
}
