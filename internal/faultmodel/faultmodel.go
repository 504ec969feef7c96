// Package faultmodel implements the generative DRAM fault model that
// substitutes for Astra's production fault population (which is not
// available in this environment). It produces ground-truth faults, the
// correctable-error events they emit, and the rare uncorrectable-error
// events, calibrated to every population statistic the paper reports:
//
//   - ~4.37M correctable errors over the 237-day study window, ≈6 per node
//     per day on average (§3.2);
//   - errors-per-fault heavily skewed: median 1, maximum ≈91,000 (Fig 4b);
//   - ≈39% of nodes with at least one CE (1013 of 2592), faults per node
//     following a power law with the top handful of nodes carrying most
//     errors (Fig 5);
//   - fault modes single-bit / single-word / single-column / single-row /
//     single-bank, with single-row unclassifiable downstream because the
//     CE records carry no usable row information (§3.2);
//   - faults uniform across socket, bank and column, non-uniform across
//     rank (rank 0 high) and DIMM slot (J, E, I, P high; A, K, L, M, N
//     low) (Figs 6, 7), and mildly top-weighted by rack region (Fig 10);
//   - bit positions and physical addresses with power-law fault counts
//     (Fig 8), modeling manufacturing weak spots;
//   - a DUE process at ≈0.00948 DUEs per DIMM per year (§3.5).
//
// Crucially, the Astra-truth model has no temperature or utilization
// coupling — the paper's headline negative result. The coupled comparison
// models live in internal/baseline.
package faultmodel

import (
	"fmt"
	"time"

	"repro/internal/simtime"
	"repro/internal/topology"
)

// Mode is a DRAM fault mode (§2.1): the footprint that all of a fault's
// errors map onto.
type Mode int

// Fault modes.
const (
	// SingleBit: all errors at one bit of one word.
	SingleBit Mode = iota
	// SingleWord: all errors within one 64-bit word.
	SingleWord
	// SingleColumn: all errors in one column of one bank.
	SingleColumn
	// SingleRow: all errors in one row of one bank. Present in the ground
	// truth but unclassifiable from Astra's CE records (§3.2: the syslog
	// record carries no usable row field).
	SingleRow
	// SingleBank: errors across one bank.
	SingleBank
	// NumModes is the number of fault modes.
	NumModes
)

// String names the mode as in the paper's figures.
func (m Mode) String() string {
	switch m {
	case SingleBit:
		return "single-bit"
	case SingleWord:
		return "single-word"
	case SingleColumn:
		return "single-column"
	case SingleRow:
		return "single-row"
	case SingleBank:
		return "single-bank"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Fault is one ground-truth DRAM fault.
type Fault struct {
	// ID is a dense index into the population's fault list.
	ID int
	// Mode is the fault's footprint class.
	Mode Mode
	// Anchor fixes the coordinates shared by all of the fault's errors.
	// Depending on Mode, some of Row/Col are free and re-drawn per error:
	// SingleBit/SingleWord use all of Anchor; SingleColumn frees Row;
	// SingleRow frees Col; SingleBank frees Row and Col.
	Anchor topology.CellAddr
	// Bit is the anchored codeword bit (0..71) for SingleBit faults and
	// the base bit for other modes.
	Bit int
	// Start is when the fault becomes active.
	Start simtime.Minute
	// NErrors is the number of correctable errors the fault emits within
	// the study window.
	NErrors int
}

// CEEvent is one correctable-error observation as produced by the memory
// controller, before any logging loss.
type CEEvent struct {
	// Minute is the event time.
	Minute simtime.Minute
	// Node is the node on which the error occurred.
	Node topology.NodeID
	// Addr is the node-local physical address of the affected word.
	Addr topology.PhysAddr
	// Bit is the flipped codeword bit (0..71).
	Bit uint8
	// FaultID is the ground-truth fault (index into Population.Faults).
	// It is available to validation code only; the logging layer does not
	// serialize it.
	FaultID int32
}

// Cell decodes the event's DRAM coordinates. An event carrying an
// invalid address (a corrupted or hand-built stream) is an error for the
// caller to handle, not a panic — bad data must never kill the process.
func (e CEEvent) Cell() (topology.CellAddr, error) {
	cell, _, err := topology.DecodePhysAddr(e.Node, e.Addr)
	if err != nil {
		return topology.CellAddr{}, fmt.Errorf("faultmodel: event with invalid address: %w", err)
	}
	return cell, nil
}

// DUECause classifies an uncorrectable event, matching the Fig 15 legend.
type DUECause int

// DUE causes.
const (
	// CauseUncorrectableECC: a multi-bit DRAM corruption detected by
	// SEC-DED.
	CauseUncorrectableECC DUECause = iota
	// CauseMachineCheck: an uncorrectable machine-check exception.
	CauseMachineCheck
	// NumDUECauses is the number of DUE causes.
	NumDUECauses
)

// String names the cause as the Hardware Event Tracker logs it.
func (c DUECause) String() string {
	switch c {
	case CauseUncorrectableECC:
		return "uncorrectableECC"
	case CauseMachineCheck:
		return "uncorrectableMachineCheckException"
	default:
		return fmt.Sprintf("DUECause(%d)", int(c))
	}
}

// DUEEvent is one detected uncorrectable error.
type DUEEvent struct {
	Minute simtime.Minute
	Node   topology.NodeID
	Addr   topology.PhysAddr
	// Bits are the flipped codeword bits (>= 2 of them).
	Bits []uint8
	// Cause is the event classification.
	Cause DUECause
}

// Population is a generated ground-truth fault population with its error
// streams, both sorted by time.
type Population struct {
	Config Config
	Faults []Fault
	CEs    []CEEvent
	DUEs   []DUEEvent
}

// Config calibrates the generator. Construct with DefaultConfig and adjust.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Nodes bounds generation to nodes [0, Nodes) for reduced-scale runs;
	// fault incidence parameters are per-node, so statistics per node are
	// scale-invariant. Must be in (0, topology.Nodes].
	Nodes int
	// Start and End bound the study window.
	Start, End time.Time

	// FaultyNodeFrac is the probability that a node has >= 1 fault
	// (paper: 1013/2592 ≈ 0.391 of nodes saw >= 1 CE).
	FaultyNodeFrac float64
	// NodeAlpha and NodeMaxFaults shape the per-node fault-count power law
	// (Fig 5a), conditional on the node being faulty.
	NodeAlpha     float64
	NodeMaxFaults int

	// POneError is the probability a fault emits exactly one error; the
	// rest draw from a power law with exponent ErrAlpha truncated at
	// MaxErrorsPerFault (Fig 4b: median 1, max ≈ 91,000).
	POneError         float64
	ErrAlpha          float64
	MaxErrorsPerFault int

	// PathologicalNodeFrac is the fraction of nodes that are
	// "pathological": a handful of nodes whose components misbehave badly
	// enough to dominate the system-wide error count (Fig 5b: the 8 nodes
	// with the most CEs account for more than 50% of the total).
	// Pathological nodes get PathMinFaults extra faults, each emitting a
	// heavy error stream drawn from a power law with exponent
	// PathErrAlpha on [PathMinErrors, MaxErrorsPerFault].
	PathologicalNodeFrac float64
	PathMinFaults        int
	PathErrAlpha         float64
	PathMinErrors        int
	// PathSeverityMax makes pathological nodes heterogeneous: each gets
	// a severity multiplier drawn Pareto(PathSeverityAlpha) on
	// [1, PathSeverityMax] scaling its extra fault count, so one node
	// (and hence one rack) can dominate the error counts the way rack 31
	// does in Fig 12a. 1 disables.
	PathSeverityMax   float64
	PathSeverityAlpha float64

	// SignatureCount models manufacturing weak spots shared across the
	// DIMM population: a pool of device-internal defect signatures
	// (rank side, row, column, bit) that word-level faults hit with
	// probability SignatureProb, drawn Zipf-like with exponent
	// SignatureZipf. Cross-DIMM collisions at the same DIMM-internal
	// address produce the per-address fault-count power law of Fig 8b.
	// 0 disables.
	SignatureCount int
	SignatureProb  float64
	SignatureZipf  float64

	// ModeWeights are the relative frequencies of the five fault modes.
	ModeWeights [NumModes]float64
	// RegionWeights bias fault placement by rack region (bottom, middle,
	// top); the paper finds a mild top excess in faults (Fig 10b).
	RegionWeights [topology.NumRegions]float64
	// RankWeights bias fault placement by DIMM rank (Fig 7b: rank 0 high).
	RankWeights [topology.RanksPerDIMM]float64
	// SlotWeights bias fault placement by DIMM slot. They must sum to the
	// same total within each socket so that the per-socket fault
	// distribution stays uniform (Fig 6d) while slots differ (Fig 7d).
	SlotWeights [topology.SlotsPerNode]float64

	// RowSkew and ColSkew power-transform the uniform draw for row and
	// column coordinates (coordinate = floor(N * u^skew)); skew > 1
	// concentrates faults at low-numbered rows/columns. ColSkew stays at
	// 1 (uniform) because the paper finds fault columns uniform (Fig 6f);
	// rows are unobservable, so RowSkew only shapes footprints.
	RowSkew, ColSkew float64
	// BitConcentration shapes the weak-bit-position distribution: bit
	// positions are drawn Zipf-like with exponent BitConcentration over a
	// seeded permutation of the 72 codeword bits (Fig 8a).
	BitConcentration float64

	// TrendDecay is the exponential decay of a fault's error intensity
	// across the remainder of the study window (page retirement and
	// system maintenance effects, Fig 4a's downward trend). 0 disables.
	TrendDecay float64
	// StartSkew power-transforms fault activation times toward the start
	// of the window (activation = span·u^StartSkew): defects surface
	// early, so the aggregate monthly error series declines.
	StartSkew float64

	// BurstFrac is the fraction of faults that emit their errors in
	// bursts (error storms) rather than spread evenly; bursts are what
	// overflow the kernel's limited CE log space (§2.3). BurstMaxSize
	// bounds the errors per burst and BurstSpreadMin the burst's width in
	// minutes.
	BurstFrac      float64
	BurstMaxSize   int
	BurstSpreadMin int

	// DUEsPerDIMMYear is the background uncorrectable-error rate; together
	// with escalations it lands near the paper's §3.5 total of 0.00948
	// (FIT ≈ 1081).
	DUEsPerDIMMYear float64
	// MachineCheckFrac is the fraction of DUEs that surface as machine
	// checks rather than patrol-scrub ECC detections.
	MachineCheckFrac float64
	// EscalationPerKErrors is the probability per 1000 correctable errors
	// that a fault escalates to a DUE at its own address (a stuck bit plus
	// a transient second flip defeats SEC-DED). Escalated DUEs are the
	// CE-precursor population that predictive-maintenance policies key on.
	EscalationPerKErrors float64
	// EscalationCap bounds the per-fault escalation probability; 0 means
	// the calibrated default of 0.5. Prediction scenarios raise it so
	// heavy faults escalate near-deterministically, which sharpens the
	// ground-truth labels the evaluation harness grades against.
	EscalationCap float64
}

// DefaultConfig returns the full-scale Astra calibration.
func DefaultConfig(seed uint64) Config {
	cfg := Config{
		Seed:  seed,
		Nodes: topology.Nodes,
		Start: simtime.StudyStart,
		End:   simtime.StudyEnd,

		FaultyNodeFrac: 0.391,
		NodeAlpha:      1.7,
		NodeMaxFaults:  70,

		POneError:         0.60,
		ErrAlpha:          1.30,
		MaxErrorsPerFault: 91000,

		PathologicalNodeFrac: 10.0 / topology.Nodes,
		PathMinFaults:        4,
		PathErrAlpha:         1.05,
		PathMinErrors:        8000,
		PathSeverityMax:      6,
		PathSeverityAlpha:    1.5,

		SignatureCount: 512,
		SignatureProb:  0.3,
		SignatureZipf:  1.3,

		ModeWeights: [NumModes]float64{
			SingleBit:    0.85,
			SingleWord:   0.06,
			SingleColumn: 0.04,
			SingleRow:    0.03,
			SingleBank:   0.02,
		},
		RegionWeights: [topology.NumRegions]float64{0.96, 1.0, 1.07},
		RankWeights:   [topology.RanksPerDIMM]float64{1.55, 1.0},

		RowSkew:          3.0,
		ColSkew:          1.0,
		BitConcentration: 1.05,

		TrendDecay: 1.3,
		StartSkew:  3.0,

		BurstFrac:      0.25,
		BurstMaxSize:   5000,
		BurstSpreadMin: 2,

		DUEsPerDIMMYear:      0.0062,
		MachineCheckFrac:     0.35,
		EscalationPerKErrors: 0.02,
	}
	// Slot weights: J, E, I, P hot; A, K, L, M, N cold (Fig 7d). Each
	// socket's weights sum to 8.35 so sockets stay balanced (Fig 6d).
	w := map[string]float64{
		"A": 0.55, "B": 1.0, "C": 1.0, "D": 1.0, "E": 1.8, "F": 1.0, "G": 1.0, "H": 1.0,
		"I": 1.8, "J": 1.8, "K": 0.55, "L": 0.55, "M": 0.55, "N": 0.55, "O": 1.0, "P": 1.55,
	}
	for _, s := range topology.AllSlots() {
		cfg.SlotWeights[s] = w[s.Name()]
	}
	return cfg
}

// Validate checks internal consistency of the configuration.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0 || c.Nodes > topology.Nodes:
		return fmt.Errorf("faultmodel: Nodes = %d out of (0, %d]", c.Nodes, topology.Nodes)
	case !c.Start.Before(c.End):
		return fmt.Errorf("faultmodel: empty study window %v..%v", c.Start, c.End)
	case c.FaultyNodeFrac < 0 || c.FaultyNodeFrac > 1:
		return fmt.Errorf("faultmodel: FaultyNodeFrac = %v", c.FaultyNodeFrac)
	case c.NodeAlpha <= 1 || c.NodeMaxFaults < 1:
		return fmt.Errorf("faultmodel: node fault power law (%v, %d) invalid", c.NodeAlpha, c.NodeMaxFaults)
	case c.POneError < 0 || c.POneError > 1:
		return fmt.Errorf("faultmodel: POneError = %v", c.POneError)
	case c.ErrAlpha <= 1 || c.MaxErrorsPerFault < 1:
		return fmt.Errorf("faultmodel: error power law (%v, %d) invalid", c.ErrAlpha, c.MaxErrorsPerFault)
	case c.PathologicalNodeFrac < 0 || c.PathologicalNodeFrac > c.FaultyNodeFrac:
		return fmt.Errorf("faultmodel: PathologicalNodeFrac = %v out of [0, FaultyNodeFrac]", c.PathologicalNodeFrac)
	case c.PathologicalNodeFrac > 0 && (c.PathErrAlpha <= 1 || c.PathMinErrors < 1 ||
		c.PathMinErrors > c.MaxErrorsPerFault || c.PathMinFaults < 0):
		return fmt.Errorf("faultmodel: pathological-node parameters invalid")
	case c.PathSeverityMax > 1 && c.PathSeverityAlpha <= 0:
		return fmt.Errorf("faultmodel: PathSeverityAlpha must be positive")
	case c.SignatureCount < 0 || c.SignatureProb < 0 || c.SignatureProb > 1:
		return fmt.Errorf("faultmodel: signature parameters invalid")
	case c.SignatureCount > 0 && c.SignatureProb > 0 && c.SignatureZipf <= 1:
		return fmt.Errorf("faultmodel: SignatureZipf must exceed 1")
	case c.RowSkew <= 0 || c.ColSkew <= 0:
		return fmt.Errorf("faultmodel: skews must be positive")
	case c.DUEsPerDIMMYear < 0:
		return fmt.Errorf("faultmodel: DUEsPerDIMMYear = %v", c.DUEsPerDIMMYear)
	case c.EscalationPerKErrors < 0 || c.EscalationPerKErrors > 1:
		return fmt.Errorf("faultmodel: EscalationPerKErrors = %v", c.EscalationPerKErrors)
	case c.EscalationCap < 0 || c.EscalationCap > 1:
		return fmt.Errorf("faultmodel: EscalationCap = %v", c.EscalationCap)
	case c.StartSkew <= 0:
		return fmt.Errorf("faultmodel: StartSkew must be positive")
	case c.BurstFrac < 0 || c.BurstFrac > 1:
		return fmt.Errorf("faultmodel: BurstFrac = %v", c.BurstFrac)
	case c.BurstFrac > 0 && (c.BurstMaxSize < 1 || c.BurstSpreadMin < 1):
		return fmt.Errorf("faultmodel: burst parameters invalid")
	}
	sum := 0.0
	for _, w := range c.ModeWeights {
		if w < 0 {
			return fmt.Errorf("faultmodel: negative mode weight")
		}
		sum += w
	}
	if sum == 0 {
		return fmt.Errorf("faultmodel: zero mode weights")
	}
	// Per-socket slot-weight balance keeps the socket marginal uniform.
	var s0, s1 float64
	for _, s := range topology.AllSlots() {
		if c.SlotWeights[s] < 0 {
			return fmt.Errorf("faultmodel: negative slot weight for %s", s)
		}
		if s.Socket() == 0 {
			s0 += c.SlotWeights[s]
		} else {
			s1 += c.SlotWeights[s]
		}
	}
	if s0 == 0 || s1 == 0 {
		return fmt.Errorf("faultmodel: zero slot weights on a socket")
	}
	if d := s0 - s1; d > 1e-9 || d < -1e-9 {
		return fmt.Errorf("faultmodel: slot weights unbalanced across sockets (%v vs %v)", s0, s1)
	}
	return nil
}
