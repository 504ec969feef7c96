package faultmodel

import (
	"context"
	"math"
	"sort"

	"repro/internal/parallel"
	"repro/internal/simrand"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// Generate produces a ground-truth fault population, its correctable-error
// stream and its uncorrectable-error stream, all sorted by time. The result
// is fully determined by cfg (including cfg.Seed).
//
// Cancelling ctx stops generation between nodes and within the long
// emission loops with ctx's error; a panic surfaces as a
// *parallel.PanicError instead of crashing the process.
func Generate(ctx context.Context, cfg Config) (pop *Population, err error) {
	defer parallel.Recover(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &generator{
		cfg:      cfg,
		root:     simrand.NewStream(cfg.Seed).Derive("faultmodel"),
		startMin: simtime.MinuteOf(cfg.Start),
		endMin:   simtime.MinuteOf(cfg.End),
	}
	g.nodeFaults = simrand.NewPowerLaw(cfg.NodeAlpha, 1, cfg.NodeMaxFaults)
	g.errPerFault = simrand.NewPowerLaw(cfg.ErrAlpha, 1, cfg.MaxErrorsPerFault)
	if cfg.PathologicalNodeFrac > 0 {
		g.pathErrors = simrand.NewPowerLaw(cfg.PathErrAlpha, cfg.PathMinErrors, cfg.MaxErrorsPerFault)
	}
	g.bitRank = simrand.NewPowerLaw(cfg.BitConcentration+1, 1, topology.CodeBitsPerWord)
	g.bitPerm = g.root.Derive("bit-perm").Perm(topology.CodeBitsPerWord)
	g.buildSignatures()

	pop = &Population{Config: cfg}
	if err := g.placeFaults(ctx, pop); err != nil {
		return nil, err
	}
	if err := g.emitCEs(ctx, pop); err != nil {
		return nil, err
	}
	if err := g.emitDUEs(ctx, pop); err != nil {
		return nil, err
	}
	return pop, nil
}

type generator struct {
	cfg              Config
	root             *simrand.Stream
	startMin, endMin simtime.Minute
	nodeFaults       *simrand.PowerLaw
	errPerFault      *simrand.PowerLaw
	pathErrors       *simrand.PowerLaw
	bitRank          *simrand.PowerLaw
	bitPerm          []int
	signatures       []signature
	sigRank          *simrand.PowerLaw
	superAssigned    bool
}

// signature is one manufacturing weak spot: a device-internal defect
// location (rank side, row, bit) shared across the DIMM population. Slot,
// bank and column stay free per fault so signature hits do not perturb
// those marginals — the paper finds fault columns and banks uniform
// (Fig 6) even though address locations collide (Fig 8b).
type signature struct {
	rank int
	row  int
	bit  int
}

// buildSignatures draws the weak-spot pool from the same positional
// distributions as ordinary faults.
func (g *generator) buildSignatures() {
	cfg := g.cfg
	if cfg.SignatureCount == 0 || cfg.SignatureProb == 0 {
		return
	}
	s := g.root.Derive("signatures")
	g.signatures = make([]signature, cfg.SignatureCount)
	for i := range g.signatures {
		g.signatures[i] = signature{
			rank: s.Categorical(cfg.RankWeights[:]),
			row:  skewCoord(s.Float64(), topology.RowsPerBank, cfg.RowSkew),
			bit:  g.weakBit(s),
		}
	}
	g.sigRank = simrand.NewPowerLaw(cfg.SignatureZipf, 1, cfg.SignatureCount)
}

// skewCoord maps a uniform draw to [0, n) with density concentrated toward
// low coordinates for skew > 1 (the manufacturing weak-spot model behind
// the Fig 8b address-collision power law).
func skewCoord(u float64, n int, skew float64) int {
	v := int(float64(n) * math.Pow(u, skew))
	if v >= n {
		v = n - 1
	}
	return v
}

// weakBit draws a codeword bit from the Zipf-over-permutation weak-bit
// distribution (Fig 8a).
func (g *generator) weakBit(s *simrand.Stream) int {
	return g.bitPerm[g.bitRank.Sample(s)-1]
}

// placeFaults decides which nodes are faulty and creates their faults,
// node by node; every node draws from its own derived stream.
func (g *generator) placeFaults(ctx context.Context, pop *Population) error {
	cfg := g.cfg
	// Normalize region weights so the system-wide faulty-node fraction
	// stays at FaultyNodeFrac.
	var regionMean float64
	for _, w := range cfg.RegionWeights {
		regionMean += w
	}
	regionMean /= float64(len(cfg.RegionWeights))

	for n := 0; n < cfg.Nodes; n++ {
		if err := parallel.Poll(ctx, n); err != nil {
			return err
		}
		pop.Faults = append(pop.Faults, g.faultsForNode(n, regionMean)...)
	}
	for i := range pop.Faults {
		pop.Faults[i].ID = i
	}
	return nil
}

// faultsForNode replays one node's placement draws and returns its faults
// (IDs unset; placeFaults numbers them).
func (g *generator) faultsForNode(n int, regionMean float64) []Fault {
	cfg := g.cfg
	node := topology.NodeID(n)
	ns := g.root.DeriveN("node", uint64(n))
	pFaulty := cfg.FaultyNodeFrac * cfg.RegionWeights[node.Region()] / regionMean
	if !ns.Bool(pFaulty) {
		return nil
	}
	// A small fraction of the faulty nodes are pathological: extra
	// faults, each with a guaranteed-heavy error stream. Severity is
	// heterogeneous so a single node (and its rack) can dominate the
	// error counts the way rack 31 does in Fig 12a.
	pathological := cfg.PathologicalNodeFrac > 0 && ns.Bool(cfg.PathologicalNodeFrac/pFaulty)
	nf := g.nodeFaults.Sample(ns)
	pathFaults := 0
	if pathological {
		severity := 1.0
		if cfg.PathSeverityMax > 1 {
			// One machine dominates the study the way the paper's
			// rack-31 node does (Fig 12a): the first pathological node
			// drawn is the super-node.
			if !g.superAssigned {
				g.superAssigned = true
				severity = cfg.PathSeverityMax
			} else {
				severity = ns.Pareto(cfg.PathSeverityAlpha, 1, 1+(cfg.PathSeverityMax-1)/2.5)
			}
		}
		pathFaults = int(severity*float64(cfg.PathMinFaults) + 0.5)
		nf += pathFaults
	}
	slotW := cfg.SlotWeights[:]
	rankW := cfg.RankWeights[:]
	modeW := cfg.ModeWeights[:]
	faults := make([]Fault, 0, nf)
	for f := 0; f < nf; f++ {
		mode := Mode(ns.Categorical(modeW))
		anchor := topology.CellAddr{
			Node: node,
			Slot: topology.Slot(ns.Categorical(slotW)),
			Rank: ns.Categorical(rankW),
			Bank: ns.IntN(topology.BanksPerRank),
			Row:  skewCoord(ns.Float64(), topology.RowsPerBank, cfg.RowSkew),
			Col:  skewCoord(ns.Float64(), topology.ColsPerRow, cfg.ColSkew),
		}
		bit := g.weakBit(ns)
		// Word-level faults sometimes hit a population-wide weak
		// spot (Fig 8b's address-collision power law).
		if (mode == SingleBit || mode == SingleWord) && g.sigRank != nil && ns.Bool(cfg.SignatureProb) {
			sig := g.signatures[g.sigRank.Sample(ns)-1]
			anchor.Rank, anchor.Row = sig.rank, sig.row
			bit = sig.bit
		}
		// Activation is strongly front-loaded: defects are present
		// from bring-up and surface early (the same infant-mortality
		// physics as §3.1), which combined with per-fault decay gives
		// Fig 4a's downward monthly trend.
		span := float64(g.endMin - g.startMin)
		start := g.startMin + simtime.Minute(span*math.Pow(ns.Float64(), cfg.StartSkew))
		nErr := 1
		switch {
		case pathological && f < pathFaults:
			nErr = g.pathErrors.Sample(ns)
		case !ns.Bool(cfg.POneError):
			nErr = g.errPerFault.Sample(ns)
		}
		faults = append(faults, Fault{
			Mode:    mode,
			Anchor:  anchor,
			Bit:     bit,
			Start:   start,
			NErrors: nErr,
		})
	}
	return faults
}

// errorTimeFrac draws the position of an error within [fault start, window
// end] from a truncated-exponential density ∝ exp(-decay·x), x ∈ [0, 1] —
// front-loading errors to produce Fig 4a's downward trend (page retirement
// and maintenance effects).
func errorTimeFrac(s *simrand.Stream, decay float64) float64 {
	u := s.Float64()
	if decay <= 0 {
		return u
	}
	return -math.Log(1-u*(1-math.Exp(-decay))) / decay
}

// emitCEs generates every fault's correctable errors and sorts the stream.
func (g *generator) emitCEs(ctx context.Context, pop *Population) error {
	total := 0
	for i := range pop.Faults {
		total += pop.Faults[i].NErrors
	}
	// Each fault's error stream comes from its own derived stream.
	pop.CEs = make([]CEEvent, total)
	off := 0
	for i := range pop.Faults {
		if err := parallel.Poll(ctx, i); err != nil {
			return err
		}
		f := &pop.Faults[i]
		g.emitFaultCEs(f, pop.CEs[off:off+f.NErrors])
		off += f.NErrors
	}
	sort.Slice(pop.CEs, func(a, b int) bool {
		ea, eb := &pop.CEs[a], &pop.CEs[b]
		if ea.Minute != eb.Minute {
			return ea.Minute < eb.Minute
		}
		if ea.Node != eb.Node {
			return ea.Node < eb.Node
		}
		return ea.Addr < eb.Addr
	})
	return nil
}

// emitFaultCEs fills out (sized to f.NErrors) with one fault's error
// stream, drawn from the fault's own derived stream.
func (g *generator) emitFaultCEs(f *Fault, out []CEEvent) {
	cfg := g.cfg
	fs := g.root.DeriveN("fault-errors", uint64(f.ID))
	span := float64(g.endMin - f.Start)
	if span < 1 {
		span = 1
	}
	// Bursty faults emit errors in storms around shared centers; the
	// kernel's CE log overflows on exactly these (§2.3).
	// Burst sizes are heavy-tailed (a stuck bit swept by the patrol
	// scrubber floods the log within a couple of minutes), so a
	// meaningful fraction of bursts overflows the CE log space.
	burstSize := 0
	if cfg.BurstFrac > 0 && f.NErrors > 1 && fs.Bool(cfg.BurstFrac) {
		burstSize = fs.PowerLawInt(1.2, 8, cfg.BurstMaxSize)
	}
	var center simtime.Minute
	for e := 0; e < f.NErrors; e++ {
		var t simtime.Minute
		if burstSize > 0 {
			if e%burstSize == 0 {
				center = f.Start + simtime.Minute(span*errorTimeFrac(fs, cfg.TrendDecay))
			}
			t = center + simtime.Minute(fs.IntN(cfg.BurstSpreadMin))
			if t > g.endMin {
				t = g.endMin
			}
		} else {
			t = f.Start + simtime.Minute(span*errorTimeFrac(fs, cfg.TrendDecay))
		}
		cell := f.Anchor
		bit := f.Bit
		switch f.Mode {
		case SingleBit:
			// anchored cell and bit
		case SingleWord:
			// anchored word; bits within the word vary
			if fs.Bool(0.5) {
				bit = g.weakBit(fs)
			}
		case SingleColumn:
			cell.Row = skewCoord(fs.Float64(), topology.RowsPerBank, cfg.RowSkew)
		case SingleRow:
			cell.Col = skewCoord(fs.Float64(), topology.ColsPerRow, cfg.ColSkew)
		case SingleBank:
			cell.Row = skewCoord(fs.Float64(), topology.RowsPerBank, cfg.RowSkew)
			cell.Col = skewCoord(fs.Float64(), topology.ColsPerRow, cfg.ColSkew)
			if fs.Bool(0.3) {
				bit = g.weakBit(fs)
			}
		}
		out[e] = CEEvent{
			Minute:  t,
			Node:    f.Anchor.Node,
			Addr:    topology.EncodePhysAddr(cell, 0),
			Bit:     uint8(bit),
			FaultID: int32(f.ID),
		}
	}
}

// emitDUEs generates the uncorrectable-error stream: a background Poisson
// process at DUEsPerDIMMYear across the population's DIMMs, plus
// escalations — faults whose heavy CE streams eventually defeat SEC-DED at
// their own address. Escalated DUEs are the ones with CE precursors.
func (g *generator) emitDUEs(ctx context.Context, pop *Population) error {
	cfg := g.cfg
	g.emitEscalations(pop)
	s := g.root.Derive("dues")
	years := cfg.End.Sub(cfg.Start).Hours() / simtime.HoursPerYear
	mean := cfg.DUEsPerDIMMYear * float64(cfg.Nodes*topology.SlotsPerNode) * years
	n := s.Poisson(mean)
	span := int64(g.endMin - g.startMin)
	for i := 0; i < n; i++ {
		if err := parallel.Poll(ctx, i); err != nil {
			return err
		}
		cell := topology.CellAddr{
			Node: topology.NodeID(s.IntN(cfg.Nodes)),
			Slot: topology.Slot(s.IntN(topology.SlotsPerNode)),
			Rank: s.IntN(topology.RanksPerDIMM),
			Bank: s.IntN(topology.BanksPerRank),
			Row:  s.IntN(topology.RowsPerBank),
			Col:  s.IntN(topology.ColsPerRow),
		}
		b1 := s.IntN(topology.CodeBitsPerWord)
		b2 := s.IntN(topology.CodeBitsPerWord - 1)
		if b2 >= b1 {
			b2++
		}
		cause := CauseUncorrectableECC
		if s.Bool(cfg.MachineCheckFrac) {
			cause = CauseMachineCheck
		}
		pop.DUEs = append(pop.DUEs, DUEEvent{
			Minute: g.startMin + simtime.Minute(s.Int64N(span)),
			Node:   cell.Node,
			Addr:   topology.EncodePhysAddr(cell, 0),
			Bits:   []uint8{uint8(b1), uint8(b2)},
			Cause:  cause,
		})
	}
	sort.Slice(pop.DUEs, func(a, b int) bool { return pop.DUEs[a].Minute < pop.DUEs[b].Minute })
	return nil
}

// emitEscalations converts a NErrors-proportional fraction of faults into
// late-life DUEs at the fault's anchor address.
func (g *generator) emitEscalations(pop *Population) {
	cfg := g.cfg
	if cfg.EscalationPerKErrors <= 0 {
		return
	}
	s := g.root.Derive("escalations")
	cap := cfg.EscalationCap
	if cap <= 0 {
		cap = 0.5
	}
	for _, f := range pop.Faults {
		p := float64(f.NErrors) / 1000 * cfg.EscalationPerKErrors
		if p > cap {
			p = cap
		}
		if !s.Bool(p) {
			continue
		}
		// The escalation lands anywhere after the fault has had time to
		// accumulate errors; spreading it evenly keeps the HET-window DUE
		// rate representative of the whole study (§3.5 extrapolates from
		// a 22-day window).
		span := float64(g.endMin - f.Start)
		t := f.Start + simtime.Minute(span*(0.25+0.75*s.Float64()))
		second := f.Bit
		for second == f.Bit {
			second = s.IntN(topology.CodeBitsPerWord)
		}
		pop.DUEs = append(pop.DUEs, DUEEvent{
			Minute: t,
			Node:   f.Anchor.Node,
			Addr:   topology.EncodePhysAddr(f.Anchor, 0),
			Bits:   []uint8{uint8(f.Bit), uint8(second)},
			Cause:  CauseUncorrectableECC,
		})
	}
}
