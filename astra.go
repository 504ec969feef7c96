// Package astra is the public entry point of the Astra memory-failure
// reproduction: a synthetic petascale Arm system (topology, DRAM fault
// processes, SEC-DED ECC, EDAC logging, BMC telemetry, inventory scans)
// plus the fault/error analysis methodology of Ferreira, Levy, Hemmert &
// Pedretti, "Understanding Memory Failures on a Petascale Arm System"
// (HPDC 2022).
//
// Typical use:
//
//	study, err := astra.Run(ctx, astra.Options{Seed: 1, Nodes: astra.FullScale})
//	results, err := study.Analyze(ctx)
//	study.WriteReport(os.Stdout, results)
//
// Run builds the full pipeline (generate → log → parse-equivalent records)
// and clusters errors into faults; Analyze executes every analysis from
// the paper's evaluation (Table 1, Figs 2-15).
package astra

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// FullScale is Astra's node count (2592).
const FullScale = topology.Nodes

// Options configures a study run.
type Options struct {
	// Seed drives all randomness; equal seeds give identical studies.
	Seed uint64
	// Nodes is the system size; use FullScale for the paper's scale and
	// smaller values for quick runs. Defaults to FullScale when 0.
	Nodes int
	// Cluster overrides the clustering thresholds; zero value uses
	// core.DefaultClusterConfig.
	Cluster core.ClusterConfig
	// Dataset overrides the full pipeline configuration; zero value uses
	// dataset.DefaultConfig(Seed) at Nodes scale.
	Dataset dataset.Config
}

// Study is a built pipeline plus its clustered faults.
type Study struct {
	Options Options
	Dataset *dataset.Dataset
	Faults  []core.Fault
}

// Run builds the synthetic system, pushes its error streams through the
// logging path, and clusters the logged records into faults. Cancelling
// ctx aborts the pipeline between (and within) stages and returns the
// context's error; a panic in any stage surfaces as a
// *parallel.PanicError rather than crashing the process.
func Run(ctx context.Context, opts Options) (*Study, error) {
	if opts.Nodes == 0 {
		opts.Nodes = FullScale
	}
	if opts.Nodes < 1 || opts.Nodes > FullScale {
		return nil, fmt.Errorf("astra: Nodes = %d out of [1, %d]", opts.Nodes, FullScale)
	}
	cfg := opts.Dataset
	if cfg.Nodes == 0 {
		cfg = dataset.DefaultConfig(opts.Seed)
	}
	cfg.Seed = opts.Seed
	cfg.Nodes = opts.Nodes
	ds, err := dataset.Build(ctx, cfg)
	if err != nil {
		return nil, err
	}
	cc := opts.Cluster
	if cc == (core.ClusterConfig{}) {
		cc = core.DefaultClusterConfig()
	}
	faults, err := core.Cluster(ctx, ds.CERecords, cc)
	if err != nil {
		return nil, err
	}
	return &Study{
		Options: opts,
		Dataset: ds,
		Faults:  faults,
	}, nil
}

// Results aggregates every analysis in the paper's evaluation.
type Results struct {
	Breakdown      core.ModeBreakdown      // Fig 4a
	ErrorsPerFault core.ErrorsPerFault     // Fig 4b
	PerNode        core.PerNode            // Fig 5
	Structures     core.Structures         // Figs 6, 7
	BitAddress     core.BitAddress         // Fig 8
	TempWindows    []core.TempWindow       // Fig 9
	Positional     core.Positional         // Figs 10-12
	TempDeciles    []core.DecilePanel      // Fig 13
	Utilization    []core.UtilizationPanel // Fig 14
	Uncorrectable  core.Uncorrectable      // Fig 15
	RegionTemps    core.RegionTemps        // §3.4 thermal-uniformity table
	RackTemps      core.RackTemps          // §3.4 rack-to-rack spread
	FaultRates     core.FaultRates         // field-study FIT-per-DIMM table
	Precursors     core.Precursors         // DUE precursor analysis
	ModeStability  core.ModeStability      // per-month new-fault mode mix
	Interarrivals  core.Interarrivals      // within-fault error gaps
}

// Analyze runs the full evaluation over the study. The analyses share a
// single record index (one pass over the CE records instead of one scan
// per analysis) and run as independent tasks on up to GOMAXPROCS workers,
// with Fig 9's averaging windows one task each so no single task bounds
// the group. Each task writes its own Results field, so the output does
// not depend on scheduling. Cancelling ctx stops launching analyses and
// returns the context's error; a panic inside any analysis is recovered
// and returned as a *parallel.PanicError.
func (s *Study) Analyze(ctx context.Context) (res *Results, err error) {
	defer parallel.Recover(&err)
	ds := s.Dataset
	n := s.Options.Nodes
	ix := core.IndexRecords(ds.CERecords, n)
	r := &Results{TempWindows: make([]core.TempWindow, len(core.Fig9Windows))}
	task := func(fn func()) func(context.Context) error {
		return func(context.Context) error { fn(); return nil }
	}
	tasks := []func(context.Context) error{
		task(func() { r.Breakdown = ix.BreakdownByMode(s.Faults) }),
		task(func() { r.ErrorsPerFault = core.ErrorsPerFaultDist(s.Faults) }),
		task(func() { r.PerNode = ix.AnalyzePerNode(s.Faults) }),
		task(func() { r.Structures = ix.AnalyzeStructures(s.Faults) }),
		task(func() { r.BitAddress = core.AnalyzeBitAddress(s.Faults) }),
		task(func() { r.Positional = ix.AnalyzePositional(s.Faults) }),
		task(func() { r.TempDeciles = ix.AnalyzeTempDeciles(ds.Env) }),
		task(func() { r.Utilization = ix.AnalyzeUtilization(ds.Env) }),
		task(func() {
			r.Uncorrectable = core.AnalyzeUncorrectable(ds.HETRecords, n*topology.SlotsPerNode, ds.Config.Fault.End)
		}),
		task(func() { r.RegionTemps = core.AnalyzeRegionTemps(ds.Env, n, 1) }),
		task(func() { r.RackTemps = core.AnalyzeRackTemps(ds.Env, n, 1) }),
		task(func() { r.FaultRates = core.AnalyzeFaultRates(s.Faults, n*topology.SlotsPerNode, core.StudyWindow()) }),
		task(func() { r.Precursors = core.AnalyzeDUEPrecursors(ds.DUERecords, s.Faults, n*topology.SlotsPerNode) }),
		task(func() { r.ModeStability = core.AnalyzeModeStability(s.Faults) }),
		task(func() { r.Interarrivals = core.AnalyzeInterarrivals(ds.CERecords, s.Faults, 500) }),
	}
	for i, w := range core.Fig9Windows {
		tasks = append(tasks, task(func() { r.TempWindows[i] = ix.AnalyzeTempWindow(ds.Env, w) }))
	}
	if err := parallel.RunCtx(ctx, runtime.GOMAXPROCS(0), tasks...); err != nil {
		return nil, err
	}
	return r, nil
}

// WriteReport renders every table and figure to w.
func (s *Study) WriteReport(w io.Writer, r *Results) error {
	sections := []string{
		report.Table1(s.Dataset.Inventory, s.Options.Nodes),
		report.Figure2(s.Dataset.Env, s.Options.Nodes, s.Options.Seed),
		report.Figure3(s.Dataset.Inventory),
		report.Figure4a(r.Breakdown),
		report.Figure4b(r.ErrorsPerFault),
		report.Figure5(r.PerNode, s.Options.Nodes),
		report.Figure6(r.Structures),
		report.Figure7(r.Structures),
		report.Figure8(r.BitAddress),
		report.Figure9(r.TempWindows),
		report.Figure10(r.Positional),
		report.Figure11(r.Positional),
		report.Figure12(r.Positional),
		report.Figure13(r.TempDeciles),
		report.Figure14(r.Utilization),
		report.Figure15(r.Uncorrectable),
		report.Thermal(r.RegionTemps, r.RackTemps),
		report.Survival(s.Dataset.Inventory, s.Options.Nodes),
		report.FaultRates(r.FaultRates),
		report.Precursors(r.Precursors),
		report.ModeStability(r.ModeStability),
		report.Interarrivals(r.Interarrivals),
	}
	for _, sec := range sections {
		if _, err := io.WriteString(w, sec+"\n"); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "EDAC logging: offered %d, logged %d, dropped %d (%.2f%% loss)\n",
		s.Dataset.EdacStats.Offered, s.Dataset.EdacStats.Logged, s.Dataset.EdacStats.Dropped,
		100*s.Dataset.EdacStats.LossFraction())
	return err
}

// StudyWindowDays is the length of the failure-analysis window in days.
func StudyWindowDays() float64 {
	return simtime.StudyEnd.Sub(simtime.StudyStart).Hours() / 24
}
