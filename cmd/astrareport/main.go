// Command astrareport runs the full evaluation — Table 1 and Figures 2-15
// — either over a freshly generated synthetic study or over a previously
// generated syslog (the ETL path). Figures can be selected individually.
//
// Usage:
//
//	astrareport -seed 1 -nodes 2592                  # full synthetic study
//	astrareport -nodes 432 -figures table1,fig4a
//	astrareport -from-syslog astra-data/astra-syslog.log -seed 1
//
// When analyzing an existing syslog, the study context the log does not
// carry — the environmental model, the inventory and the EDAC loss
// accounting — is rebuilt from -seed and -nodes (it is deterministic)
// without generating a synthetic record stream, so the report is
// identical to the generate-and-analyze path for matching flags. The
// last line's EDAC loss is the rebuilt fleet's; its fault and CE counts
// are the log's.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	astra "repro"
	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/paper"
	"repro/internal/report"
	"repro/internal/topology"
)

// sections maps figure names to renderers over a study and its results.
var sections = []struct {
	name   string
	render func(*astra.Study, *astra.Results) string
}{
	{"table1", func(s *astra.Study, r *astra.Results) string {
		return report.Table1(s.Dataset.Inventory, s.Options.Nodes)
	}},
	{"fig2", func(s *astra.Study, r *astra.Results) string {
		return report.Figure2(s.Dataset.Env, s.Options.Nodes, s.Options.Seed)
	}},
	{"fig3", func(s *astra.Study, r *astra.Results) string {
		return report.Figure3(s.Dataset.Inventory)
	}},
	{"fig4a", func(s *astra.Study, r *astra.Results) string { return report.Figure4a(r.Breakdown) }},
	{"fig4b", func(s *astra.Study, r *astra.Results) string { return report.Figure4b(r.ErrorsPerFault) }},
	{"fig5", func(s *astra.Study, r *astra.Results) string { return report.Figure5(r.PerNode, s.Options.Nodes) }},
	{"fig6", func(s *astra.Study, r *astra.Results) string { return report.Figure6(r.Structures) }},
	{"fig7", func(s *astra.Study, r *astra.Results) string { return report.Figure7(r.Structures) }},
	{"fig8", func(s *astra.Study, r *astra.Results) string { return report.Figure8(r.BitAddress) }},
	{"fig9", func(s *astra.Study, r *astra.Results) string { return report.Figure9(r.TempWindows) }},
	{"fig10", func(s *astra.Study, r *astra.Results) string { return report.Figure10(r.Positional) }},
	{"fig11", func(s *astra.Study, r *astra.Results) string { return report.Figure11(r.Positional) }},
	{"fig12", func(s *astra.Study, r *astra.Results) string { return report.Figure12(r.Positional) }},
	{"fig13", func(s *astra.Study, r *astra.Results) string { return report.Figure13(r.TempDeciles) }},
	{"fig14", func(s *astra.Study, r *astra.Results) string { return report.Figure14(r.Utilization) }},
	{"fig15", func(s *astra.Study, r *astra.Results) string { return report.Figure15(r.Uncorrectable) }},
	{"thermal", func(s *astra.Study, r *astra.Results) string {
		return report.Thermal(r.RegionTemps, r.RackTemps)
	}},
	{"survival", func(s *astra.Study, r *astra.Results) string {
		return report.Survival(s.Dataset.Inventory, s.Options.Nodes)
	}},
	{"rates", func(s *astra.Study, r *astra.Results) string { return report.FaultRates(r.FaultRates) }},
	{"precursors", func(s *astra.Study, r *astra.Results) string { return report.Precursors(r.Precursors) }},
	{"stability", func(s *astra.Study, r *astra.Results) string { return report.ModeStability(r.ModeStability) }},
	{"interarrivals", func(s *astra.Study, r *astra.Results) string { return report.Interarrivals(r.Interarrivals) }},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("astrareport: ")
	var (
		seed        = flag.Uint64("seed", 1, "random seed")
		nodes       = flag.Int("nodes", 432, "system size in nodes (full Astra is 2592)")
		figures     = flag.String("figures", "all", "comma-separated figure list (table1,fig2..fig15,thermal,survival) or `all`")
		fromSyslog  = flag.String("from-syslog", "", "analyze an existing syslog (or columnar records.col replay) instead of the built-in pipeline")
		dedupWindow = flag.Int("dedup-window", 0, "with -from-syslog, suppress record lines identical to one of the last N (0 disables)")
		reorderWin  = flag.Duration("reorder-window", 2*time.Minute, "with -from-syslog, resequence records arriving up to this much late (0 disables)")
		experiments = flag.Bool("experiments", false, "emit the paper-vs-measured comparison table (markdown) instead of figures")
		svgDir      = flag.String("svg", "", "also write SVG figures into this directory")
	)
	flag.Parse()
	if *nodes < 1 || *nodes > topology.Nodes {
		log.Fatalf("-nodes must be in [1, %d]", topology.Nodes)
	}

	// SIGINT/SIGTERM cancel the pipeline between (and inside) stages.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	study, err := buildStudy(ctx, os.Stdout, *seed, *nodes, *fromSyslog, dataset.IngestPolicy{
		DedupWindow:      *dedupWindow,
		ReorderWindow:    *reorderWin,
		MaxMalformedFrac: -1,
	})
	if err != nil {
		fail(err)
	}
	results, err := study.Analyze(ctx)
	if err != nil {
		fail(err)
	}

	if *experiments {
		rows := paper.Compare(study, results)
		fmt.Print(paper.Markdown(rows))
		if paper.PassCount(rows) < len(rows) {
			os.Exit(1)
		}
		return
	}

	want := map[string]bool{}
	if *figures != "all" {
		for _, name := range strings.Split(*figures, ",") {
			want[strings.TrimSpace(strings.ToLower(name))] = true
		}
	}
	printed := 0
	for _, sec := range sections {
		if len(want) > 0 && !want[sec.name] {
			continue
		}
		fmt.Println(sec.render(study, results))
		printed++
	}
	if printed == 0 {
		log.Fatalf("no figures matched %q", *figures)
	}
	if *svgDir != "" {
		if err := writeSVGs(ctx, *svgDir, study, results); err != nil {
			fail(err)
		}
	}
	fmt.Print(footer(study))
}

// footer is the report's last line: the study's fault and CE record
// counts and its fleet's EDAC loss.
func footer(study *astra.Study) string {
	return fmt.Sprintf("faults: %d; CE records: %d; EDAC loss: %.2f%%\n",
		len(study.Faults), len(study.Dataset.CERecords), 100*study.Dataset.EdacStats.LossFraction())
}

// fail reports a pipeline error, exiting 130 on interrupt.
func fail(err error) {
	if errors.Is(err, context.Canceled) {
		log.Println("interrupted")
		os.Exit(130)
	}
	log.Fatal(err)
}

// writeSVGs renders the figures as SVG files under dir, each through an
// atomic temp-file + rename so a crash never leaves a truncated SVG at a
// final path.
func writeSVGs(ctx context.Context, dir string, study *astra.Study, r *astra.Results) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	svgs := report.SVGFigures(report.SVGInputs{
		Breakdown:   &r.Breakdown,
		PerNode:     &r.PerNode,
		Structures:  &r.Structures,
		BitAddress:  &r.BitAddress,
		TempWindows: r.TempWindows,
		Positional:  &r.Positional,
		TempDeciles: r.TempDeciles,
		Inventory:   study.Dataset.Inventory,
	})
	names := make([]string, 0, len(svgs))
	for name := range svgs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(dir, name+".svg")
		svg := svgs[name]
		if _, err := atomicio.WriteFile(ctx, atomicio.OS, path, func(w io.Writer) error {
			_, werr := io.WriteString(w, svg)
			return werr
		}); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d SVG figures to %s\n", len(svgs), dir)
	return nil
}

// buildStudy either runs the synthetic pipeline or analyzes records read
// from an existing file — merged syslog text or a columnar records.col
// replay, sniffed automatically. For a file, dataset.BuildFleet rebuilds
// from seed and nodes only the context the file cannot carry: the
// telemetry model, the inventory, the ground-truth population the
// -experiments table checks DUEs against, and the EDAC loss accounting
// the last line reports; no synthetic record stream is generated or
// clustered. External logs are never trusted: text passes through the
// tolerant ingest policy (columnar files are checksummed instead), any
// records still out of order afterwards are repaired by
// core.SanitizeRecords, and an ingest-health section is written to w so
// the reader can judge how dirty the input was.
func buildStudy(ctx context.Context, w io.Writer, seed uint64, nodes int, fromSyslog string, pol dataset.IngestPolicy) (*astra.Study, error) {
	opts := astra.Options{Seed: seed, Nodes: nodes}
	if fromSyslog == "" {
		return astra.Run(ctx, opts)
	}
	cfg := dataset.DefaultConfig(seed)
	cfg.Nodes = nodes
	ds, err := dataset.BuildFleet(ctx, cfg)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(fromSyslog)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ces, dues, hets, rep, err := dataset.ReadRecords(f, pol)
	if err != nil {
		return nil, err
	}
	// Repair ordering only when the log is still unsorted after the reorder
	// window — a clean, sorted log must round-trip untouched (the generator
	// legitimately emits byte-identical duplicate CE lines, which a blanket
	// dedup would strip).
	sanitized, san := core.SanitizeRecords(ces)
	if san.WasUnsorted {
		ces = sanitized
	} else {
		san = core.SanitizeReport{In: san.In, Out: san.In}
	}
	fmt.Fprintf(w, "parsed %d lines (%d malformed) from %s\n", rep.Lines, rep.Malformed, fromSyslog)
	fmt.Fprintln(w, report.IngestHealth(rep, san))
	ds.CERecords, ds.DUERecords, ds.HETRecords = ces, dues, hets
	faults, err := core.Cluster(ctx, ces, core.DefaultClusterConfig())
	if err != nil {
		return nil, err
	}
	return &astra.Study{Options: opts, Dataset: ds, Faults: faults}, nil
}
