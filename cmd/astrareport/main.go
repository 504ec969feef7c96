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
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	astra "repro"
	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/het"
	"repro/internal/mce"
	"repro/internal/paper"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/topology"
)

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
	for _, sec := range astra.Sections {
		if len(want) > 0 && !want[sec.Name] {
			continue
		}
		fmt.Println(sec.Render(study, results))
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
// clustered. That rebuild and the file's read and clustering share no
// input or output, so they run as the two tasks of one parallel.RunCtx
// group (inline, in that order, at GOMAXPROCS 1), and buildStudy returns
// once both have ended, with the first error in that order. External
// logs are never trusted: text passes through the tolerant ingest
// policy (columnar files are checksummed instead), records still out of
// time order afterwards are repaired by core.SanitizeRecords, and an
// ingest-health section is written to w so the reader can judge how
// dirty the input was.
func buildStudy(ctx context.Context, w io.Writer, seed uint64, nodes int, fromSyslog string, pol dataset.IngestPolicy) (*astra.Study, error) {
	opts := astra.Options{Seed: seed, Nodes: nodes}
	if fromSyslog == "" {
		return astra.Run(ctx, opts)
	}
	cfg := dataset.DefaultConfig(seed)
	cfg.Nodes = nodes
	var (
		ds     *dataset.Dataset
		ces    []mce.CERecord
		dues   []mce.DUERecord
		hets   []het.Record
		rep    dataset.IngestReport
		san    core.SanitizeReport
		faults []core.Fault
	)
	fleet := func(ctx context.Context) (err error) {
		ds, err = dataset.BuildFleet(ctx, cfg)
		return err
	}
	records := func(ctx context.Context) error {
		f, err := os.Open(fromSyslog)
		if err != nil {
			return err
		}
		defer f.Close()
		if ces, dues, hets, rep, err = dataset.ReadRecords(f, pol); err != nil {
			return err
		}
		// Repair only a log still out of order after the reorder window:
		// a time-ordered log is analyzed as read, never copied, because
		// the generator legitimately emits byte-identical duplicate CE
		// lines, which the sanitizer's dedup would strip.
		if core.TimeOrdered(ces) {
			san = core.SanitizeReport{In: len(ces), Out: len(ces)}
		} else {
			ces, san = core.SanitizeRecords(ces)
		}
		faults, err = core.Cluster(ctx, ces, core.DefaultClusterConfig())
		return err
	}
	if err := parallel.RunCtx(ctx, runtime.GOMAXPROCS(0), fleet, records); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "parsed %d lines (%d malformed) from %s\n", rep.Lines, rep.Malformed, fromSyslog)
	fmt.Fprintln(w, report.IngestHealth(rep, san))
	ds.CERecords, ds.DUERecords, ds.HETRecords = ces, dues, hets
	return &astra.Study{Options: opts, Dataset: ds, Faults: faults}, nil
}
