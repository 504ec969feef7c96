package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	astra "repro"
	"repro/internal/colfmt"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mce"
	"repro/internal/report"
	"repro/internal/topology"
)

// batchInput is a batch workload's input file and the flags that make
// astrareport (and the in-process reference) analyze it.
type batchInput struct {
	path    string
	genSeed uint64
	nodes   int
	ces     int
	bytes   int64
}

func (in batchInput) args() []string {
	return []string{"-from-syslog", in.path, "-seed", strconv.FormatUint(in.genSeed, 10), "-nodes", strconv.Itoa(in.nodes)}
}

// setupBatch builds the fleet and writes the input: its whole syslog as
// astragen renders it (dataset.WriteSyslog), or the same records through
// colfmt.Write.
func (rn *runner) setupBatch(ctx context.Context, res *Result, columnar bool) (batchInput, error) {
	in := batchInput{path: filepath.Join(rn.work, "astra-syslog.log"), genSeed: rn.sc.GenSeed, nodes: rn.sc.Nodes}
	if columnar {
		in.path = filepath.Join(rn.work, "astra-records.col")
	}
	err := rn.setupReps(ctx, res, func(ds *dataset.Dataset) (func() error, error) {
		n, err := writeInput(in.path, ds, columnar)
		in.bytes, in.ces = n, len(ds.CERecords)
		return nil, err
	})
	return in, err
}

// writeInput writes a fleet's records to path as syslog text or colfmt
// and returns the file's size.
func writeInput(path string, ds *dataset.Dataset, columnar bool) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if columnar {
		err = colfmt.Write(f, colfmt.Records{CEs: ds.CERecords, DUEs: ds.DUERecords, HETs: ds.HETRecords})
	} else {
		err = ds.WriteSyslog(f, noiseEvery)
	}
	if err != nil {
		f.Close()
		return 0, fmt.Errorf("write %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return fi.Size(), f.Close()
}

// runBatch is the batch-text and batch-colfmt workloads: astrareport
// runs back to back (closed loop, one client) for the run length, and
// every run's stdout must equal the in-process reference byte for byte.
func (rn *runner) runBatch(ctx context.Context, res *Result, columnar bool) error {
	in, err := rn.setupBatch(ctx, res, columnar)
	if err != nil {
		return err
	}
	var walls, rates, cpuPerRec, cpus, rss, peaks []float64
	var sums [][32]byte
	// A traced run times astrareport once, then replays it in process.
	deadline := time.Now().Add(rn.seconds)
	for runs := 0; runs == 0 || (!rn.trace && time.Now().Before(deadline)); runs++ {
		rn.speed.burst()
		var stdout bytes.Buffer
		p, err := startProc(filepath.Join(rn.bin, "astrareport"), in.args(), &stdout)
		if err != nil {
			return err
		}
		wall, err := p.wait()
		res.Attempted++
		if err != nil {
			res.fail("astrareport: %v", err)
			continue
		}
		w := wall.Seconds()
		walls = append(walls, w)
		rates = append(rates, float64(in.ces)/w)
		cpus = append(cpus, p.cpu().Seconds())
		cpuPerRec = append(cpuPerRec, float64(p.cpu().Nanoseconds())/float64(in.ces))
		peak := p.peakMB()
		peaks = append(peaks, peak)
		if m := p.rssBetween(p.start, time.Time{}); len(m) > 0 {
			rss = append(rss, median(m))
		} else {
			rss = append(rss, peak)
		}
		sums = append(sums, sha256.Sum256(stdout.Bytes()))
	}
	if len(walls) == 0 {
		return fmt.Errorf("no astrareport run completed")
	}
	res.set("answer_p50_ms", median(walls)*1e3, "ms", len(walls))
	res.set("records_per_s", median(rates), "1/s", len(rates))
	res.set("cpu_ns_per_record", median(cpuPerRec), "ns", len(cpuPerRec))
	res.set("rss_mb", median(rss), "MB", len(rss))
	res.set("peak_rss_mb", median(peaks), "MB", len(peaks))
	res.set("batch_wall_s", median(walls), "s", len(walls))
	res.set("sut_cpu_s", median(cpus), "s", len(cpus))
	res.sample("wall_s", walls)
	res.sample("cpu_ns_per_record", cpuPerRec)
	res.sample("rss_mb", rss)
	res.sample("peak_rss_mb", peaks)
	res.scale(rn.speed, "setup_s", "answer_p50_ms", "records_per_s", "cpu_ns_per_record")

	var want []byte
	if rn.trace {
		want, err = rn.traceBatch(ctx, res, in)
	} else {
		want, _, err = batchPass(ctx, in, nil, nil)
	}
	if err != nil {
		return err
	}
	wantSum := sha256.Sum256(want)
	for i, s := range sums {
		if s != wantSum {
			res.fail("astrareport run %d: stdout differs from the in-process reference", i+1)
		}
	}
	return nil
}

// batchPass repeats astrareport's flow from public calls: astra.Run's
// dataset.Build + core.Cluster, then dataset.ReadRecords,
// core.SanitizeRecords, core.Cluster, Study.Analyze and the report
// sections, rendering exactly what astrareport prints. With a recorder
// each call is a span on one lane.
func batchPass(ctx context.Context, in batchInput, rec *recorder, l *lane) ([]byte, *astra.Study, error) {
	var (
		out   bytes.Buffer
		ds    *dataset.Dataset
		study *astra.Study
		res   *astra.Results
		err   error
	)
	rec.do(l, "dataset.build", func() { ds, err = buildFleet(ctx, in.genSeed, in.nodes) })
	if err != nil {
		return nil, nil, err
	}
	var faults []core.Fault
	rec.do(l, "core.cluster", func() { faults, err = core.Cluster(ctx, ds.CERecords, core.DefaultClusterConfig()) })
	if err != nil {
		return nil, nil, err
	}
	study = &astra.Study{Options: astra.Options{Seed: in.genSeed, Nodes: in.nodes}, Dataset: ds, Faults: faults}

	f, err := os.Open(in.path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	pol := dataset.IngestPolicy{ReorderWindow: 2 * time.Minute, MaxMalformedFrac: -1}
	var rep dataset.IngestReport
	rec.do(l, "dataset.read_records", func() {
		ds.CERecords, ds.DUERecords, ds.HETRecords, rep, err = dataset.ReadRecords(f, pol)
	})
	if err != nil {
		return nil, nil, err
	}
	var san core.SanitizeReport
	rec.do(l, "core.sanitize", func() {
		var sanitized []mce.CERecord
		sanitized, san = core.SanitizeRecords(ds.CERecords)
		if san.WasUnsorted {
			ds.CERecords = sanitized
		} else {
			san = core.SanitizeReport{In: san.In, Out: san.In}
		}
	})
	fmt.Fprintf(&out, "parsed %d lines (%d malformed) from %s\n", rep.Lines, rep.Malformed, in.path)
	out.WriteString(report.IngestHealth(rep, san))
	out.WriteByte('\n')
	rec.do(l, "core.cluster", func() { study.Faults, err = core.Cluster(ctx, ds.CERecords, core.DefaultClusterConfig()) })
	if err != nil {
		return nil, nil, err
	}
	rec.do(l, "core.analyze", func() { res, err = study.Analyze(ctx) })
	if err != nil {
		return nil, nil, err
	}
	for _, sec := range sections {
		rec.do(l, "report.render", func() {
			out.WriteString(sec(study, res))
			out.WriteByte('\n')
		})
	}
	fmt.Fprintf(&out, "faults: %d; CE records: %d; EDAC loss: %.2f%%\n",
		len(study.Faults), len(ds.CERecords), 100*ds.EdacStats.LossFraction())
	return out.Bytes(), study, nil
}

// sections are astrareport's figure renderers, in its print order.
var sections = []func(*astra.Study, *astra.Results) string{
	func(s *astra.Study, r *astra.Results) string {
		return report.Table1(s.Dataset.Inventory, s.Options.Nodes)
	},
	func(s *astra.Study, r *astra.Results) string {
		return report.Figure2(s.Dataset.Env, s.Options.Nodes, s.Options.Seed)
	},
	func(s *astra.Study, r *astra.Results) string { return report.Figure3(s.Dataset.Inventory) },
	func(s *astra.Study, r *astra.Results) string { return report.Figure4a(r.Breakdown) },
	func(s *astra.Study, r *astra.Results) string { return report.Figure4b(r.ErrorsPerFault) },
	func(s *astra.Study, r *astra.Results) string { return report.Figure5(r.PerNode, s.Options.Nodes) },
	func(s *astra.Study, r *astra.Results) string { return report.Figure6(r.Structures) },
	func(s *astra.Study, r *astra.Results) string { return report.Figure7(r.Structures) },
	func(s *astra.Study, r *astra.Results) string { return report.Figure8(r.BitAddress) },
	func(s *astra.Study, r *astra.Results) string { return report.Figure9(r.TempWindows) },
	func(s *astra.Study, r *astra.Results) string { return report.Figure10(r.Positional) },
	func(s *astra.Study, r *astra.Results) string { return report.Figure11(r.Positional) },
	func(s *astra.Study, r *astra.Results) string { return report.Figure12(r.Positional) },
	func(s *astra.Study, r *astra.Results) string { return report.Figure13(r.TempDeciles) },
	func(s *astra.Study, r *astra.Results) string { return report.Figure14(r.Utilization) },
	func(s *astra.Study, r *astra.Results) string { return report.Figure15(r.Uncorrectable) },
	func(s *astra.Study, r *astra.Results) string { return report.Thermal(r.RegionTemps, r.RackTemps) },
	func(s *astra.Study, r *astra.Results) string {
		return report.Survival(s.Dataset.Inventory, s.Options.Nodes)
	},
	func(s *astra.Study, r *astra.Results) string { return report.FaultRates(r.FaultRates) },
	func(s *astra.Study, r *astra.Results) string { return report.Precursors(r.Precursors) },
	func(s *astra.Study, r *astra.Results) string { return report.ModeStability(r.ModeStability) },
	func(s *astra.Study, r *astra.Results) string { return report.Interarrivals(r.Interarrivals) },
}

// analyses are the 16 analyses Study.Analyze runs concurrently, called
// one at a time over one serial record index so each gets its own span.
var analyses = []struct {
	name string
	run  func(ix *core.RecordIndex, s *astra.Study) any
}{
	{"breakdown", func(ix *core.RecordIndex, s *astra.Study) any { return ix.BreakdownByMode(s.Faults) }},
	{"errors_per_fault", func(_ *core.RecordIndex, s *astra.Study) any { return core.ErrorsPerFaultDist(s.Faults) }},
	{"per_node", func(ix *core.RecordIndex, s *astra.Study) any { return ix.AnalyzePerNode(s.Faults) }},
	{"structures", func(ix *core.RecordIndex, s *astra.Study) any { return ix.AnalyzeStructures(s.Faults) }},
	{"bit_address", func(_ *core.RecordIndex, s *astra.Study) any { return core.AnalyzeBitAddressWorkers(s.Faults, 1) }},
	{"temp_windows", func(ix *core.RecordIndex, s *astra.Study) any {
		return ix.AnalyzeTempWindows(s.Dataset.Env, core.Fig9Windows)
	}},
	{"positional", func(ix *core.RecordIndex, s *astra.Study) any { return ix.AnalyzePositional(s.Faults) }},
	{"temp_deciles", func(ix *core.RecordIndex, s *astra.Study) any { return ix.AnalyzeTempDeciles(s.Dataset.Env) }},
	{"utilization", func(ix *core.RecordIndex, s *astra.Study) any { return ix.AnalyzeUtilization(s.Dataset.Env) }},
	{"uncorrectable", func(_ *core.RecordIndex, s *astra.Study) any {
		return core.AnalyzeUncorrectable(s.Dataset.HETRecords, s.Options.Nodes*topology.SlotsPerNode, s.Dataset.Config.Fault.End)
	}},
	{"region_temps", func(_ *core.RecordIndex, s *astra.Study) any {
		return core.AnalyzeRegionTemps(s.Dataset.Env, s.Options.Nodes, 1)
	}},
	{"rack_temps", func(_ *core.RecordIndex, s *astra.Study) any {
		return core.AnalyzeRackTemps(s.Dataset.Env, s.Options.Nodes, 1)
	}},
	{"fault_rates", func(_ *core.RecordIndex, s *astra.Study) any {
		return core.AnalyzeFaultRates(s.Faults, s.Options.Nodes*topology.SlotsPerNode, core.StudyWindow())
	}},
	{"precursors", func(_ *core.RecordIndex, s *astra.Study) any {
		return core.AnalyzeDUEPrecursors(s.Dataset.DUERecords, s.Faults, s.Options.Nodes*topology.SlotsPerNode)
	}},
	{"mode_stability", func(_ *core.RecordIndex, s *astra.Study) any { return core.AnalyzeModeStability(s.Faults) }},
	{"interarrivals", func(_ *core.RecordIndex, s *astra.Study) any {
		return core.AnalyzeInterarrivals(s.Dataset.CERecords, s.Faults, 500)
	}},
}

// sink keeps analysis results reachable so no call is optimized away.
var sink []any

// traceBatch is the traced half of a batch run: in-process passes, each
// untraced pass followed by a traced one, until the run length is spent;
// then one serial pass over the 16 analyses. The per-layer ledger takes
// each layer's median over the traced passes. It returns the rendered
// output, which every pass and the timed astrareport run must match.
func (rn *runner) traceBatch(ctx context.Context, res *Result, in batchInput) ([]byte, error) {
	var (
		want          []byte
		plain, traced []float64
		layers        = map[string][]float64{}
		unattributed  []float64
		clocks        []float64
		study         *astra.Study
	)
	deadline := time.Now().Add(rn.seconds)
	for pass := 1; pass == 1 || time.Now().Before(deadline); pass++ {
		start := time.Now()
		out, _, err := batchPass(ctx, in, nil, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, time.Since(start).Seconds())
		if want == nil {
			want = out
		} else if !bytes.Equal(out, want) {
			res.fail("untraced pass %d rendered a different report", pass)
		}

		before := rn.rec.calls.Load()
		id := rn.nextTrace()
		l := rn.rec.startLane("batch", id)
		out, s, err := batchPass(ctx, in, rn.rec, l)
		rn.rec.endLane(l)
		if err != nil {
			return nil, err
		}
		traced = append(traced, time.Duration(l.End-l.Start).Seconds())
		if !bytes.Equal(out, want) {
			res.fail("traced pass %d rendered a different report", pass)
		}
		res.Attempted += 2
		lg, err := rn.rec.account(id)
		if err != nil {
			return nil, err
		}
		for name, d := range lg.self {
			layers[name] = append(layers[name], d.Seconds())
		}
		unattributed = append(unattributed, lg.unattributed().Seconds())
		clocks = append(clocks, float64(rn.rec.calls.Load()-before))
		study = s
		if pass == 1 {
			rn.logLanes(lg)
		}
	}
	analyses, err := rn.traceAnalyses(study)
	if err != nil {
		return nil, err
	}

	med := func(name string) float64 { return median(layers[name]) }
	n := len(traced)
	ces := float64(in.ces)
	res.layer("dataset.build_s", med("dataset.build"), "s", n)
	res.layer("dataset.read_records_s", med("dataset.read_records"), "s", n)
	res.layer("dataset.read_mb_per_s", float64(in.bytes)/1e6/med("dataset.read_records"), "MB/s", n)
	res.layer("core.cluster_s", med("core.cluster"), "s", n)
	res.layer("core.sanitize_s", med("core.sanitize"), "s", n)
	res.layer("core.analyze_s", med("core.analyze"), "s", n)
	for name, d := range analyses {
		res.layer(name+"_s", d.Seconds(), "s", 1)
	}
	res.layer("core.faults", float64(len(study.Faults)), "count", 1)
	res.layer("core.ce_records", ces, "count", 1)
	res.layer("report.render_s", med("report.render"), "s", n)
	res.layer("report.bytes", float64(len(want)), "count", 1)
	res.layer("batch.pass_s", median(traced), "s", n)
	res.layer("batch.untraced_pass_s", median(plain), "s", len(plain))
	res.layer("trace.overhead_measured_s", median(traced)-median(plain), "s", n)

	parse := med("dataset.read_records") + med("core.sanitize")
	res.layer("stage.parse_s", parse, "s", n)
	res.layer("stage.parse_ns_per_record", parse*1e9/ces, "ns", n)
	res.layer("stage.cluster_s", med("core.cluster"), "s", n)
	// core.Cluster runs twice per pass: over the fleet astra.Run builds
	// and over the records read back, the same records relabeled.
	res.layer("stage.cluster_ns_per_record", med("core.cluster")*1e9/(2*ces), "ns", n)
	res.layer("stage.analyze_s", med("core.analyze"), "s", n)
	res.layer("stage.render_s", med("report.render"), "s", n)
	res.layer("stage.unattributed_s", median(unattributed), "s", n)
	res.layer("stage.records", ces, "count", 1)
	res.layer("stage.faults", float64(len(study.Faults)), "count", 1)
	res.layer("trace.overhead_s", median(clocks)*clockCost().Seconds(), "s", n)
	return want, nil
}

// traceAnalyses is one serial pass over a study: the record index, then
// each analysis alone, each a span. It returns their self times.
func (rn *runner) traceAnalyses(study *astra.Study) (map[string]time.Duration, error) {
	id := rn.nextTrace()
	l := rn.rec.startLane("analyses", id)
	var ix *core.RecordIndex
	rn.rec.do(l, "core.index", func() { ix = core.NewRecordIndex(study.Dataset.CERecords, study.Options.Nodes, 1) })
	for _, a := range analyses {
		rn.rec.do(l, "core.analyze."+a.name, func() { sink = append(sink[:0], a.run(ix, study)) })
	}
	rn.rec.endLane(l)
	lg, err := rn.rec.account(id)
	if err != nil {
		return nil, err
	}
	rn.logLanes(lg)
	return lg.self, nil
}
