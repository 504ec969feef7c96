// Command bench is the whole-path benchmark of the Astra memory-failure
// pipeline. It builds astrareport and astrad from the repository once,
// drives them as separate processes through four workloads, checks every
// answer against an in-process reference, and prints end-to-end metrics;
// with -trace 1 it then replays each workload in process from the
// packages' public calls and prints a per-layer ledger. See README.md.
//
//	bash bench/run.sh --workload live-tail --seed 3 --seconds 20 --trace 0
//	cd bench && go run . -seed 1                 # all four workloads
//	cd bench && go run . -seed 1 -trace 1        # traced replay, ledger
//	cd bench && go run . -compare A.json B.json  # compare two result sets
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// workloads are run in this order; BENCHMARK.json records why each
// exists.
var workloads = []struct {
	name string
	run  func(*runner, context.Context, *Result) error
}{
	{"batch-text", func(rn *runner, ctx context.Context, res *Result) error { return rn.runBatch(ctx, res, false) }},
	{"batch-colfmt", func(rn *runner, ctx context.Context, res *Result) error { return rn.runBatch(ctx, res, true) }},
	{"live-tail", (*runner).runLiveTail},
	{"live-restart", (*runner).runLiveRestart},
}

// runner carries one workload run's settings and scratch space.
type runner struct {
	bin     string // directory holding the built astrareport and astrad
	work    string // scratch directory, removed after the run
	sc      scale
	seed    uint64
	seconds time.Duration
	trace   bool
	rec     *recorder // nil unless traced
	speed   *speedometer
	traces  int
	buildS  float64 // median dataset.Build time of the live set-ups
	log     io.Writer
}

func (rn *runner) nextTrace() int {
	rn.traces++
	return rn.traces
}

func (rn *runner) logf(format string, args ...any) {
	fmt.Fprintf(rn.log, "# "+format+"\n", args...)
}

// logLanes prints how each lane of a ledger splits its wall time.
func (rn *runner) logLanes(lg *ledger) {
	for _, la := range lg.lanes {
		rn.logf("ledger lane %s: wall %v = spans %v + unattributed %v", la.name, la.wall, la.spans, la.unattributed)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: batch-text, batch-colfmt, live-tail, live-restart or all")
	seed := fs.Uint64("seed", 1, "input seed: selects the fleet every workload's input is built from")
	seconds := fs.Int("seconds", 0, "timed phase per workload in seconds (0 = BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1 = replay each workload in process with per-layer spans and print the ledger")
	root := fs.String("root", "..", "repository root (holds BENCHMARK.json and cmd/)")
	out := fs.String("out", "", "result document path (default .bench_build/results/<workload>-s<seed>-<time>.json)")
	compare := fs.Bool("compare", false, "compare two result sets given as arguments (files or directories)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(*root, fs.Args(), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	spec, err := loadSpec(*root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	var selected []int
	for i, w := range workloads {
		if *workload == "all" || *workload == w.name {
			selected = append(selected, i)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	box, err := newBox()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer stopAll()
	buildDir := filepath.Join(*root, ".bench_build")
	bin := filepath.Join(buildDir, "bin")
	start := time.Now()
	if err := buildSUT(ctx, *root, bin); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stderr, "# built astrareport and astrad in %.1fs\n", time.Since(start).Seconds())
	fmt.Fprintf(stdout, "box nproc=%d gomaxprocs=%d cpu=%q go=%s\n", box.NProc, box.GOMAXPROCS, box.CPU, box.GoVersion)
	box.CalibStart = calibrate()
	fmt.Fprintf(stdout, "calib.sha256_mb_per_s %.1f MB/s (start)\n", box.CalibStart)

	set := &Set{Box: box}
	for _, i := range selected {
		w := workloads[i]
		work, err := os.MkdirTemp(filepath.Join(buildDir), "work-"+w.name+"-")
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		rn := &runner{bin: bin, work: work, sc: benchScale, seed: *seed, speed: newSpeedometer(),
			seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, log: stderr}
		if rn.trace {
			rn.rec = newRecorder()
		}
		res := newResult(w.name, *seed, *seconds, rn.trace)
		err = w.run(rn, ctx, res)
		stopAll()
		if rmErr := os.RemoveAll(work); rmErr != nil {
			fmt.Fprintln(stderr, "bench:", rmErr)
		}
		if err != nil {
			res.fail("%v", err)
		}
		res.set("failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", res.Attempted)
		if rn.trace {
			dir := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-s%d", w.name, *seed))
			if err := rn.rec.writeTrace(filepath.Join(dir, "trace.json")); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
			}
			if err := writeSet(filepath.Join(dir, "ledger.json"), &Set{Box: box, Results: []*Result{res}}); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
			}
			fmt.Fprintf(stderr, "# trace and ledger written to %s\n", dir)
		}
		printResult(stdout, res)
		set.Results = append(set.Results, res)
	}
	set.Box.CalibEnd = calibrate()
	fmt.Fprintf(stdout, "calib.sha256_mb_per_s %.1f MB/s (end)\n", set.Box.CalibEnd)

	path := *out
	if path == "" {
		path = filepath.Join(buildDir, "results", fmt.Sprintf("%s-s%d-%s.json", *workload, *seed, time.Now().Format("20060102T150405")))
	}
	if err := writeSet(path, set); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stderr, "# results written to %s\n", path)

	failed := 0
	for _, r := range set.Results {
		failed += r.Failed
	}
	if len(set.Results) == 1 {
		line, err := summaryLine(set.Results[0], spec)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// printResult prints every metric of a run as "workload metric value
// unit (n=samples)", then its failures.
func printResult(w io.Writer, r *Result) {
	fmt.Fprintf(w, "%s fleet genSeed=%d nodes=%d relabel=%d ceEvents=%d ceRecords=%d\n",
		r.Workload, r.Fleet.GenSeed, r.Fleet.Nodes, r.Fleet.Relabel, r.Fleet.CEEvents, r.Fleet.CERecords)
	for _, group := range []map[string]Metric{r.Metrics, r.Layers} {
		names := make([]string, 0, len(group))
		for name := range group {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := group[name]
			fmt.Fprintf(w, "%s %s %.6g %s (n=%d)\n", r.Workload, name, m.Value, m.Unit, m.N)
		}
	}
	fmt.Fprintf(w, "%s attempted %d failed %d\n", r.Workload, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%s FAILED: %s\n", r.Workload, f)
	}
}
