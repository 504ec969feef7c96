package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Metric is one measured value with its unit and the number of samples
// behind it (1 for a single measurement or a count).
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// Fleet records the generated fleet a run's inputs came from and the
// seed its nodes were relabeled with.
type Fleet struct {
	GenSeed   uint64 `json:"genSeed"`
	Nodes     int    `json:"nodes"`
	Relabel   uint64 `json:"relabel"`
	CEEvents  int    `json:"ceEvents"`
	CERecords int    `json:"ceRecords"`
}

// Result is one run of one workload. Metrics holds the end-to-end
// numbers (every run); Layers holds the per-layer ledger (traced runs).
type Result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Fleet     Fleet             `json:"fleet"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	Layers    map[string]Metric `json:"layers,omitempty"`
	// Samples keeps the per-operation series behind the metrics.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

func newResult(workload string, seed uint64, seconds int, trace bool) *Result {
	return &Result{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Metrics: map[string]Metric{}}
}

// set records an end-to-end metric. A non-finite value is a failed
// measurement: it is counted and recorded as NaN-free zero so the
// result document stays valid JSON.
func (r *Result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = r.finite(name, v, unit, n)
}

// scale moves CPU-bound metrics to the box's nominal speed with the
// speedometer's factor: a time (or CPU time per record) is multiplied by
// it and a rate (unit 1/s) divided. The unscaled value stays as
// "raw.<name>".
func (r *Result) scale(s *speedometer, names ...string) {
	factor := s.factor()
	r.set("box.speed_factor", factor, "ratio", len(s.mbps))
	r.sample("box.kernel_mb_per_s", s.mbps)
	for _, name := range names {
		m, ok := r.Metrics[name]
		if !ok {
			continue
		}
		r.Metrics["raw."+name] = m
		if m.Unit == "1/s" {
			m.Value /= factor
		} else {
			m.Value *= factor
		}
		r.Metrics[name] = m
	}
}

// sample keeps a metric's per-operation series (+Inf recorded as -1).
func (r *Result) sample(name string, xs []float64) {
	if r.Samples == nil {
		r.Samples = map[string][]float64{}
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			x = -1
		}
		out[i] = x
	}
	r.Samples[name] = out
}

// layer records a per-layer ledger entry.
func (r *Result) layer(name string, v float64, unit string, n int) {
	if r.Layers == nil {
		r.Layers = map[string]Metric{}
	}
	r.Layers[name] = r.finite(name, v, unit, n)
}

func (r *Result) finite(name string, v float64, unit string, n int) Metric {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("%s is not finite (%v)", name, v)
		v = 0
	}
	return Metric{Value: v, Unit: unit, N: n}
}

// fail counts one failed operation and keeps its description.
func (r *Result) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN counts n failed operations under one description (the first few
// descriptions only: a systematic failure repeats the same message).
func (r *Result) failN(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// Set is one result document: the box it ran on and its runs.
type Set struct {
	Box     Box       `json:"box"`
	Results []*Result `json:"results"`
}

func writeSet(path string, s *Set) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readSets loads result documents: each argument is a file or a
// directory whose *.json files are all read.
func readSets(path string) ([]*Set, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if fi.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var sets []*Set
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var s Set
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		sets = append(sets, &s)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("%s: no result documents", path)
	}
	return sets, nil
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: which
// metrics the one-line summary carries, and their regression bounds.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// summaryLine is the last line of a single-workload run: the metrics
// BENCHMARK.json lists (end-to-end, or per-layer for a traced run).
func summaryLine(r *Result, spec *benchSpec) ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src, list := r.Metrics, spec.EndToEnd
	if r.Trace {
		src, list = r.Layers, spec.PerLayer
	}
	metrics := map[string]val{}
	for _, m := range list {
		got, ok := src[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", r.Workload, m.Name)
		}
		if got.Unit != m.Unit {
			return nil, fmt.Errorf("%s: metric %s measured in %s, BENCHMARK.json says %s", r.Workload, m.Name, got.Unit, m.Unit)
		}
		metrics[m.Name] = val{got.Value, got.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Failed == 0, attempted, r.Failed, metrics})
}
