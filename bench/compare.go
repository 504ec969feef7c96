package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// runCompare compares two result sets (-compare A B): per workload and
// end-to-end metric, each side's median and quartiles over its runs and
// the change of B's median against A's. A metric whose spread on either
// side exceeds its BENCHMARK.json bound is unresolved; otherwise a change
// beyond the bound, either way, makes the comparison exit 1. failed_frac
// has a bound of 0: any run of B failing more than every run of A did is
// a regression. Other metrics BENCHMARK.json does not bound are printed
// for information only.
func runCompare(root string, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare wants two result sets: A B (files or directories)")
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	sides := [2]map[string]map[string][]float64{}
	var boxes [2]Box
	for i, path := range args {
		sets, err := readSets(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		boxes[i] = sets[0].Box
		sides[i] = map[string]map[string][]float64{}
		for _, s := range sets {
			for _, r := range s.Results {
				if r.Trace {
					continue
				}
				if sides[i][r.Workload] == nil {
					sides[i][r.Workload] = map[string][]float64{}
				}
				for name, m := range r.Metrics {
					sides[i][r.Workload][name] = append(sides[i][r.Workload][name], m.Value)
				}
			}
		}
	}
	if boxes[0].NProc != boxes[1].NProc || boxes[0].CPU != boxes[1].CPU {
		fmt.Fprintf(stdout, "warning: different boxes: %d x %q vs %d x %q\n", boxes[0].NProc, boxes[0].CPU, boxes[1].NProc, boxes[1].CPU)
	}
	bounds := map[string]metricSpec{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m
	}
	fmt.Fprintf(stdout, "%-13s %-22s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "change", "bound", "verdict")
	failed := false
	for _, wl := range workloads {
		a, b := sides[0][wl.name], sides[1][wl.name]
		if a == nil || b == nil {
			continue
		}
		var names []string
		for name := range a {
			if b[name] != nil {
				names = append(names, name)
			}
		}
		sort.Slice(names, func(i, j int) bool {
			_, bi := bounds[names[i]]
			_, bj := bounds[names[j]]
			if bi != bj {
				return bi
			}
			return names[i] < names[j]
		})
		for _, name := range names {
			a1, am, a3 := quartiles(a[name])
			b1, bm, b3 := quartiles(b[name])
			change := 0.0
			if am != 0 {
				change = (bm - am) / math.Abs(am)
			}
			verdict, bound := "info", "-"
			if name == "failed_frac" {
				bound, verdict = "0", "within bound"
				if slices.Max(b[name]) > slices.Max(a[name]) {
					verdict, failed = "WORSE", true
				}
			} else if ms, ok := bounds[name]; ok {
				bound = fmt.Sprintf("%.0f%%", 100*ms.Bound)
				worse := change
				if ms.Better == "higher" {
					worse = -change
				}
				switch {
				case spread(a[name]) > ms.Bound || spread(b[name]) > ms.Bound:
					verdict = "unresolved"
				case worse > ms.Bound:
					verdict, failed = "WORSE", true
				case -worse > ms.Bound:
					verdict, failed = "BETTER", true
				default:
					verdict = "within bound"
				}
			}
			fmt.Fprintf(stdout, "%-13s %-22s %12.5g [%11.5g %11.5g] %12.5g [%11.5g %11.5g] %+7.1f%% %6s  %s (n=%d/%d)\n",
				wl.name, name, am, a1, a3, bm, b1, b3, 100*change, bound, verdict, len(a[name]), len(b[name]))
		}
	}
	if failed {
		return 1
	}
	return 0
}
