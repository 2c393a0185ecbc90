package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec is the part of BENCHMARK.json the program reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// untraced returns the untraced result of a workload in a report.
func (rep *report) untraced(workload string) *result {
	for _, r := range rep.Results {
		if r.Workload == workload && r.Trace == 0 {
			return r
		}
	}
	return nil
}

// worse is how much worse b is than a, as a share of a, in the metric's own
// direction; negative when b is better.
func worse(m specMetric, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints one row per workload and end-to-end metric, b against
// a, and fails when b is worse than a by more than the metric's bound or a
// metric is missing on either side.
func compareFiles(specPath, aPath, bPath string) error {
	var sp spec
	var a, b report
	if err := readJSON(specPath, &sp); err != nil {
		return err
	}
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	bad := 0
	fmt.Printf("%-16s %-18s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse", "bound")
	for _, w := range sp.Workloads {
		ra, rb := a.untraced(w.Name), b.untraced(w.Name)
		for _, m := range sp.EndToEnd {
			var va, vb metric
			okA, okB := false, false
			if ra != nil {
				va, okA = ra.Metrics[m.Name]
			}
			if rb != nil {
				vb, okB = rb.Metrics[m.Name]
			}
			if !okA || !okB {
				fmt.Printf("%-16s %-18s MISSING (a: %v, b: %v)\n", w.Name, m.Name, okA, okB)
				bad++
				continue
			}
			d := worse(m, va.Value, vb.Value)
			verdict := ""
			if d > m.Bound {
				verdict = "  VIOLATION"
				bad++
			}
			fmt.Printf("%-16s %-18s %14.4f %14.4f %+8.2f%% %6.1f%%%s\n",
				w.Name, m.Name, va.Value, vb.Value, 100*d, 100*m.Bound, verdict)
		}
		if ra != nil && rb != nil && (ra.Noisy || rb.Noisy) {
			fmt.Printf("%-16s noisy host (a: %v, b: %v): a disagreement here may be the machine\n", w.Name, ra.Noisy, rb.Noisy)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d comparisons violate their bound or are missing", bad, len(sp.Workloads)*len(sp.EndToEnd))
	}
	return nil
}
