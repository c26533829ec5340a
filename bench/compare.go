package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict judges b against a for one bounded metric. A spread wider
// than the bound on either side means the runs cannot tell a change of
// that size from noise: unresolved, to be fixed by lengthening the run,
// never by reading it as unchanged.
func verdict(a, b metricResult, m manifestMetric) string {
	if a.Spread > m.Bound || b.Spread > m.Bound {
		return "unresolved"
	}
	worse := (b.Value - a.Value) / a.Value
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return "differ"
	}
	return "agree"
}

// compareFiles prints, per workload and end-to-end metric, both
// medians, both spreads, the bound and the verdict; per-layer metrics
// have no bound and are listed with their values only. Derived metrics
// are listed but not counted.
func compareFiles(w io.Writer, mf *manifest, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		if _, ok := b.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tspread a\tb\tspread b\tbound\tverdict\t")
	counts := map[string]int{}
	defs := append(append([]manifestMetric{}, mf.EndToEnd...), mf.PerLayer...)
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		for _, m := range defs {
			ma, okA := wa.Metrics[m.Name]
			mb, okB := wb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			bound, v := "-", "-"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", m.Bound*100)
				if ma.Derived {
					v = "derived" // restates a row already judged
				} else {
					v = verdict(ma, mb, m)
					counts[v]++
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.1f%%\t%.6g\t%.1f%%\t%s\t%s\t\n",
				name, m.Name, ma.Value, ma.Spread*100, mb.Value, mb.Spread*100, bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d agree, %d differ, %d unresolved\n", counts["agree"], counts["differ"], counts["unresolved"])
	return nil
}
