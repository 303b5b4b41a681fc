package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// runCompare prints, for every (workload, end-to-end metric) pair two
// sets of reports share, both medians, their ratio, the metric's bound
// and a verdict:
//
//	ok          the new median is not worse than the base by more than the bound
//	worse       it is
//	unresolved  the spread of either side is wider than the bound, so the
//	            medians cannot tell — unless every new sample already
//	            beats every base sample
//
// With several reports per side — base1.json,base2.json — the samples are
// the runs' medians and the spread is the distance between their
// quartiles. With one report per side the run's repetitions stand in:
// the spread is their quartile distance over √n, which is what their
// median would show from run to run if repetitions were independent; on a
// host that drifts they are not, so a claim needs the several-report form.
// The exit status is 1 on any "worse".
func runCompare(basePaths, newPaths []string, stdout, stderr io.Writer) int {
	base, err := loadReports(basePaths)
	if err == nil {
		var cur []report
		if cur, err = loadReports(newPaths); err == nil {
			return compareReports(base, cur, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func loadReports(paths []string) ([]report, error) {
	var out []report
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if len(r.Workloads) == 0 {
			return nil, fmt.Errorf("%s: no workloads (write reports with -report)", p)
		}
		out = append(out, r)
	}
	return out, nil
}

// side is one metric on one side of a comparison: its median, the
// quartiles of the samples behind it, and the spread a median of such
// samples shows from run to run, as a share of the median.
type side struct {
	median, q1, q3 float64
	spread         float64
	sampled        bool // false when the report gave a bare number
}

func sideOf(reports []report, workload, metric string) (side, bool) {
	var vals []value
	for _, r := range reports {
		if res, ok := r.Workloads[workload]; ok {
			if v, ok := res.Metrics[metric]; ok {
				vals = append(vals, v)
			}
		}
	}
	switch {
	case len(vals) == 0:
		return side{}, false
	case len(vals) == 1:
		// One run: its repetitions stand in for runs. Were they
		// independent, the median of n of them would spread 1/√n as wide.
		v := vals[0]
		if v.Q1 == nil || v.Value == 0 {
			return side{median: v.Value}, true
		}
		return side{median: v.Value, q1: *v.Q1, q3: *v.Q3, sampled: true,
			spread: (*v.Q3 - *v.Q1) / v.Value / math.Sqrt(float64(v.N))}, true
	}
	xs := make([]float64, len(vals))
	for i, v := range vals {
		xs[i] = v.Value
	}
	s := sorted(xs)
	sd := side{median: quantile(s, 0.5), q1: quantile(s, 0.25), q3: quantile(s, 0.75), sampled: true}
	if sd.median != 0 {
		sd.spread = (sd.q3 - sd.q1) / sd.median
	}
	return sd, true
}

// verdict applies the rule in runCompare's comment to one pair.
func verdict(d metricDef, base, cur side) string {
	worseBy := (cur.median - base.median) / base.median
	clearlyBetter := cur.q3 < base.q1
	if d.Better == "higher" {
		worseBy = -worseBy
		clearlyBetter = cur.q1 > base.q3
	}
	switch {
	case max(base.spread, cur.spread) > d.Bound && !(clearlyBetter && base.sampled && cur.sampled):
		return "unresolved"
	case worseBy > d.Bound:
		return "worse"
	}
	return "ok"
}

func compareReports(base, cur []report, stdout io.Writer) int {
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tunit\tnew/base\tspread\tbound\tverdict")
	status := 0
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			b, okB := sideOf(base, wl, d.Name)
			c, okC := sideOf(cur, wl, d.Name)
			if !okB || !okC || b.median == 0 {
				continue
			}
			v := verdict(d, b, c)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%.3f of %.6g\t%.1f%%\t%s %.0f%%\t%s\n",
				wl, d.Name, b.median, c.median, d.Unit, c.median/b.median, b.median, 100*max(b.spread, c.spread), d.Better, 100*d.Bound, v)
		}
	}
	tw.Flush()
	return status
}
