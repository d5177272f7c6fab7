package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"cuisines/internal/benchfmt"
)

// comparison is one (workload, metric) pairing of a baseline report
// against a candidate report.
type comparison struct {
	base, cand []float64 // one value per run, in run order
	won        float64   // share of run pairs the candidate won; ties count for neither
	verdict    string
}

// judge applies the repository's rule for claiming a change: the
// candidate is "better" when it wins at least nine tenths of the run
// pairs and its median beats the baseline's by more than the baseline's
// quartile spread; "worse" when its median is worse by more than the
// metric's bound; "unresolved" when either side's quartile spread
// exceeds the bound (unless every candidate run beats every baseline
// run); otherwise "same".
func judge(m metricSpec, base, cand []float64) comparison {
	c := comparison{base: base, cand: cand}
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs := min(len(base), len(cand))
	wins := 0
	for i := range pairs {
		if better(cand[i], base[i]) {
			wins++
		}
	}
	c.won = ratio(float64(wins), float64(pairs))
	bq1, bm, bq3 := quartiles(base)
	cq1, cm, cq3 := quartiles(cand)
	allBetter := true
	for _, x := range cand {
		for _, y := range base {
			allBetter = allBetter && better(x, y)
		}
	}
	worse := (cm - bm) / math.Abs(bm)
	if m.Better == "higher" {
		worse = -worse
	}
	wide := (bq3-bq1)/math.Abs(bm) > m.Bound || (cq3-cq1)/math.Abs(cm) > m.Bound
	switch {
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(cm-bm) > bq3-bq1 && better(cm, bm):
		c.verdict = "better"
	case wide && !allBetter:
		c.verdict = "unresolved"
	case worse > m.Bound:
		c.verdict = "worse"
	default:
		c.verdict = "same"
	}
	return c
}

// compareReports prints, for every workload and end-to-end metric, each
// report's median and quartiles, the share of run pairs the candidate
// won, and the verdict against the metric's bound. The first report is
// the baseline; run i of one report pairs with run i of the other.
func compareReports(w io.Writer, sp *spec, paths []string) error {
	if len(paths) < 2 {
		return fmt.Errorf("-compare needs a baseline report and at least one more")
	}
	files := make([]benchfmt.File, len(paths))
	for i, p := range paths {
		if err := benchfmt.CheckFile(p); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	for ci := 1; ci < len(files); ci++ {
		fmt.Fprintf(w, "baseline %s (%d runs) vs %s (%d runs)\n", paths[0], len(files[0].Runs), paths[ci], len(files[ci].Runs))
		fmt.Fprintf(w, "%-14s %-19s %-6s %-30s %-30s %5s  %s\n", "workload", "metric", "unit", "baseline median [q1 q3]", "candidate median [q1 q3]", "won", "verdict")
		for _, wl := range sp.Workloads {
			for _, m := range sp.EndToEnd {
				base := runValues(files[0], wl.Name, m.Name)
				cand := runValues(files[ci], wl.Name, m.Name)
				if len(base) == 0 || len(cand) == 0 {
					continue
				}
				c := judge(m, base, cand)
				fmt.Fprintf(w, "%-14s %-19s %-6s %-30s %-30s %4.0f%%  %s (bound %g%%)\n",
					wl.Name, m.Name, m.Unit, summary(c.base), summary(c.cand), 100*c.won, c.verdict, 100*m.Bound)
			}
		}
	}
	return nil
}

// runValues collects one metric of one workload across a report's runs.
func runValues(f benchfmt.File, workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		for _, res := range r.Results {
			if v, ok := res.Metrics[metric]; ok && res.Name == workload {
				out = append(out, v)
			}
		}
	}
	return out
}

func summary(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g]", q2, q1, q3)
}
