package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload, traced, for about a second at
// scale 0.02 against daemons served in process by server.New: set-ups,
// checks, /metrics deltas, replay and report must all hold together,
// and every metric BENCHMARK.json declares must come out.
func TestWorkloadsSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	hc := newClient(2)
	defer hc.CloseIdleConnections()
	b := &bench{
		launch: inProcessLauncher{hc: hc}, hc: hc, clk: wallClock{}, tr: newTracer(),
		seed: 7, part: time.Second / setupReps, workers: 2, tmp: t.TempDir(), log: io.Discard,
	}
	var outcomes []*outcome
	for _, w := range workloads() {
		w.scale = 0.02
		if w.rate > 0 {
			w.rate = 200
		}
		t.Run(w.name, func(t *testing.T) {
			o, err := b.runWorkload(context.Background(), w)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed > 0 || o.invalid != "" || o.attempted == 0 {
				t.Fatalf("attempted %d, failed %d %v, invalid %q", o.attempted, o.failed, o.failures, o.invalid)
			}
			if err := printOutcome(io.Discard, sp, o, true); err != nil {
				t.Fatal(err)
			}
			for _, m := range sp.EndToEnd {
				if o.e2e[m.Name] <= 0 {
					t.Errorf("end-to-end %s = %g; end-to-end metrics are never zero", m.Name, o.e2e[m.Name])
				}
			}
			outcomes = append(outcomes, o)
		})
	}
	res, code := verdictLine(sp, outcomes, true)
	if code != 0 || !res.Correct || res.Failed != 0 {
		t.Errorf("verdict %+v exit %d", res, code)
	}
	if want := len(outcomes) * len(sp.PerLayer); len(res.Metrics) != want {
		t.Errorf("%d metrics in the result line, want %d", len(res.Metrics), want)
	}

	dir := t.TempDir()
	if err := writeReport(filepath.Join(dir, "report.json"), "smoke", 1, outcomes); err != nil {
		t.Fatal(err)
	}
	if err := compareReports(io.Discard, sp, []string{filepath.Join(dir, "report.json"), filepath.Join(dir, "report.json")}); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "trace.json")
	if err := writeChromeTrace(tracePath, b.tr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatal("trace file is not JSON")
	}
	spans := b.tr.snapshot()
	for _, o := range outcomes {
		if len(breakdown(spans, o.workload)) == 0 {
			t.Errorf("%s: no spans", o.workload)
		}
	}
}

// TestSpecFormat checks BENCHMARK.json against the limits on its format
// (name and unit syntax, counts, bounds), and against the workloads
// this package runs.
func TestSpecFormat(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}
	if len(sp.Workloads) < 2 || len(sp.Workloads) > 8 || len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(sp.Workloads), len(sp.EndToEnd), len(sp.PerLayer))
	}
	seen := map[string]bool{}
	ws := workloads()
	if len(ws) != len(sp.Workloads) {
		t.Fatalf("%d workloads declared, %d run", len(sp.Workloads), len(ws))
	}
	for i, w := range sp.Workloads {
		if w.Name != ws[i].name || !nameRE.MatchString(w.Name) || seen[w.Name] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v", i, w)
		}
		seen[w.Name] = true
	}
	var setup metricSpec
	for _, list := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("metric %+v", m)
			}
			seen[m.Name] = true
			if m.Name == "setup_s" {
				setup = m
			}
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setup.Bound {
			t.Errorf("%s: bound %g must be in (0, 0.25] and at most setup_s's", m.Name, m.Bound)
		}
	}
	for _, m := range sp.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer %s has a bound", m.Name)
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s: %+v", setup)
	}
}
