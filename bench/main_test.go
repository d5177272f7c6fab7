package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"cuisines/internal/benchfmt"
)

// TestWriteReportMergesWorkloads files the workloads of one seed from
// separate invocations: they must end up side by side in one run, a
// repeated workload replacing its earlier result.
func TestWriteReportMergesWorkloads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	write := func(label, workload string, p50 float64) {
		t.Helper()
		o := &outcome{workload: workload, attempted: 1, e2e: map[string]float64{"p50_ms": p50}}
		if err := writeReport(path, label, 15, []*outcome{o}); err != nil {
			t.Fatal(err)
		}
	}
	write("seed-1", "a", 1)
	write("seed-1", "b", 2)
	write("seed-1", "a", 3)
	write("seed-2", "a", 4)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f benchfmt.File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 2 {
		t.Fatalf("%d runs, want 2", len(f.Runs))
	}
	got := map[string]float64{}
	for _, res := range f.Runs[0].Results {
		got[res.Name] = res.Metrics["p50_ms"]
	}
	if len(f.Runs[0].Results) != 2 || got["a"] != 3 || got["b"] != 2 {
		t.Errorf("seed-1 results %v, want a=3 b=2", got)
	}
	if v := runValues(f, "a", "p50_ms"); len(v) != 2 || v[0] != 3 || v[1] != 4 {
		t.Errorf("workload a across runs: %v, want [3 4]", v)
	}
}
