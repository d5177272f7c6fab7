// Package benchfmt holds the cuisines-bench/v1 report format shared by
// cmd/benchjson (which records `go test -bench` suites) and bench/
// (which records daemon load-test runs): the JSON document types, the
// standard-bench-output parser, the label-merging writer, and the
// validator CI runs over committed BENCH_*.json files.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Schema identifies the JSON layout; bump on breaking changes.
const Schema = "cuisines-bench/v1"

// File is the committed JSON document.
type File struct {
	Schema string `json:"schema"`
	Runs   []Run  `json:"runs"`
}

// Run is one labeled benchmark invocation.
type Run struct {
	Label     string   `json:"label"`
	Go        string   `json:"go"`
	Date      string   `json:"date"`
	Benchtime string   `json:"benchtime,omitempty"`
	Results   []Result `json:"results"`
}

// Result is one measurement. For go-test benchmarks it is one parsed
// output line; for bench/ it is one workload, with NsPerOp its median
// latency and every metric under Metrics (the load reports BENCH_8-10,
// recorded by the since-removed cmd/loadgen, hold one endpoint per
// Result, NsPerOp its mean latency). Metrics holds custom units (e.g.
// "patterns", "d0", "p50_ms").
type Result struct {
	Name        string             `json:"name"`
	Procs       int                `json:"procs,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

var procsSuffix = regexp.MustCompile(`-(\d+)$`)

// ParseBench parses standard `go test -bench` output lines:
//
//	BenchmarkName/sub-8   20   52783924 ns/op   18.73 d0   268770 B/op   4 allocs/op
//
// i.e. a name (with optional -GOMAXPROCS suffix), an iteration count,
// then (value, unit) pairs. Unknown units land in Metrics. Non-benchmark
// lines (goos/pkg headers, PASS, ok) are skipped.
func ParseBench(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			return nil, fmt.Errorf("malformed benchmark line: %q", line)
		}
		res := Result{Name: fields[0]}
		if m := procsSuffix.FindStringSubmatch(res.Name); m != nil {
			res.Procs, _ = strconv.Atoi(m[1])
			res.Name = strings.TrimSuffix(res.Name, m[0])
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad iteration count in %q: %v", line, err)
		}
		res.Iterations = iters
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q: %v", fields[i], line, err)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = val
			case "B/op":
				v := val
				res.BytesPerOp = &v
			case "allocs/op":
				v := val
				res.AllocsPerOp = &v
			default:
				if res.Metrics == nil {
					res.Metrics = make(map[string]float64)
				}
				res.Metrics[unit] = val
			}
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// MergeRun loads the output file if present, replaces any existing run
// with the same label (keeping its position, so "before" stays first),
// appends otherwise, and writes the file back.
func MergeRun(path string, run Run) error {
	f := File{Schema: Schema}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("existing %s is not valid benchjson: %v", path, err)
		}
		if f.Schema != Schema {
			return fmt.Errorf("existing %s has schema %q, want %q", path, f.Schema, Schema)
		}
	}
	replaced := false
	for i := range f.Runs {
		if f.Runs[i].Label == run.Label {
			f.Runs[i] = run
			replaced = true
			break
		}
	}
	if !replaced {
		f.Runs = append(f.Runs, run)
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CheckFile validates a benchjson document: schema match, at least one
// run, every run labeled with at least one named result, every result
// with a positive ns/op.
func CheckFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	if f.Schema != Schema {
		return fmt.Errorf("schema %q, want %q", f.Schema, Schema)
	}
	if len(f.Runs) == 0 {
		return fmt.Errorf("no runs")
	}
	for i, r := range f.Runs {
		if r.Label == "" {
			return fmt.Errorf("run %d has no label", i)
		}
		if len(r.Results) == 0 {
			return fmt.Errorf("run %q has no results", r.Label)
		}
		for j, res := range r.Results {
			if res.Name == "" {
				return fmt.Errorf("run %q result %d has no name", r.Label, j)
			}
			if res.NsPerOp <= 0 {
				return fmt.Errorf("run %q result %q has non-positive ns/op", r.Label, res.Name)
			}
		}
	}
	return nil
}
