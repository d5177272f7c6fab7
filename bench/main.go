// Command bench is the repository's benchmark. It builds cmd/cuisined
// from the working tree, starts it as a separate process, drives it
// through five workloads from this one generator process, checks every
// response, and prints every end-to-end metric as
//
//	workload metric value unit
//
// With -trace it also prints every per-layer metric, gathered from
// outside the daemon: /metrics counter deltas across the window, and an
// in-process replay that times the calls into each layer's exported
// functions. The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"p50_ms":{"value":0.31,"unit":"ms"},...}}
//
// Run it from the repository root with bash bench/run.sh (see
// README.md). BENCHMARK.json lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cuisines/internal/benchfmt"
)

// buildDir holds everything the benchmark builds and writes; bench/run.sh
// points the Go build cache and TMPDIR into it too.
const buildDir = ".bench_build"

func main() { os.Exit(run()) }

func run() int {
	var names string
	flag.StringVar(&names, "workload", "", "comma-separated workloads to run (default all)")
	flag.StringVar(&names, "workloads", "", "alias for -workload")
	var (
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same requests")
		seconds  = flag.Int("seconds", 0, "measured window per workload, seconds (0 = run_seconds of BENCHMARK.json)")
		traceArg = flag.String("trace", "0", "per-layer tracing: 0 off, 1 on writing "+buildDir+"/trace.json, or the trace file's path")
		out      = flag.String("o", "", "merge this run into a cuisines-bench/v1 report file, labelled seed-<seed> (-trace appended when traced)")
		compare  = flag.Bool("compare", false, "compare cuisines-bench/v1 reports named as arguments against the first")
	)
	flag.Parse()
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fatal(err)
	}
	if *compare {
		if err := compareReports(os.Stdout, sp, flag.Args()); err != nil {
			return fatal(err)
		}
		return 0
	}
	selected, err := selectWorkloads(names)
	if err != nil {
		return fatal(err)
	}
	if *seconds <= 0 {
		*seconds = sp.RunSeconds
	}
	tracePath := ""
	switch *traceArg {
	case "", "0":
	case "1":
		tracePath = filepath.Join(buildDir, "trace.json")
	default:
		tracePath = *traceArg
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bin, err := buildDaemon(ctx)
	if err != nil {
		return fatal(err)
	}
	tmp, err := os.MkdirTemp("", "bench-*")
	if err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(tmp)
	nproc := runtime.NumCPU()
	hc := newClient(nproc)
	defer hc.CloseIdleConnections()
	b := &bench{
		launch: processLauncher{bin: bin, hc: hc}, hc: hc, clk: wallClock{},
		seed: *seed, part: time.Duration(*seconds) * time.Second / setupReps,
		workers: nproc, tmp: tmp, log: os.Stderr,
	}
	if tracePath != "" {
		b.tr = newTracer()
	}

	var outcomes []*outcome
	for _, w := range selected {
		o, err := b.runWorkload(ctx, w)
		if err != nil {
			return fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		if err := printOutcome(os.Stdout, sp, o, b.tr != nil); err != nil {
			return fatal(err)
		}
		outcomes = append(outcomes, o)
	}
	if b.tr != nil {
		if err := writeChromeTrace(tracePath, b.tr); err != nil {
			return fatal(err)
		}
		spans := b.tr.snapshot()
		for _, o := range outcomes {
			printBreakdown(os.Stderr, o.workload, breakdown(spans, o.workload), 25)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", tracePath)
	}
	if *out != "" {
		label := "seed-" + strconv.FormatUint(*seed, 10)
		if b.tr != nil {
			label += "-trace"
		}
		if err := writeReport(*out, label, *seconds, outcomes); err != nil {
			return fatal(err)
		}
	}
	res, code := verdictLine(sp, outcomes, b.tr != nil)
	line, err := json.Marshal(res)
	if err != nil {
		return fatal(err)
	}
	fmt.Println(string(line))
	return code
}

func fatal(err error) int {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 1
}

func selectWorkloads(names string) ([]*workload, error) {
	all := workloads()
	if names == "" {
		return all, nil
	}
	var out []*workload
	for _, name := range strings.Split(names, ",") {
		i := slices.IndexFunc(all, func(w *workload) bool { return w.name == strings.TrimSpace(name) })
		if i < 0 {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, all[i])
	}
	return out, nil
}

// buildDaemon builds cmd/cuisined from the working tree.
func buildDaemon(ctx context.Context) (string, error) {
	bin := filepath.Join(buildDir, "cuisined")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/cuisined")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build cmd/cuisined: %w", err)
	}
	return filepath.Abs(bin)
}

// printOutcome prints one line per metric, end-to-end first; per-layer
// metrics follow when traced, or as far as an untraced run has them.
func printOutcome(w io.Writer, sp *spec, o *outcome, traced bool) error {
	for _, m := range sp.EndToEnd {
		v, ok := o.e2e[m.Name]
		if !ok {
			return fmt.Errorf("%s: end-to-end metric %s not measured", o.workload, m.Name)
		}
		fmt.Fprintf(w, "%s %s %.6g %s\n", o.workload, m.Name, v, m.Unit)
	}
	for _, m := range sp.PerLayer {
		v, ok := o.layer[m.Name]
		if !ok {
			if traced {
				return fmt.Errorf("%s: per-layer metric %s not measured", o.workload, m.Name)
			}
			continue
		}
		fmt.Fprintf(w, "%s %s %.6g %s\n", o.workload, m.Name, v, m.Unit)
	}
	for name := range o.layer {
		if _, ok := sp.metric(name); !ok {
			return fmt.Errorf("%s: metric %s is missing from BENCHMARK.json", o.workload, name)
		}
	}
	for _, f := range o.failures {
		fmt.Fprintf(os.Stderr, "%s: failed: %s\n", o.workload, f)
	}
	if o.invalid != "" {
		fmt.Fprintf(os.Stderr, "%s: invalid run: %s\n", o.workload, o.invalid)
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// verdictLine assembles the final JSON object: the end-to-end metrics,
// or the per-layer ones when traced. With several workloads the metric
// names carry a "<workload>/" prefix. The exit code is 1 when any
// request failed or any generator run was invalid.
func verdictLine(sp *spec, outcomes []*outcome, traced bool) (resultLine, int) {
	res := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	code := 0
	for _, o := range outcomes {
		res.Attempted += o.attempted
		res.Failed += o.failed
		if o.failed > 0 {
			res.Correct = false
			code = 1
		}
		if o.invalid != "" {
			code = 1
		}
		specs, values := sp.EndToEnd, o.e2e
		if traced {
			specs, values = sp.PerLayer, o.layer
		}
		for _, m := range specs {
			name := m.Name
			if len(outcomes) > 1 {
				name = o.workload + "/" + name
			}
			res.Metrics[name] = metricValue{Value: values[m.Name], Unit: m.Unit}
		}
	}
	return res, code
}

// writeReport merges the run into a cuisines-bench/v1 file: one result
// per workload, ns/op its median latency, every metric under Metrics.
// The results join those already filed under label, replacing any of
// the same workload, so running the workloads one invocation at a time
// builds the same report as one invocation running them all.
func writeReport(path, label string, seconds int, outcomes []*outcome) error {
	run := benchfmt.Run{
		Label:     label,
		Go:        runtime.Version(),
		Date:      time.Now().UTC().Format("2006-01-02"),
		Benchtime: strconv.Itoa(seconds) + "s",
	}
	if data, err := os.ReadFile(path); err == nil {
		var f benchfmt.File
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range f.Runs {
			if r.Label == label {
				run.Results = slices.DeleteFunc(r.Results, func(res benchfmt.Result) bool {
					return slices.ContainsFunc(outcomes, func(o *outcome) bool { return o.workload == res.Name })
				})
			}
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	for _, o := range outcomes {
		metrics := map[string]float64{}
		for k, v := range o.e2e {
			metrics[k] = v
		}
		for k, v := range o.layer {
			metrics[k] = v
		}
		run.Results = append(run.Results, benchfmt.Result{
			Name:       o.workload,
			Iterations: int64(o.attempted),
			NsPerOp:    o.e2e["p50_ms"] * 1e6,
			Metrics:    metrics,
		})
	}
	if err := benchfmt.MergeRun(path, run); err != nil {
		return err
	}
	return benchfmt.CheckFile(path)
}
