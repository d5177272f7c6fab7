// Command benchjson runs the repository's benchmark suite and records
// the results as machine-readable JSON, so benchmark trajectories can
// be committed next to the code they measure (BENCH_6.json) and checked
// in CI instead of living in PR descriptions.
//
// It shells out to `go test -bench` with -benchmem, parses the standard
// benchmark output lines, and appends a labeled run to the output file;
// re-running with an existing label replaces that run in place, so a
// before/after pair converges to two runs however many times each side
// is re-measured.
//
// Usage:
//
//	benchjson -label after -o BENCH_6.json           # run suite, record
//	benchjson -label before -input raw.txt -o f.json # ingest saved output
//	benchjson -check BENCH_6.json                    # validate, exit 1 on bad
//
// The -check mode is the CI hook: it re-parses the committed file and
// the smoke-run output, failing the job if either has stopped being
// valid benchjson output. The document format itself lives in
// internal/benchfmt, shared with the load benchmark in bench/.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cuisines/internal/benchfmt"
)

// defaultBench selects the tracked suite (see DESIGN.md §10): pdist,
// mine, corpus, figures, staged reuse (P1–P5) and artifact codecs (P7).
const defaultBench = "^Benchmark(PdistParallel|MineRegionsParallel|CorpusGenerationParallel|BuildFiguresParallel|StagedReuse|ArtifactCodecs)$"

func main() {
	var (
		bench     = flag.String("bench", defaultBench, "benchmark regexp passed to go test -bench")
		benchtime = flag.String("benchtime", "", "go test -benchtime value (e.g. 1x for smoke runs)")
		count     = flag.Int("count", 1, "go test -count value")
		short     = flag.Bool("short", false, "pass -short to go test")
		pkg       = flag.String("pkg", "./...", "package pattern to benchmark")
		label     = flag.String("label", "run", "label for this run in the output file")
		out       = flag.String("o", "", "output JSON file; merged if it exists (required unless -check)")
		input     = flag.String("input", "", "parse saved go test output from this file instead of running")
		check     = flag.String("check", "", "validate a benchjson file and exit (1 if invalid)")
	)
	flag.Parse()

	if *check != "" {
		if err := benchfmt.CheckFile(*check); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *check, err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok\n", *check)
		return
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -o is required (or use -check)")
		os.Exit(2)
	}

	var (
		raw io.Reader
		err error
	)
	if *input != "" {
		f, ferr := os.Open(*input)
		if ferr != nil {
			fatal(ferr)
		}
		defer f.Close()
		raw = f
	} else {
		raw, err = runGoTest(*bench, *benchtime, *count, *short, *pkg)
		if err != nil {
			fatal(err)
		}
	}

	results, err := benchfmt.ParseBench(raw)
	if err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark results parsed"))
	}

	run := benchfmt.Run{
		Label:     *label,
		Go:        runtime.Version(),
		Date:      time.Now().UTC().Format("2006-01-02"),
		Benchtime: *benchtime,
		Results:   results,
	}
	if err := benchfmt.MergeRun(*out, run); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d results under label %q\n", *out, len(results), *label)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}

// runGoTest invokes the benchmark suite and returns its stdout. Bench
// output goes to stdout; compile errors and -v noise go to stderr and
// are surfaced on failure.
func runGoTest(bench, benchtime string, count int, short bool, pkg string) (io.Reader, error) {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchmem", "-count", strconv.Itoa(count)}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	if short {
		args = append(args, "-short")
	}
	args = append(args, pkg)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	var buf strings.Builder
	cmd.Stdout = io.MultiWriter(&buf, os.Stderr) // echo progress while capturing
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return strings.NewReader(buf.String()), nil
}
