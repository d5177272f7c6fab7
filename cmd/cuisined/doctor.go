package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"

	"cuisines/internal/hac"
	"cuisines/internal/pipeline"
)

// runDoctor performs the daemon's startup self-checks and writes a
// human-readable report to out: flag values parse, the cache directory
// (if any) is writable, and every artifact file in it carries a codec
// version the current binary understands. A non-nil error means the
// daemon could not serve correctly with this configuration; orphaned
// artifacts (stale codec versions) are only reported — they are ignored
// and recomputed at runtime, never misread.
func runDoctor(out io.Writer, cacheDir, linkage string) error {
	fmt.Fprintf(out, "cuisined doctor\n")

	if _, err := hac.ParseMethod(linkage); err != nil {
		return fmt.Errorf("linkage flag: %w", err)
	}
	fmt.Fprintf(out, "  linkage %q: ok\n", linkage)

	versions := pipeline.CodecVersions()
	kinds := make([]string, 0, len(versions))
	for k := range versions {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(out, "  codec versions:")
	for _, k := range kinds {
		fmt.Fprintf(out, " %s=v%d", k, versions[k])
	}
	fmt.Fprintf(out, "\n")

	if cacheDir == "" {
		fmt.Fprintf(out, "  cache-dir: not configured (memory-only artifact store)\n")
		fmt.Fprintf(out, "ok\n")
		return nil
	}

	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return fmt.Errorf("cache-dir %s: %w", cacheDir, err)
	}
	probe, err := os.CreateTemp(cacheDir, ".doctor-probe-*")
	if err != nil {
		return fmt.Errorf("cache-dir %s not writable: %w", cacheDir, err)
	}
	probeName := probe.Name()
	_, werr := probe.WriteString("probe")
	cerr := probe.Close()
	_ = os.Remove(probeName)
	if werr != nil || cerr != nil {
		return fmt.Errorf("cache-dir %s not writable: %w", cacheDir, errors.Join(werr, cerr))
	}
	fmt.Fprintf(out, "  cache-dir %s: writable\n", cacheDir)

	current, orphaned, foreign, err := inventoryArtifacts(cacheDir, versions)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  artifacts: %d current, %d orphaned (stale codec version; will be recomputed), %d unrecognized\n",
		current, orphaned, foreign)
	fmt.Fprintf(out, "ok\n")
	return nil
}

// artifactName matches the store's on-disk naming, <kind>-v<N>-<key>.art
// (see internal/artifact). Kinds are sanitized to this alphabet before
// writing, so the pattern is exact.
var artifactName = regexp.MustCompile(`^([A-Za-z0-9_.-]+?)-v(\d+)-[0-9a-f]+\.art$`)

// inventoryArtifacts classifies every .art file in dir against the
// current codec versions: current (kind known, version matches),
// orphaned (kind known, version differs — ignored and recomputed at
// runtime), or unrecognized (unknown kind or unparseable name).
func inventoryArtifacts(dir string, versions map[string]int) (current, orphaned, foreign int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("cache-dir %s: %w", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".art" {
			continue
		}
		m := artifactName.FindStringSubmatch(e.Name())
		if m == nil {
			foreign++
			continue
		}
		want, ok := versions[m[1]]
		if !ok {
			foreign++
			continue
		}
		got, _ := strconv.Atoi(m[2])
		if got == want {
			current++
		} else {
			orphaned++
		}
	}
	return current, orphaned, foreign, nil
}
