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

	"cuisines/internal/artifact"
	"cuisines/internal/hac"
	"cuisines/internal/pipeline"
)

// runDoctor performs the daemon's startup self-checks and writes a
// human-readable report to out: flag values parse, the cache directory
// (if any) is writable, and every artifact file in it carries a codec
// version the current binary understands and passes frame
// verification. A non-nil error means the daemon could not serve
// correctly with this configuration; corrupt and orphaned artifacts
// (stale codec versions) are only reported — they are ignored and
// recomputed at runtime, never misread.
func runDoctor(out io.Writer, cacheDir, linkage string) error {
	fmt.Fprintf(out, "cuisined doctor\n")

	if _, err := hac.ParseMethod(linkage); err != nil {
		return fmt.Errorf("linkage flag: %w", err)
	}
	fmt.Fprintf(out, "  linkage %q: ok\n", linkage)

	codecs := pipeline.Codecs()
	kinds := make([]string, 0, len(codecs))
	for k := range codecs {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(out, "  codec versions:")
	for _, k := range kinds {
		fmt.Fprintf(out, " %s=v%d", k, codecs[k].Version())
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

	inv, err := inventoryArtifacts(cacheDir, codecs)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  artifacts: %d current, %d corrupt (will be rejected and recomputed), %d orphaned (stale codec version; will be recomputed), %d unrecognized\n",
		inv.current, inv.corrupt, inv.orphaned, inv.foreign)
	fmt.Fprintf(out, "ok\n")
	return nil
}

// artifactName matches the store's on-disk naming, <kind>-v<N>-<key>.art
// (see internal/artifact). Kinds are sanitized to this alphabet before
// writing, so the pattern is exact.
var artifactName = regexp.MustCompile(`^([A-Za-z0-9_.-]+?)-v(\d+)-[0-9a-f]+\.art$`)

// inventory counts a cache directory's .art files by class.
type inventory struct{ current, corrupt, orphaned, foreign int }

// inventoryArtifacts classifies every .art file in dir against the
// current codecs: current (kind known, version matches, frame
// verifies), corrupt (kind and version match but the frame fails
// artifact.VerifyFrame — the store rejects and recomputes it), orphaned
// (kind known, version differs — ignored and recomputed at runtime),
// or unrecognized (unknown kind or unparseable name).
func inventoryArtifacts(dir string, codecs map[string]artifact.Codec) (inventory, error) {
	var inv inventory
	entries, err := os.ReadDir(dir)
	if err != nil {
		return inv, fmt.Errorf("cache-dir %s: %w", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".art" {
			continue
		}
		m := artifactName.FindStringSubmatch(e.Name())
		if m == nil {
			inv.foreign++
			continue
		}
		codec, ok := codecs[m[1]]
		if !ok {
			inv.foreign++
			continue
		}
		if got, _ := strconv.Atoi(m[2]); got != codec.Version() {
			inv.orphaned++
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return inv, fmt.Errorf("cache-dir %s: %w", dir, err)
		}
		if artifact.VerifyFrame(data, codec) != nil {
			inv.corrupt++
		} else {
			inv.current++
		}
	}
	return inv, nil
}
