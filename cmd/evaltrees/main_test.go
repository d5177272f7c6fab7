package main

import (
	"strings"
	"testing"
)

// evaltrees runs the command in-process and returns what it printed.
func evaltrees(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	if _, err := run(args, &b); err != nil {
		t.Fatalf("evaltrees %v: %v", args, err)
	}
	return b.String()
}

// TestSeedZeroIsDefaultSeed: -seed 0 analyses the default-seed corpus,
// so every seeded step after it (the permutation nulls and the pairing
// table included) must print what an omitted -seed prints.
func TestSeedZeroIsDefaultSeed(t *testing.T) {
	args := []string{"-scale", "0.05", "-pvalues", "-pairing"}
	omitted := evaltrees(t, args...)
	zero := evaltrees(t, append(args, "-seed", "0")...)
	if zero != omitted {
		t.Fatalf("-seed 0 output differs from the default seed's:\n--- -seed 0\n%s\n--- default\n%s", zero, omitted)
	}
	for _, want := range []string{"Permutation significance", "Flavor-compound food pairing"} {
		if !strings.Contains(omitted, want) {
			t.Errorf("output lacks the %q section:\n%s", want, omitted)
		}
	}
}
