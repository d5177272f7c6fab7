package cuisines

import (
	"testing"
)

const engineTestScale = 0.05

// TestEngineLinkageOnlyChangeReusesStages mirrors the pipeline-level
// counting test at the facade: two Options differing only in Linkage
// share the corpus, mining and matrix artifacts.
func TestEngineLinkageOnlyChangeReusesStages(t *testing.T) {
	e := NewEngine(EngineConfig{})
	if _, err := e.Run(Options{Scale: engineTestScale, Linkage: "average"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(Options{Scale: engineTestScale, Linkage: "ward"}); err != nil {
		t.Fatal(err)
	}
	st := e.CacheStats()
	for _, kind := range []string{"corpus", "mine", "matrices"} {
		if got := st[kind].Computed; got != 1 {
			t.Errorf("%s computed %d times across a linkage-only change, want 1", kind, got)
		}
	}
}

// TestOptionsCanonicalMiner pins the miner name's canonicalization:
// the empty string and every spelling of "eclat" canonicalize to
// "eclat", and any other name — the removed backends included — is
// rejected.
func TestOptionsCanonicalMiner(t *testing.T) {
	for _, in := range []string{"", "eclat", "Eclat", " ECLAT "} {
		canon, err := Options{Miner: in}.Canonical()
		if err != nil {
			t.Errorf("Canonical(miner=%q): %v", in, err)
			continue
		}
		if canon.Miner != "eclat" {
			t.Errorf("Canonical(miner=%q).Miner = %q, want %q", in, canon.Miner, "eclat")
		}
	}
	for _, in := range []string{"bogus", "apriori", "fpgrowth", "fp"} {
		if _, err := (Options{Miner: in}).Canonical(); err == nil {
			t.Errorf("miner %q accepted by Canonical", in)
		}
	}
}
