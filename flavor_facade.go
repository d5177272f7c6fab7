package cuisines

import (
	"fmt"

	"cuisines/internal/flavor"
)

// FoodPairing is one cuisine's flavor-compound pairing statistic (Ahn et
// al.'s ΔN_s, computed on the synthetic compound table — see
// internal/flavor). Positive means the cuisine combines compound-sharing
// ingredients (the Western pattern); negative means it pairs chemically
// contrasting ones (the pattern Jain et al. report for Indian cuisine).
type FoodPairing struct {
	Region      string  `json:"region"`
	CoOccurring float64 `json:"co_occurring"`
	Random      float64 `json:"random"`
	DeltaNs     float64 `json:"delta_ns"`
}

// FoodPairings computes the pairing statistic for every cuisine. The
// underlying flavor analysis scans the whole corpus, so it is computed
// once per Analysis and memoized (the daemon serves it per request).
// The first call loads the corpus.
func (a *Analysis) FoodPairings() []FoodPairing {
	a.pairingsOnce.Do(func() {
		rows := flavor.AnalyzeDB(a.recipes(), 1)
		a.pairings = make([]FoodPairing, 0, len(rows))
		for _, r := range rows {
			a.pairings = append(a.pairings, FoodPairing{
				Region:      r.Region,
				CoOccurring: r.CoOccurring,
				Random:      r.Random,
				DeltaNs:     r.DeltaNs,
			})
		}
	})
	return a.pairings
}

// FoodPairingFor returns one cuisine's pairing statistic.
func (a *Analysis) FoodPairingFor(region string) (FoodPairing, error) {
	for _, r := range a.FoodPairings() {
		if r.Region == region {
			return r, nil
		}
	}
	return FoodPairing{}, fmt.Errorf("cuisines: unknown region %q", region)
}
