// Package miner names the frequent-itemset miner behind the mine stage.
// Eclat (internal/eclat) is the only one: the paper mines each cuisine
// once (Sec. V.A), and Eclat was the fastest of the three byte-identical
// backends this repository used to carry (BENCH_6.json, P6). The
// package survives for the Options.Miner spelling check in
// cuisines.Options.Canonical; the miner never enters an artifact or
// cache key.
package miner

import (
	"fmt"
	"strings"

	"cuisines/internal/eclat"
	"cuisines/internal/itemset"
)

// Miner is a frequent-itemset miner. Mine returns every itemset whose
// relative support in the indexed transactions is at least minSupport
// (a fraction in (0, 1], or an absolute count if > 1), in canonical
// report order (itemset.SortPatterns). It is safe for concurrent use.
type Miner interface {
	// Name returns the canonical lowercase name ("eclat").
	Name() string
	// Mine mines the prebuilt index at the given support threshold.
	Mine(ix *itemset.Index, minSupport float64) []itemset.Pattern
}

type eclatMiner struct{}

func (eclatMiner) Name() string { return "eclat" }
func (eclatMiner) Mine(ix *itemset.Index, minSupport float64) []itemset.Pattern {
	return eclat.MineIndex(ix, minSupport)
}

// Eclat intersects the index's bitmaps directly (Zaki 2000).
var Eclat Miner = eclatMiner{}

// Default is the miner an empty name selects: Eclat, the only one.
var Default = Eclat

// Parse resolves a miner name, case-insensitively. The empty string
// resolves to Default, mirroring how Options canonicalization treats
// unset knobs; any name but "eclat" is an error.
func Parse(name string) (Miner, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "eclat":
		return Eclat, nil
	}
	return nil, fmt.Errorf("miner: unknown mining backend %q (eclat is the only one)", name)
}
