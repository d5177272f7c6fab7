// Package encode reimplements the paper's feature construction
// (Sec. VI.A): every mined pattern is flattened to its sorted "string
// pattern", the union of string patterns across all cuisines is label
// encoded, and each cuisine becomes a feature vector over the encoded
// pattern vocabulary. Binary (paper), support-weighted and TF-IDF
// weightings are provided; the weighting ablation (A3 in DESIGN.md)
// compares them.
package encode

import (
	"fmt"
	"math"
	"sort"

	"cuisines/internal/itemset"
	"cuisines/internal/matrix"
)

// LabelEncoder maps categorical strings to dense integer labels, like
// sklearn's LabelEncoder: labels are assigned in sorted order of the
// fitted vocabulary.
type LabelEncoder struct {
	classes []string
	index   map[string]int
}

// FitLabels builds an encoder over the unique values of the input.
func FitLabels(values []string) *LabelEncoder {
	uniq := make(map[string]bool, len(values))
	for _, v := range values {
		uniq[v] = true
	}
	classes := make([]string, 0, len(uniq))
	for v := range uniq {
		classes = append(classes, v)
	}
	sort.Strings(classes)
	idx := make(map[string]int, len(classes))
	for i, c := range classes {
		idx[c] = i
	}
	return &LabelEncoder{classes: classes, index: idx}
}

// Classes returns the sorted fitted vocabulary.
func (e *LabelEncoder) Classes() []string { return e.classes }

// Len returns the vocabulary size.
func (e *LabelEncoder) Len() int { return len(e.classes) }

// Transform maps a value to its label. Unknown values error (matching
// sklearn's behaviour).
func (e *LabelEncoder) Transform(v string) (int, error) {
	i, ok := e.index[v]
	if !ok {
		return 0, fmt.Errorf("encode: unseen label %q", v)
	}
	return i, nil
}

// Inverse maps a label back to its value.
func (e *LabelEncoder) Inverse(i int) (string, error) {
	if i < 0 || i >= len(e.classes) {
		return "", fmt.Errorf("encode: label %d out of range %d", i, len(e.classes))
	}
	return e.classes[i], nil
}

// Weighting selects how pattern membership is expressed in the feature
// matrix.
type Weighting int

const (
	// Binary is the paper's encoding: 1 if the cuisine mined the pattern.
	Binary Weighting = iota
	// SupportWeighted writes the pattern's support instead of 1.
	SupportWeighted
	// TFIDF writes support * log(N/df): patterns shared by every cuisine
	// stop dominating the geometry.
	TFIDF
)

// String names the weighting.
func (w Weighting) String() string {
	switch w {
	case Binary:
		return "binary"
	case SupportWeighted:
		return "support"
	case TFIDF:
		return "tfidf"
	default:
		return fmt.Sprintf("weighting(%d)", int(w))
	}
}

// PatternMatrix is the cuisines x patterns feature matrix with its
// vocabulary.
type PatternMatrix struct {
	// Regions holds row labels in matrix row order.
	Regions []string
	// Vocabulary holds the encoded string patterns in column order.
	Vocabulary []string
	// X is the feature matrix, len(Regions) x len(Vocabulary).
	X *matrix.Dense
}

// BuildPatternMatrix vectorizes per-region mined patterns. regions fixes
// the row order; patterns[i] belongs to regions[i].
func BuildPatternMatrix(regions []string, patterns [][]itemset.Pattern, w Weighting) (*PatternMatrix, error) {
	if len(regions) != len(patterns) {
		return nil, fmt.Errorf("encode: %d regions but %d pattern sets", len(regions), len(patterns))
	}
	// Union of string patterns -> label encoding (the paper's unique-set
	// + LabelEncoder step).
	var all []string
	for _, ps := range patterns {
		for _, p := range ps {
			all = append(all, p.StringPattern())
		}
	}
	enc := FitLabels(all)

	x := matrix.NewDense(len(regions), enc.Len())
	df := make([]int, enc.Len())
	for i, ps := range patterns {
		for _, p := range ps {
			j, err := enc.Transform(p.StringPattern())
			if err != nil {
				return nil, err
			}
			if x.At(i, j) == 0 {
				df[j]++
			}
			switch w {
			case Binary:
				x.Set(i, j, 1)
			case SupportWeighted, TFIDF:
				x.Set(i, j, p.Support)
			}
		}
	}
	if w == TFIDF {
		n := float64(len(regions))
		for j := 0; j < enc.Len(); j++ {
			idf := math.Log(n/float64(df[j])) + 1
			for i := 0; i < len(regions); i++ {
				if v := x.At(i, j); v != 0 {
					x.Set(i, j, v*idf)
				}
			}
		}
	}
	return &PatternMatrix{
		Regions:    append([]string(nil), regions...),
		Vocabulary: enc.Classes(),
		X:          x,
	}, nil
}

// PatternCount returns the number of distinct patterns region i mined
// (nonzero entries of its row).
func (pm *PatternMatrix) PatternCount(i int) int {
	n := 0
	for _, v := range pm.X.Row(i) {
		if v != 0 {
			n++
		}
	}
	return n
}

// SharedPatterns returns the number of vocabulary patterns regions i and
// j both mined.
func (pm *PatternMatrix) SharedPatterns(i, j int) int {
	ri, rj := pm.X.Row(i), pm.X.Row(j)
	n := 0
	for k := range ri {
		if ri[k] != 0 && rj[k] != 0 {
			n++
		}
	}
	return n
}
