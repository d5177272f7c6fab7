package core

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Stability reports how robust the Sec. VII claims are under bootstrap
// resampling of the recipes — the "more sophisticated validation" the
// paper's future-work section calls for. pipeline.Bootstrap builds it:
// each replicate resamples every region's recipes with replacement,
// runs the full figure chain and Validate, and Support is the fraction
// of replicates in which a claim held.
type Stability struct {
	Iterations int
	// Support maps "<claim>/<tree>" to the fraction of replicates where
	// the claim held.
	Support map[string]float64
}

// Render writes the stability report.
func (s *Stability) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Claim / tree\tBootstrap support (n=%d)\n", s.Iterations)
	keys := make([]string, 0, len(s.Support))
	for k := range s.Support {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(tw, "%s\t%.2f\n", k, s.Support[k])
	}
	return tw.Flush()
}
